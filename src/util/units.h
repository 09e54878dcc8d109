/**
 * @file
 * Physical units and human-readable formatting.
 *
 * The simulation substrate keeps time as integer nanoseconds (Tick)
 * so event ordering is exact, and converts to floating-point seconds
 * only at model boundaries (energy integration, reporting). Electrical
 * quantities are plain doubles in SI units: volts, amperes, watts,
 * joules, farads.
 */

#pragma once

#include <cstdint>
#include <string>

namespace wsp {

/** Simulated time in integer nanoseconds. */
using Tick = uint64_t;

/** Sentinel for "no scheduled time". */
constexpr Tick kTickNever = ~0ull;

// Time literals -----------------------------------------------------

constexpr Tick kNanosecond = 1;
constexpr Tick kMicrosecond = 1000 * kNanosecond;
constexpr Tick kMillisecond = 1000 * kMicrosecond;
constexpr Tick kSecond = 1000 * kMillisecond;

/** Convert ticks to floating-point seconds. */
constexpr double
toSeconds(Tick t)
{
    return static_cast<double>(t) * 1e-9;
}

/** Convert ticks to floating-point milliseconds. */
constexpr double
toMillis(Tick t)
{
    return static_cast<double>(t) * 1e-6;
}

/** Convert ticks to floating-point microseconds. */
constexpr double
toMicros(Tick t)
{
    return static_cast<double>(t) * 1e-3;
}

/** Convert floating-point seconds to ticks (rounded to nearest ns). */
constexpr Tick
fromSeconds(double s)
{
    return static_cast<Tick>(s * 1e9 + 0.5);
}

/** Convert floating-point milliseconds to ticks. */
constexpr Tick
fromMillis(double ms)
{
    return fromSeconds(ms * 1e-3);
}

/** Convert floating-point microseconds to ticks. */
constexpr Tick
fromMicros(double us)
{
    return fromSeconds(us * 1e-6);
}

// Data sizes ---------------------------------------------------------

constexpr uint64_t kKiB = 1024ull;
constexpr uint64_t kMiB = 1024ull * kKiB;
constexpr uint64_t kGiB = 1024ull * kMiB;

// Formatting ---------------------------------------------------------

/** Format ticks with an auto-selected unit, e.g. "33.0 ms". */
std::string formatTime(Tick t);

/** Format a byte count with an auto-selected unit, e.g. "8.0 MiB". */
std::string formatBytes(uint64_t bytes);

/** Format a double with @p digits significant decimals. */
std::string formatDouble(double value, int digits = 2);

} // namespace wsp
