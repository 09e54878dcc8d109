/**
 * @file
 * Strict unsigned flag values for the sweep drivers (crash_sweep,
 * fleet_sweep): a value that does not fit its field is refused, never
 * wrapped, saturated or truncated into a different run.
 */

#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>

namespace wsp::tools {

/**
 * Parse all of @p text as an unsigned integer (decimal, 0x hex or
 * leading-0 octal). Refuses a sign, leading blanks, overflow and
 * trailing garbage: strtoull would wrap "-1", saturate an overflow
 * and stop quietly at the first non-digit.
 */
inline bool
parseUint(const char *text, uint64_t *out)
{
    if (text[0] < '0' || text[0] > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    *out = std::strtoull(text, &end, 0);
    return errno == 0 && end != nullptr && *end == '\0';
}

/** parseUint into a narrower field, refusing what does not fit. */
template <typename T>
bool
parseCount(const char *text, T *out)
{
    uint64_t n = 0;
    if (!parseUint(text, &n) ||
        n > static_cast<uint64_t>(std::numeric_limits<T>::max()))
        return false;
    *out = static_cast<T>(n);
    return true;
}

} // namespace wsp::tools
