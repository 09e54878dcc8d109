#include "util/units.h"

#include <cstdio>

namespace wsp {

namespace {

/** snprintf into a std::string. */
std::string
format(const char *fmt, double value, const char *unit)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, value, unit);
    return buf;
}

} // namespace

std::string
formatTime(Tick t)
{
    const double ns = static_cast<double>(t);
    if (ns >= 1e9)
        return format("%.3f %s", ns * 1e-9, "s");
    if (ns >= 1e6)
        return format("%.3f %s", ns * 1e-6, "ms");
    if (ns >= 1e3)
        return format("%.3f %s", ns * 1e-3, "us");
    return format("%.0f %s", ns, "ns");
}

std::string
formatBytes(uint64_t bytes)
{
    const double b = static_cast<double>(bytes);
    if (bytes >= kGiB)
        return format("%.2f %s", b / static_cast<double>(kGiB), "GiB");
    if (bytes >= kMiB)
        return format("%.2f %s", b / static_cast<double>(kMiB), "MiB");
    if (bytes >= kKiB)
        return format("%.2f %s", b / static_cast<double>(kKiB), "KiB");
    return format("%.0f %s", b, "B");
}

std::string
formatDouble(double value, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
    return buf;
}

} // namespace wsp
