/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries.
 *
 * Every bench regenerates one table or figure: it prints the paper's
 * rows/series, then a ShapeCheck verdict, and exits nonzero when the
 * measured shape drifts from the paper's. Set WSP_BENCH_FULL=1 to run
 * the paper-sized workloads (the default sizes are trimmed so the
 * whole bench suite finishes quickly). The repository's own speed is
 * measured by perfbench/, not here.
 *
 * Observability: call init("<bench>", argc, argv) first. It applies
 * WSP_LOG_LEVEL and WSP_TRACE from the environment and parses the
 * standard flags:
 *
 *   --trace-out=<file>    write a Chrome trace-event JSON (Perfetto)
 *                         at exit; implies WSP_TRACE=all if no
 *                         category was enabled explicitly
 *   --metrics-out=<file>  write the flat metrics snapshot as JSON at
 *                         exit
 *   --seed=N              override the bench's base RNG seed; benches
 *                         obtain it via rngSeed(default)
 *   --repeat=N            run each measured sample N times and report
 *                         the median; benches opt in by sampling
 *                         through medianOf(repeat(), fn)
 *
 * A --seed or --repeat value that does not fit (a sign, an overflow,
 * trailing garbage, or --repeat=0), or a flag that is none of these,
 * prints the usage and exits 1.
 *
 * finish(check) writes the requested files before returning the exit
 * code, so benches need no extra code beyond init()/finish().
 */

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "tools/parse_uint.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "util/logging.h"
#include "util/table.h"
#include "util/units.h"

namespace wsp::bench {

/** True when WSP_BENCH_FULL=1 requests paper-sized workloads. */
inline bool
fullRuns()
{
    const char *env = std::getenv("WSP_BENCH_FULL");
    return env != nullptr && env[0] == '1';
}

/** Monotonic wall-clock seconds. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Stopwatch for real-time measurements. */
class Stopwatch
{
  public:
    Stopwatch() : start_(nowSeconds()) {}
    double seconds() const { return nowSeconds() - start_; }
    void reset() { start_ = nowSeconds(); }

  private:
    double start_;
};

namespace detail {

/** Per-process bench state filled in by init(). */
struct BenchState
{
    std::string name = "bench";
    std::string traceOut;
    std::string metricsOut;
    uint64_t seed = 0;
    bool seedExplicit = false;
    unsigned repeat = 1;
};

inline BenchState &
state()
{
    static BenchState instance;
    return instance;
}

/** Print the standard flags to @p out. */
inline void
usage(std::FILE *out, const char *name)
{
    std::fprintf(out,
                 "usage: %s [--trace-out=FILE] [--metrics-out=FILE] "
                 "[--seed=N] [--repeat=N]\n"
                 "env: WSP_TRACE=<cat,...|all>  "
                 "WSP_LOG_LEVEL=<quiet|normal|debug>  "
                 "WSP_BENCH_FULL=1\n",
                 name);
}

/** Refuse a flag value that does not fit: usage, then exit 1. */
[[noreturn]] inline void
badValue(const char *name, const char *flag, const char *value)
{
    std::fprintf(stderr, "%s: bad value '%s' for %s\n", name, value,
                 flag);
    usage(stderr, name);
    std::exit(1);
}

} // namespace detail

/**
 * Standard bench prologue: apply WSP_LOG_LEVEL / WSP_TRACE and parse
 * the --trace-out= / --metrics-out= / --seed= / --repeat= flags. Any
 * other flag prints the usage and exits 1, so a misspelled one cannot
 * run the default silently.
 */
inline void
init(const char *name, int argc, char **argv)
{
    auto &bench = detail::state();
    bench.name = name;

    configureLogLevelFromEnv();
    trace::TraceManager::instance().configureFromEnv();

    const auto parse_repeat = [&bench, name](const char *value) {
        if (!tools::parseCount(value, &bench.repeat) || bench.repeat == 0)
            detail::badValue(name, "--repeat", value);
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--trace-out=", 12) == 0) {
            bench.traceOut = arg + 12;
        } else if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
            bench.metricsOut = arg + 14;
        } else if (std::strncmp(arg, "--seed=", 7) == 0) {
            if (!tools::parseUint(arg + 7, &bench.seed))
                detail::badValue(name, "--seed", arg + 7);
            bench.seedExplicit = true;
        } else if (std::strncmp(arg, "--repeat=", 9) == 0) {
            parse_repeat(arg + 9);
        } else if (std::strcmp(arg, "--repeat") == 0 && i + 1 < argc) {
            parse_repeat(argv[++i]);
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            detail::usage(stdout, name);
            std::exit(0);
        } else {
            std::fprintf(stderr, "%s: unknown argument '%s'\n", name, arg);
            detail::usage(stderr, name);
            std::exit(1);
        }
    }

    // Asking for a trace file is asking for tracing: if no category
    // was enabled via WSP_TRACE, enable all.
    if (!bench.traceOut.empty() && !trace::anyEnabled())
        trace::TraceManager::instance().enableAll();
}

/**
 * The base RNG seed for this run: @p fallback unless the user passed
 * --seed=N.
 */
inline uint64_t
rngSeed(uint64_t fallback)
{
    const auto &bench = detail::state();
    return bench.seedExplicit ? bench.seed : fallback;
}

/** The sample count requested via --repeat=N (default 1). */
inline unsigned
repeat()
{
    return detail::state().repeat;
}

/**
 * Run @p sample @p n times and return the median of its results —
 * the standard way for a bench to honor --repeat=N. Even counts
 * return the mean of the two middle samples.
 */
template <typename Fn>
inline double
medianOf(unsigned n, Fn &&sample)
{
    if (n == 0)
        n = 1;
    std::vector<double> values;
    values.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        values.push_back(static_cast<double>(sample()));
    std::sort(values.begin(), values.end());
    return n % 2 == 1
               ? values[n / 2]
               : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/**
 * Run @p sample @p n times and return the minimum. For wall-clock
 * comparisons the min is the noise-robust estimator: scheduler and
 * cache interference only ever add time, so the floor tracks the
 * work itself while the median still carries host jitter.
 */
template <typename Fn>
inline double
minOf(unsigned n, Fn &&sample)
{
    if (n == 0)
        n = 1;
    double best = static_cast<double>(sample());
    for (unsigned i = 1; i < n; ++i)
        best = std::min(best, static_cast<double>(sample()));
    return best;
}

/** Write the files requested via init() flags (idempotent). */
inline void
writeOutputs()
{
    auto &bench = detail::state();
    if (!bench.traceOut.empty()) {
        if (trace::writeChromeTrace(bench.traceOut))
            inform("%s: wrote trace to %s", bench.name.c_str(),
                   bench.traceOut.c_str());
    }
    if (!bench.metricsOut.empty()) {
        if (trace::writeMetrics(bench.metricsOut))
            inform("%s: wrote metrics to %s", bench.name.c_str(),
                   bench.metricsOut.c_str());
    }
}

/** Standard bench epilogue: emit outputs, summarize, and exit code. */
inline int
finish(const ShapeCheck &check)
{
    writeOutputs();
    return check.summarize() ? 0 : 1;
}

} // namespace wsp::bench
