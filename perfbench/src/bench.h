/**
 * @file
 * Shared plumbing of the repository benchmark: options, the result
 * every workload returns, clocks and order statistics.
 *
 * A workload sets itself up several times (set-up time is reported as
 * the median), warms up, then measures for the requested number of
 * seconds and checks its outputs. With tracing on it instead measures
 * half the time untraced and half traced, so the traced run can report
 * its own overhead next to the per-layer breakdown.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace wsp {
class ThreadPool;
}

namespace perfbench {

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".bench_out"; ///< trace files (traced runs only)
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload run hands back to main(). */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Record a failed output check (printed to stderr). */
    void fail(const std::string &what);
};

Result runServe(const Options &options, bool spill);
Result runCrashSweep(const Options &options);
Result runFleetStorm(const Options &options);

/** Monotonic clock. */
int64_t nowNs();
inline double nowSeconds() { return static_cast<double>(nowNs()) * 1e-9; }

/** Median of @p values (0 for an empty set). */
double median(std::vector<double> values);

/** Linear-interpolated quantile, 0 <= q <= 1 (0 for an empty set). */
double quantile(std::vector<double> values, double q);

/**
 * Host speed relative to the reference host, measured now.
 *
 * The benchmark shares its machine with other tenants, and their load
 * slows allocation-heavy, branchy code by up to ~1.8x for stretches of
 * seconds to minutes, while pure ALU and memory-latency loops barely
 * move. So every untraced run follows each short stretch of measured
 * work with a fixed probe of the same character (std::map and
 * std::unordered_map churn, vector resizes, std::function calls; about
 * 12 ms) and scales the stretch's times by
 *
 *     scale = kProbeRefSeconds / probe time
 *
 * before taking medians: figures read as time on the reference host in
 * its quiet state. The probe is benchmark code, so a change to the
 * library cannot move it.
 */
double hostScale();

/**
 * The same, with the probe run on every worker of @p pool at once and
 * the slowest taken: a threaded plane runs at its slowest worker's
 * pace.
 */
double hostScale(wsp::ThreadPool &pool);

/** Probe time on the reference host in its quiet state (README.md). */
constexpr double kProbeRefSeconds = 0.0125;

/** Process peak resident set size in MiB. */
double peakRssMiB();

/** Deterministic 64-bit mix of a seed and a tag (splitmix finalizer). */
uint64_t mixSeed(uint64_t seed, uint64_t tag);

} // namespace perfbench
