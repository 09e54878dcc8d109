/**
 * @file
 * Repository benchmark entry point.
 *
 *   wsp_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--out-dir DIR]
 *
 * Workloads: serve-hot, serve-spill, crash-sweep, fleet-storm (see
 * perfbench/README.md for what each stresses and why). The last line
 * of standard output is one JSON object:
 *
 *   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
 *
 * With --trace 0 the metrics are the end-to-end set; with --trace 1
 * they are the per-layer set, and the spans are written to
 * DIR/trace-<workload>-<seed>.json. Every metric of the set is printed
 * on every workload; a per-layer metric whose layer a workload does
 * not exercise reads 0.
 */

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <set>
#include <unordered_map>

#include "bench.h"
#include "spans.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace perfbench {

void
Result::fail(const std::string &what)
{
    correct = false;
    std::fprintf(stderr, "perfbench: output check failed: %s\n",
                 what.c_str());
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

namespace {

/** One run of the fixed probe, in seconds. */
double
probeSeconds()
{
    static std::atomic<uint64_t> sink{0};
    const int64_t start = nowNs();
    std::map<uint64_t, std::vector<uint8_t>> blobs;
    std::unordered_map<uint64_t, uint64_t> sizes;
    std::vector<std::function<uint64_t(uint64_t)>> mixers;
    for (uint64_t i = 0; i < 16; ++i)
        mixers.push_back([i](uint64_t x) { return x * (i + 3) ^ (x >> 7); });
    uint64_t h = 0x5753502d50524f42ull; // "WSP-PROB"
    uint64_t acc = 0;
    for (uint64_t i = 0; i < 45000; ++i) {
        h = h * 6364136223846793005ull + 1442695040888963407ull;
        const uint64_t key = (h >> 33) % 4096;
        std::vector<uint8_t> &blob = blobs[key];
        blob.resize(16 + ((h >> 20) & 255));
        blob[0] = static_cast<uint8_t>(h);
        sizes[key ^ i] += blob.size();
        if ((h >> 50) & 1)
            blobs.erase((key * 7) % 4096);
        acc += mixers[(h >> 40) & 15](acc + key);
        if (sizes.size() > 8192)
            sizes.clear();
    }
    sink += acc + blobs.size() + sizes.size();
    return static_cast<double>(nowNs() - start) * 1e-9;
}

} // namespace

double
hostScale()
{
    return kProbeRefSeconds / probeSeconds();
}

double
hostScale(wsp::ThreadPool &pool)
{
    std::vector<double> seconds(pool.threadCount());
    pool.runWorkers([&seconds](unsigned w) { seconds[w] = probeSeconds(); });
    return kProbeRefSeconds / *std::max_element(seconds.begin(), seconds.end());
}

double
peakRssMiB()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

uint64_t
mixSeed(uint64_t seed, uint64_t tag)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (tag + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace perfbench

namespace {

using perfbench::Metric;

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** The end-to-end set (--trace 0); mirrors BENCHMARK.json. */
constexpr MetricSpec kEndToEnd[] = {
    {"work_per_s", "1/s"},
    {"p50_us", "us"},
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
};

/** The per-layer set (--trace 1); mirrors BENCHMARK.json. */
constexpr MetricSpec kPerLayer[] = {
    {"load.gen_ns_per_op", "ns"},
    {"load.ring_ns_per_op", "ns"},
    {"load.dispatch_ns_per_op", "ns"},
    {"load.stalls_per_kop", "1/kop"},
    {"load.gen_lag_frac", "frac"},
    {"apps.seq_ns_per_op", "ns"},
    {"apps.apply_ns_per_op", "ns"},
    {"apps.get_hit_frac", "frac"},
    {"machine.writebacks_per_kop", "1/kop"},
    {"machine.dirty_lines", "count"},
    {"nvram.pages_allocated", "count"},
    {"crashsim.enumerate_ms", "ms"},
    {"core.build_us_per_point", "us"},
    {"core.run_us_per_point", "us"},
    {"nvram.capture_us_per_point", "us"},
    {"core.boot_us_per_point", "us"},
    {"crashsim.check_us_per_point", "us"},
    {"sim.events_per_point", "count"},
    {"sim.ns_per_event", "ns"},
    {"nvram.saved_kib_per_point", "KiB"},
    {"nvram.restored_kib_per_point", "KiB"},
    {"crashsim.wsp_recovery_frac", "frac"},
    {"core.save.sim_us", "us"},
    {"core.save.context_us", "us"},
    {"core.save.flush_us", "us"},
    {"core.save.marker_us", "us"},
    {"core.save.dirty_kib", "KiB"},
    {"core.restore.sim_ms", "ms"},
    {"core.restore.nvdimm_ms", "ms"},
    {"fleet.traffic_ms", "ms"},
    {"fleet.storm_ms", "ms"},
    {"fleet.settle_ms", "ms"},
    {"fleet.retries_per_kreq", "1/kreq"},
    {"fleet.timeouts_per_kreq", "1/kreq"},
    {"fleet.reject_frac", "frac"},
    {"fleet.repairs_per_storm", "count"},
    {"fleet.repair_kib_per_storm", "KiB"},
    {"fleet.wsp_recoveries", "count"},
    {"fleet.salvage_boots", "count"},
    {"fleet.backend_refills", "count"},
    {"fleet.power_restored_s", "s"},
    {"fleet.catchup_s", "s"},
    {"fleet.ttfc_sim_s", "s"},
    {"tail.p99_us", "us"},
    {"trace.overhead_frac", "frac"},
    {"trace.coverage_frac", "frac"},
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: wsp_perfbench --workload serve-hot|serve-spill|"
                 "crash-sweep|fleet-storm --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n");
}

bool
parseArgs(int argc, char **argv, perfbench::Options *options)
{
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return false;
        const char *value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            options->workload = value;
            haveWorkload = true;
        } else if (arg == "--seed") {
            options->seed = std::strtoull(value, &end, 0);
        } else if (arg == "--seconds") {
            options->seconds = std::strtod(value, &end);
        } else if (arg == "--trace") {
            options->trace = std::strtol(value, &end, 0) != 0;
        } else if (arg == "--out-dir") {
            options->outDir = value;
            continue;
        } else {
            return false;
        }
        if (arg != "--workload" && (end == value || *end != '\0'))
            return false;
    }
    return haveWorkload && options->seconds > 0.0 &&
           options->seconds <= 600.0;
}

/**
 * Order the workload's metrics as the set lists them, filling per-layer
 * metrics a workload does not exercise with 0. A missing end-to-end
 * metric, an unknown name or a non-finite value is an error.
 */
bool
canonicalize(std::vector<Metric> *metrics, bool trace)
{
    const MetricSpec *begin = trace ? std::begin(kPerLayer)
                                    : std::begin(kEndToEnd);
    const MetricSpec *end = trace ? std::end(kPerLayer) : std::end(kEndToEnd);
    std::vector<Metric> out;
    std::set<std::string> known;
    for (const MetricSpec *spec = begin; spec != end; ++spec) {
        known.insert(spec->name);
        auto it = std::find_if(
            metrics->begin(), metrics->end(),
            [spec](const Metric &m) { return m.name == spec->name; });
        if (it == metrics->end()) {
            if (!trace) {
                std::fprintf(stderr, "perfbench: metric %s missing\n",
                             spec->name);
                return false;
            }
            out.push_back({spec->name, 0.0, spec->unit});
            continue;
        }
        if (!std::isfinite(it->value) || it->unit != spec->unit) {
            std::fprintf(stderr, "perfbench: metric %s is %g %s\n",
                         spec->name, it->value, it->unit.c_str());
            return false;
        }
        out.push_back(*it);
    }
    for (const Metric &m : *metrics) {
        if (known.count(m.name) == 0) {
            std::fprintf(stderr, "perfbench: unknown metric %s\n",
                         m.name.c_str());
            return false;
        }
    }
    *metrics = std::move(out);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options options;
    if (!parseArgs(argc, argv, &options)) {
        usage();
        return 2;
    }

    // Library progress notes would drown the report; warnings stay.
    wsp::setLogLevel(wsp::LogLevel::Quiet);

    perfbench::Result result;
    if (options.workload == "serve-hot") {
        result = perfbench::runServe(options, false);
    } else if (options.workload == "serve-spill") {
        result = perfbench::runServe(options, true);
    } else if (options.workload == "crash-sweep") {
        result = perfbench::runCrashSweep(options);
    } else if (options.workload == "fleet-storm") {
        result = perfbench::runFleetStorm(options);
    } else {
        usage();
        return 2;
    }

    if (!canonicalize(&result.metrics, options.trace))
        return 1;

    if (options.trace) {
        mkdir(options.outDir.c_str(), 0755);
        const std::string path = options.outDir + "/trace-" +
                                 options.workload + "-" +
                                 std::to_string(options.seed) + ".json";
        if (!perfbench::Tracer::instance().writeChromeTrace(path)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        std::printf("spans written to %s\n", path.c_str());
    }

    for (const Metric &m : result.metrics)
        std::printf("%-32s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    for (size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric &m = result.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
    return 0;
}
