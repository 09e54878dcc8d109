/**
 * @file
 * Threaded serving throughput: the traffic plane's worker sweep.
 *
 * load::TrafficPlane drives deterministic per-worker op streams
 * (load::OpStream) through per-(producer, shard) SPSC rings into
 * applyShardBatch on a lock-striped 8-shard ShardedKvStore, at 1, 2,
 * 4 and 8 workers (and at --workers when that is not one of them).
 * Every run is checked, not just timed:
 *
 *  - exact equivalence: workers own disjoint key ranges, so the
 *    sequential replay of the same streams (runSequential) must reach
 *    the same counters, store size and content checksum;
 *  - determinism: a second run with the same seed into a fresh store
 *    must reproduce the batch result.
 *
 * Throughput and ring latency are recorded for the perf trajectory,
 * not gated: one short shot on a shared host is too noisy for an
 * absolute floor.
 *
 * Flags (recorded in BENCH_kv_throughput.json): --workers=N (the
 * worker count whose ring p50/p99 the record carries),
 * --read-ratio=F (fraction of gets), --zipf=THETA (0 = uniform).
 */

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "apps/shard_environment.h"
#include "bench/bench_util.h"
#include "load/traffic_plane.h"
#include "trace/stat_registry.h"
#include "util/thread_pool.h"

using namespace wsp;
using apps::ShardEnvironment;
using apps::ShardedKvStore;
using load::TrafficPlane;
using load::TrafficPlaneConfig;
using load::TrafficPlaneReport;

namespace {

constexpr unsigned kShards = 8;
constexpr uint64_t kPerShardCapacity = 4096;

/** A fresh sharded store plus the shard environments backing it. */
struct Rig
{
    std::vector<std::unique_ptr<ShardEnvironment>> envs;
    std::unique_ptr<ShardedKvStore> store;

    explicit Rig(const char *tag)
    {
        const uint64_t region =
            ShardedKvStore::regionBytes(kShards, kPerShardCapacity);
        std::vector<CacheModel *> caches;
        for (unsigned i = 0; i < kShards; ++i) {
            envs.push_back(std::make_unique<ShardEnvironment>(
                std::string("kvtp_") + tag + std::to_string(i), region));
            caches.push_back(&envs.back()->cache);
        }
        store = std::make_unique<ShardedKvStore>(
            std::span<CacheModel *const>(caches), 0, kPerShardCapacity);
    }
};

bool
sameResult(const apps::KvBatchResult &a, const apps::KvBatchResult &b)
{
    return a.puts == b.puts && a.putsRejected == b.putsRejected &&
           a.gets == b.gets && a.getHits == b.getHits &&
           a.getValueSum == b.getValueSum && a.erases == b.erases &&
           a.erasesHit == b.erasesHit;
}

} // namespace

int
main(int argc, char **argv)
{
    // Bench-specific flags come out of argv before bench::init sees
    // (and would warn about) them.
    unsigned workers = 8;
    double read_ratio = 0.4;
    double zipf_theta = 0.0;
    std::vector<char *> passthrough{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--workers=", 10) == 0)
            workers = static_cast<unsigned>(
                std::strtoul(argv[i] + 10, nullptr, 0));
        else if (std::strncmp(argv[i], "--read-ratio=", 13) == 0)
            read_ratio = std::strtod(argv[i] + 13, nullptr);
        else if (std::strncmp(argv[i], "--zipf=", 7) == 0)
            zipf_theta = std::strtod(argv[i] + 7, nullptr);
        else
            passthrough.push_back(argv[i]);
    }
    bench::init("kv_throughput", static_cast<int>(passthrough.size()),
                passthrough.data());
    WSP_CHECKF(workers >= 1 && workers <= 64, "--workers out of range");
    WSP_CHECKF(read_ratio >= 0.0 && read_ratio <= 1.0,
               "--read-ratio out of range");

    const uint64_t seed = bench::rngSeed(20260805);
    const uint64_t ops_per_worker = bench::fullRuns() ? 200000 : 40000;
    const auto get_permille =
        static_cast<uint32_t>(read_ratio * 1000.0 + 0.5);
    const uint32_t erase_permille =
        std::min<uint32_t>(100, (1000 - get_permille) / 2);
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());

    TrafficPlaneConfig base;
    base.opsPerWorker = ops_per_worker;
    base.keysPerWorker = 512;
    base.getPermille = get_permille;
    base.erasePermille = erase_permille;
    base.zipfTheta = zipf_theta;
    base.seed = seed;
    // Pinning helps only when the workers have real cores to keep.
    base.pinWorkers = cores >= workers;

    auto &stats = trace::StatRegistry::instance();

    // Worker sweep: the capacity curve.
    std::vector<unsigned> thread_counts = {1, 2, 4, 8};
    if (std::find(thread_counts.begin(), thread_counts.end(), workers) ==
        thread_counts.end()) {
        thread_counts.push_back(workers);
        std::sort(thread_counts.begin(), thread_counts.end());
    }
    Table sweep("Ring-dispatch KV throughput: 8 shards, SPSC rings (get " +
                std::to_string(get_permille) + " / erase " +
                std::to_string(erase_permille) + " permille)");
    sweep.setHeader({"threads", "ops", "wall (ms)", "ops/sec", "p50 (us)",
                     "p99 (us)", "stalls", "matches sequential"});
    std::vector<double> sweep_rates;
    double rings_p50_ns = 0.0;
    double rings_p99_ns = 0.0;
    bool all_equivalent = true;
    bool deterministic = true;
    for (unsigned threads : thread_counts) {
        TrafficPlaneConfig config = base;
        config.workers = threads;
        Rig rig("s");
        TrafficPlane plane(*rig.store, config);
        ThreadPool pool(threads);
        const TrafficPlaneReport run = plane.run(pool);
        const double p50 = run.latencyNs.percentile(50);
        const double p99 = run.latencyNs.percentile(99);
        if (threads == workers) {
            rings_p50_ns = p50;
            rings_p99_ns = p99;
        }

        // Disjoint key ranges make the sequential replay of the same
        // streams byte-equivalent, not just statistically close.
        Rig seq("q");
        const apps::KvBatchResult reference =
            plane.runSequential(*seq.store);
        const bool equivalent =
            sameResult(run.result, reference) &&
            rig.store->size() == seq.store->size() &&
            rig.store->checksum() == seq.store->checksum();
        all_equivalent = all_equivalent && equivalent;

        Rig again_rig("r");
        TrafficPlane again(*again_rig.store, config);
        deterministic = deterministic &&
                        sameResult(again.run(pool).result, run.result);

        sweep_rates.push_back(run.opsPerSec());
        sweep.addRow({std::to_string(threads), std::to_string(run.ops()),
                      formatDouble(run.wallSeconds * 1000.0, 2),
                      formatDouble(run.opsPerSec(), 0),
                      formatDouble(p50 / 1000.0, 1),
                      formatDouble(p99 / 1000.0, 1),
                      std::to_string(run.backpressureStalls),
                      equivalent ? "yes" : "NO"});
        const std::string prefix =
            "bench.kv_throughput.t" + std::to_string(threads);
        stats.gauge(prefix + ".ops_per_sec").set(run.opsPerSec());
        stats.gauge(prefix + ".ops")
            .set(static_cast<double>(run.ops()));
    }
    sweep.print();
    std::printf("\n(%u hardware threads)\n\n", cores);

    // Everything the trajectory compares lands in the bench record.
    bench::recordField("workers", workers);
    bench::recordField("read_ratio_permille", get_permille);
    bench::recordField("zipf_theta_permille",
                       static_cast<uint64_t>(zipf_theta * 1000.0 + 0.5));
    bench::recordField("hardware_threads", cores);
    bench::recordField("rings_p50_ns",
                       static_cast<uint64_t>(rings_p50_ns));
    bench::recordField("rings_p99_ns",
                       static_cast<uint64_t>(rings_p99_ns));

    AsciiChart chart("Ring dispatch vs worker threads", "threads",
                     "ops/sec");
    Series series{"rings", {}, {}};
    for (size_t i = 0; i < thread_counts.size(); ++i)
        series.add(thread_counts[i], sweep_rates[i]);
    chart.addSeries(series);
    chart.print();

    ShapeCheck check("Threaded KV serving");
    check.expectTrue("every thread count matches the sequential replay "
                     "exactly",
                     all_equivalent);
    check.expectTrue("same seed reproduces the same batch result",
                     deterministic);
    for (double rate : sweep_rates)
        check.expectTrue("positive throughput", rate > 0.0);
    return bench::finish(check);
}
