/**
 * @file
 * serve-hot and serve-spill: the threaded serving path.
 *
 * The rig is built from the machine and nvram layers directly: per
 * shard one EventQueue, one NvdimmModule spanning the striped region,
 * an NvramSpace over it and a 2 MiB CacheModel, with an
 * apps::ShardedKvStore over the eight caches. load::TrafficPlane drives
 * it in two phases:
 *
 *  - capacity: closed loop, min(4, nproc) workers each pushing 256-op
 *    bursts as fast as ring back-pressure allows, in whole rounds that
 *    alternate between two stream seeds;
 *  - latency: open loop, min(2, nproc) paced workers at a fixed
 *    absolute offered rate, about a tenth of capacity on the reference
 *    host (a fifth of what the two paced workers alone sustain), so a
 *    slowed host does not push the plane towards saturation; latency
 *    runs from each op's intended send time.
 *
 * In untraced runs every round is followed by hostScale() on the
 * round's own pool, and its throughput and latency are scaled by it;
 * the end-to-end figures are medians over rounds.
 *
 * Every round of a plane replays the same per-worker streams over
 * disjoint per-worker key ranges, so the store reaches a fixed point:
 * after one round of each plane, every later round of a plane starts
 * from the same state and must return the same result. The check
 * rebuilds the rig and replays the rounds up to that point through
 * TrafficPlane::runSequential; the threaded results and the final store
 * checksum must equal the replay's.
 */

#include <thread>

#include "apps/kv_store.h"
#include "bench.h"
#include "load/traffic_plane.h"
#include "machine/cache.h"
#include "nvram/nvdimm.h"
#include "nvram/nvram_space.h"
#include "sim/event_queue.h"
#include "spans.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

using wsp::CacheModel;
using wsp::apps::KvBatchResult;
using wsp::apps::KvOp;
using wsp::apps::ShardedKvStore;
using wsp::load::TrafficPlane;
using wsp::load::TrafficPlaneConfig;
using wsp::load::TrafficPlaneReport;

constexpr unsigned kShards = 8;
constexpr int kSetups = 5;

/** Workload definition of one serve workload. */
struct ServeShape
{
    const char *name;
    uint64_t perShardSlots;
    uint64_t keys;          ///< key universe [1, keys]
    bool prefill;           ///< put every key during set-up
    uint32_t getPermille;
    uint32_t erasePermille; ///< rest are puts
    uint64_t capacityOps;   ///< ops per capacity round (all workers)
    double offeredOpsPerSec; ///< latency phase, all paced workers
    uint64_t latencyOps;    ///< ops per latency round (all workers)
};

// 8 x 4096 slots is 64 KiB per shard: the whole store sits in the
// modelled 2 MiB cache, so nvram is never touched.
constexpr ServeShape kHot = {"serve-hot", 4096,   4 * 512,  false, 400,
                             100,         4000000, 8.0e6, 800000};

// 8 x 262144 slots is 4 MiB per shard, twice the modelled cache, and
// 800k prefilled keys keep reads falling through to SparseMemory, and
// the two capacity streams' writes evict each other's dirty lines.
constexpr ServeShape kSpill = {"serve-spill", 262144, 800000, true, 900,
                               50,            6000000, 2.5e6,  250000};

/** One shard's private machine slice, built from the public layers. */
struct ShardMachine
{
    ShardMachine(const std::string &name, uint64_t bytes)
        : dimm(queue, name, dimmConfig(bytes)),
          cache(name + ".cache", 2 * wsp::kMiB, wsp::CacheTiming{}, space)
    {
        space.addModule(dimm);
    }

    static wsp::NvdimmConfig dimmConfig(uint64_t bytes)
    {
        wsp::NvdimmConfig config;
        config.capacityBytes = (bytes + wsp::kMiB - 1) / wsp::kMiB * wsp::kMiB;
        return config;
    }

    wsp::EventQueue queue;
    wsp::NvdimmModule dimm;
    wsp::NvramSpace space;
    CacheModel cache;
};

/** The sharded store plus the machines backing it. */
struct Rig
{
    std::vector<std::unique_ptr<ShardMachine>> shards;
    std::unique_ptr<ShardedKvStore> store;

    explicit Rig(const ServeShape &shape)
    {
        const uint64_t region =
            ShardedKvStore::regionBytes(kShards, shape.perShardSlots);
        std::vector<CacheModel *> caches;
        for (unsigned i = 0; i < kShards; ++i) {
            shards.push_back(std::make_unique<ShardMachine>(
                "perfbench.shard" + std::to_string(i), region));
            caches.push_back(&shards.back()->cache);
        }
        store = std::make_unique<ShardedKvStore>(
            std::span<CacheModel *const>(caches), 0, shape.perShardSlots);
    }

    uint64_t dirtyLines() const
    {
        uint64_t lines = 0;
        for (const auto &shard : shards)
            lines += shard->cache.dirtyLines();
        return lines;
    }

    uint64_t pagesAllocated() const
    {
        uint64_t pages = 0;
        for (const auto &shard : shards)
            pages += shard->dimm.dram().allocatedPages();
        return pages;
    }
};

/** Put every key of the universe, with seed-derived values. */
bool
prefill(Rig &rig, const ServeShape &shape, uint64_t seed)
{
    if (!shape.prefill)
        return true;
    std::vector<KvOp> batch;
    batch.reserve(4096);
    uint64_t landed = 0;
    for (uint64_t key = 1; key <= shape.keys; ++key) {
        batch.push_back(KvOp::put(key, mixSeed(seed, key)));
        if (batch.size() == batch.capacity() || key == shape.keys) {
            landed += rig.store->applyBatch(batch).puts;
            batch.clear();
        }
    }
    return landed == shape.keys;
}

/**
 * Finer latency buckets than the plane's default where the config
 * still offers the knobs (50 ns over 0-5 ms), so p50 is resolved.
 */
template <typename Config>
void
setLatencyRange(Config &config)
{
    if constexpr (requires { config.latencyHiMs; config.latencyBuckets; }) {
        config.latencyHiMs = 5.0;
        config.latencyBuckets = 100000;
    }
}

TrafficPlaneConfig
planeConfig(const ServeShape &shape, uint64_t seed, unsigned workers,
            bool paced, uint64_t stream)
{
    TrafficPlaneConfig config;
    config.workers = workers;
    config.opsPerWorker =
        (paced ? shape.latencyOps : shape.capacityOps) / workers;
    config.keysPerWorker = shape.keys / workers;
    config.disjointKeys = true;
    config.getPermille = shape.getPermille;
    config.erasePermille = shape.erasePermille;
    config.zipfTheta = 0.0;
    config.seed = mixSeed(seed, stream);
    config.burstOps = 256;
    config.pacedOpsPerSec =
        paced ? shape.offeredOpsPerSec / static_cast<double>(workers) : 0.0;
    setLatencyRange(config);
    return config;
}

bool
sameResult(const KvBatchResult &a, const KvBatchResult &b)
{
    return a.puts == b.puts && a.putsRejected == b.putsRejected &&
           a.gets == b.gets && a.getHits == b.getHits &&
           a.getValueSum == b.getValueSum && a.erases == b.erases &&
           a.erasesHit == b.erasesHit;
}

/** Results of one kind of round: the first two kept for the replay
 *  check, every later one compared with the second (the fixed point). */
struct RoundLog
{
    std::vector<KvBatchResult> results;
    bool drifted = false;

    void add(const KvBatchResult &result)
    {
        if (results.size() < 2)
            results.push_back(result);
        else if (!sameResult(result, results[1]))
            drifted = true;
    }
};

/**
 * The capacity phase's two planes over one store, with different
 * stream seeds, run in turn. Each writes a different key set, so in
 * serve-spill every round evicts lines the other round dirtied, while
 * the store still reaches a fixed point after one pair: from the
 * second pair on, each plane's rounds start from the same state.
 */
struct CapacityPair
{
    std::vector<TrafficPlaneConfig> configs;
    std::vector<std::unique_ptr<TrafficPlane>> planes;
    std::vector<RoundLog> logs;

    void build(ShardedKvStore &store)
    {
        planes.clear();
        for (const TrafficPlaneConfig &config : configs)
            planes.push_back(std::make_unique<TrafficPlane>(store, config));
    }
};

/** What one measurement phase saw. */
struct Phase
{
    bool normalize = false;     ///< scale each round by hostScale(pool)
    std::vector<double> rates;  ///< per capacity round
    std::vector<double> p50Us;  ///< per latency round
    std::vector<double> p99Us;  ///< per latency round
    std::vector<double> lagFrac;
    uint64_t latencySamples = 0;
    uint64_t ops = 0;
    uint64_t capacityOps = 0;
    double capacityWallS = 0.0;
    uint64_t rejected = 0;
    uint64_t stalls = 0;
    uint64_t gets = 0;
    uint64_t getHits = 0;

    void count(const TrafficPlaneReport &report)
    {
        ops += report.ops();
        rejected += report.result.putsRejected;
        stalls += report.backpressureStalls;
        gets += report.result.gets;
        getHits += report.result.getHits;
    }
};

/** Capacity rounds of the two streams in turn, in whole pairs. */
void
capacityRounds(CapacityPair &cap, wsp::ThreadPool &pool, double budget,
               Phase *phase)
{
    const double until = nowSeconds() + budget;
    do {
        for (size_t i = 0; i < cap.planes.size(); ++i) {
            TrafficPlaneReport report;
            {
                Span span("load.TrafficPlane::run");
                report = cap.planes[i]->run(pool);
            }
            cap.logs[i].add(report.result);
            phase->count(report);
            const double scale = phase->normalize ? hostScale(pool) : 1.0;
            phase->rates.push_back(report.opsPerSec() / scale);
            phase->capacityOps += report.ops();
            phase->capacityWallS += report.wallSeconds;
        }
    } while (nowSeconds() < until);
}

void
latencyRounds(TrafficPlane &plane, wsp::ThreadPool &pool, double budget,
              RoundLog *log, Phase *phase)
{
    const TrafficPlaneConfig &config = plane.config();
    const double scheduledS = static_cast<double>(config.opsPerWorker) /
                              config.pacedOpsPerSec;
    const double until = nowSeconds() + budget;
    do {
        TrafficPlaneReport report;
        {
            Span span("load.TrafficPlane::run(paced)");
            report = plane.run(pool);
        }
        log->add(report.result);
        phase->count(report);
        const double scale = phase->normalize ? hostScale(pool) : 1.0;
        phase->p50Us.push_back(report.latencyNs.percentile(50) * 1e-3 *
                               scale);
        phase->p99Us.push_back(report.latencyNs.percentile(99) * 1e-3 *
                               scale);
        phase->latencySamples += report.latencyNs.total();
        phase->lagFrac.push_back((report.wallSeconds - scheduledS) /
                                 scheduledS);
    } while (nowSeconds() < until);
}

/**
 * Rebuild the rig and replay the same rounds sequentially; compare the
 * threaded results and final store state. Returns the replayed ops and
 * adds every mismatch to @p result.
 */
uint64_t
checkAgainstReplay(const ServeShape &shape, uint64_t seed,
                   const CapacityPair &cap,
                   const TrafficPlaneConfig &latConfig,
                   const RoundLog &latLog, uint64_t size, uint64_t checksum,
                   Result *result)
{
    std::unique_ptr<Rig> reference;
    {
        Span span("apps.ShardedKvStore::applyBatch(prefill)");
        reference = std::make_unique<Rig>(shape);
        if (!prefill(*reference, shape, seed))
            result->fail("replay prefill rejected puts");
    }
    CapacityPair replay;
    replay.configs = cap.configs;
    replay.build(*reference->store);
    TrafficPlane latPlane(*reference->store, latConfig);
    uint64_t replayed = 0;
    const auto replayRound = [&](const TrafficPlane &plane,
                                 const KvBatchResult &threaded,
                                 const std::string &what) {
        Span span("apps.TrafficPlane::runSequential");
        const KvBatchResult expected =
            plane.runSequential(*reference->store);
        replayed += expected.ops();
        if (!sameResult(threaded, expected))
            result->fail(what + " differs from the sequential replay");
    };
    for (size_t round = 0; round < 2; ++round)
        for (size_t i = 0; i < replay.planes.size(); ++i)
            replayRound(*replay.planes[i], cap.logs[i].results.at(round),
                        "capacity stream " + std::to_string(i) + " round " +
                            std::to_string(round + 1));
    for (size_t round = 0; round < latLog.results.size(); ++round)
        replayRound(latPlane, latLog.results[round],
                    "latency round " + std::to_string(round + 1));
    for (const RoundLog &log : cap.logs)
        if (log.drifted)
            result->fail("a repeated capacity round returned a different "
                         "result");
    if (latLog.drifted)
        result->fail("a repeated latency round returned a different result");
    Span span("apps.ShardedKvStore::checksum");
    if (reference->store->size() != size ||
        reference->store->checksum() != checksum)
        result->fail("store state differs from the sequential replay");
    return replayed;
}

} // namespace

Result
runServe(const Options &options, bool spill)
{
    const ServeShape &shape = spill ? kSpill : kHot;
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    const unsigned capWorkers = std::min(4u, cores);
    const unsigned latWorkers = std::min(2u, cores);
    CapacityPair cap;
    cap.configs = {planeConfig(shape, options.seed, capWorkers, false, 1),
                   planeConfig(shape, options.seed, capWorkers, false, 3)};
    const TrafficPlaneConfig &capConfig = cap.configs.front();
    const TrafficPlaneConfig latConfig =
        planeConfig(shape, options.seed, latWorkers, true, 2);
    wsp::ThreadPool capPool(capWorkers);
    wsp::ThreadPool latPool(latWorkers);
    Result result;
    RoundLog latLog;

    // Set-up: rig build, prefill and one warm-up round of each capacity
    // stream, several times; the last rig is the one measured.
    std::vector<double> setups;
    std::unique_ptr<TrafficPlane> latPlane;
    std::unique_ptr<Rig> rig;
    std::vector<KvBatchResult> warm(cap.configs.size());
    for (int i = 0; i < kSetups; ++i) {
        cap.planes.clear();
        latPlane.reset();
        rig.reset();
        const double start = nowSeconds();
        rig = std::make_unique<Rig>(shape);
        if (!prefill(*rig, shape, options.seed))
            result.fail("prefill rejected puts");
        cap.build(*rig->store);
        latPlane = std::make_unique<TrafficPlane>(*rig->store, latConfig);
        for (size_t p = 0; p < cap.planes.size(); ++p)
            warm[p] = cap.planes[p]->run(capPool).result;
        setups.push_back((nowSeconds() - start) * hostScale(capPool));
    }
    cap.logs.resize(cap.planes.size());
    for (size_t p = 0; p < cap.planes.size(); ++p)
        cap.logs[p].add(warm[p]);

    // Traced runs first measure capacity untraced, for the overhead.
    Tracer &tracer = Tracer::instance();
    Phase plain;
    if (options.trace)
        capacityRounds(cap, capPool, options.seconds * 0.25, &plain);

    std::vector<uint64_t> writebacks(kShards * 8, 0);
    std::unique_ptr<Span> root;
    if (options.trace) {
        tracer.setEnabled(true);
        root = std::make_unique<Span>("serve");
        // Count write-backs per shard; each cache is touched only by
        // its shard's owning worker during a round. Slots sit a cache
        // line apart.
        for (unsigned s = 0; s < kShards; ++s) {
            uint64_t *slot = &writebacks[s * 8];
            rig->shards[s]->cache.setWritebackObserver(
                [slot](uint64_t, bool lost) {
                    if (!lost)
                        ++*slot;
                });
        }
    }

    Phase phase;
    phase.normalize = !options.trace;
    const double share = options.trace ? 0.25 : 0.5;
    capacityRounds(cap, capPool, options.seconds * share, &phase);
    uint64_t writebackCount = 0;
    for (unsigned s = 0; s < kShards; ++s) {
        rig->shards[s]->cache.setWritebackObserver(nullptr);
        writebackCount += writebacks[s * 8];
    }
    latencyRounds(*latPlane, latPool, options.seconds * share, &latLog,
                  &phase);
    const double peakRss = peakRssMiB();
    const uint64_t dirtyLines = rig->dirtyLines();
    const uint64_t pages = rig->pagesAllocated();
    uint64_t size = 0;
    uint64_t checksum = 0;
    {
        Span span("apps.ShardedKvStore::checksum");
        size = rig->store->size();
        checksum = rig->store->checksum();
    }

    // The generator and the ring, each measured alone on this thread.
    const uint64_t roundOps = capConfig.opsPerWorker * capWorkers;
    double genNs = 0.0;
    double ringNs = 0.0;
    if (options.trace) {
        uint64_t sink = 0;
        int64_t start = nowNs();
        {
            Span span("load.OpStream::next");
            for (unsigned w = 0; w < capWorkers; ++w) {
                wsp::load::OpStream stream = cap.planes.front()->makeStream(w);
                for (uint64_t i = 0; i < capConfig.opsPerWorker; ++i)
                    sink += stream.next().key;
            }
        }
        genNs = static_cast<double>(nowNs() - start) /
                static_cast<double>(roundOps);

        std::vector<wsp::load::OpFrame> storage(capConfig.ringFrames);
        wsp::load::SpscRing<wsp::load::OpFrame> ring(storage.data(),
                                                     storage.size());
        std::vector<wsp::load::OpFrame> burst(capConfig.burstOps);
        for (size_t i = 0; i < burst.size(); ++i)
            burst[i].op = KvOp::get(i + 1);
        uint64_t moved = 0;
        start = nowNs();
        {
            Span span("load.SpscRing::tryPush+tryPop");
            while (moved < roundOps) {
                moved += ring.tryPush(
                    std::span<const wsp::load::OpFrame>(burst));
                sink += ring.tryPop(std::span<wsp::load::OpFrame>(burst));
            }
        }
        ringNs = static_cast<double>(nowNs() - start) /
                 static_cast<double>(moved);
        if (sink == 0)
            std::printf("(empty streams)\n");
    }

    const int64_t replayStart = nowNs();
    const uint64_t replayed =
        checkAgainstReplay(shape, options.seed, cap, latConfig, latLog, size,
                           checksum, &result);
    const double checkMs = static_cast<double>(nowNs() - replayStart) * 1e-6;

    double applyNs = 0.0;
    if (options.trace) {
        // applyShardBatch alone: one more capacity round, routed per
        // shard up front and applied in drain-sized runs. It runs on
        // the measured rig after the checks, so it changes nothing
        // that is compared.
        std::vector<std::vector<KvOp>> perShard(kShards);
        {
            Span span("load.OpStream::next(route)");
            for (unsigned w = 0; w < capWorkers; ++w) {
                wsp::load::OpStream stream = cap.planes.front()->makeStream(w);
                for (uint64_t i = 0; i < capConfig.opsPerWorker; ++i) {
                    const KvOp op = stream.next();
                    perShard[rig->store->shardOf(op.key)].push_back(op);
                }
            }
        }
        const int64_t start = nowNs();
        {
            Span span("apps.ShardedKvStore::applyShardBatch");
            for (unsigned s = 0; s < kShards; ++s) {
                const std::vector<KvOp> &ops = perShard[s];
                for (size_t i = 0; i < ops.size(); i += capConfig.drainOps) {
                    const size_t n =
                        std::min(capConfig.drainOps, ops.size() - i);
                    rig->store->applyShardBatch(
                        s, std::span<const KvOp>(ops.data() + i, n));
                }
            }
        }
        applyNs = static_cast<double>(nowNs() - start) /
                  static_cast<double>(roundOps);
        root.reset();
        tracer.setEnabled(false);
    }

    result.attempted = plain.ops + phase.ops;
    result.failed = plain.rejected + phase.rejected;
    if (result.failed > 0)
        result.fail(std::to_string(result.failed) + " puts rejected");

    std::printf("%s: %u capacity workers, %u paced workers offered %.3g "
                "ops/s, %zu capacity rounds, %zu latency rounds with %llu "
                "latency samples, check replayed %llu ops in %.0f ms\n",
                shape.name, capWorkers, latWorkers, shape.offeredOpsPerSec,
                phase.rates.size(), phase.p50Us.size(),
                static_cast<unsigned long long>(phase.latencySamples),
                static_cast<unsigned long long>(replayed), checkMs);

    if (!options.trace) {
        result.add("work_per_s", median(phase.rates), "1/s");
        result.add("p50_us", median(phase.p50Us), "us");
        result.add("setup_s", median(setups), "s");
        result.add("peak_rss_mib", peakRss, "MiB");
        return result;
    }

    const double kops = static_cast<double>(phase.ops) * 1e-3;
    const double seqNs = tracer.totalMs("apps.TrafficPlane::runSequential") *
                         1e6 / static_cast<double>(replayed);
    const double dispatchNs =
        static_cast<double>(capWorkers) * phase.capacityWallS * 1e9 /
            static_cast<double>(phase.capacityOps) -
        seqNs;
    tracer.printTable(stdout, shape.name, "serve");
    result.add("load.gen_ns_per_op", genNs, "ns");
    result.add("load.ring_ns_per_op", ringNs, "ns");
    result.add("load.dispatch_ns_per_op", dispatchNs, "ns");
    result.add("load.stalls_per_kop",
               static_cast<double>(phase.stalls) / kops, "1/kop");
    result.add("load.gen_lag_frac", median(phase.lagFrac), "frac");
    result.add("apps.seq_ns_per_op", seqNs, "ns");
    result.add("apps.apply_ns_per_op", applyNs, "ns");
    result.add("apps.get_hit_frac",
               static_cast<double>(phase.getHits) /
                   static_cast<double>(std::max<uint64_t>(1, phase.gets)),
               "frac");
    result.add("machine.writebacks_per_kop",
               static_cast<double>(writebackCount) /
                   (static_cast<double>(phase.capacityOps) * 1e-3),
               "1/kop");
    result.add("machine.dirty_lines", static_cast<double>(dirtyLines),
               "count");
    result.add("nvram.pages_allocated", static_cast<double>(pages), "count");
    result.add("tail.p99_us", median(phase.p99Us), "us");
    result.add("trace.overhead_frac",
               median(plain.rates) / median(phase.rates) - 1.0, "frac");
    result.add("trace.coverage_frac", tracer.coverage("serve"), "frac");
    return result;
}

} // namespace perfbench
