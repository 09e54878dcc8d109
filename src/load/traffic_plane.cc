#include "load/traffic_plane.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/logging.h"
#include "util/rng.h"

namespace wsp::load {

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

/**
 * Per-worker scratch and outcome. Everything a worker touches per op
 * lives here, preallocated before the clock starts, so the hot loop
 * never allocates. Slots are heap objects in a vector, but each
 * worker only ever touches its own; the trailing pad keeps the
 * outcome counters of neighbouring slots off a shared cache line.
 */
struct TrafficPlane::WorkerSlot
{
    std::vector<unsigned> ownedShards; ///< shards s with s % W == w
    std::vector<OpFrame> drainFrames;  ///< pop scratch (drainOps)
    std::vector<apps::KvOp> drainOps;  ///< apply scratch (drainOps)

    apps::KvBatchResult result;
    Histogram latencyNs;
    uint64_t stalls = 0;
    uint64_t consumed = 0;
    char pad[64] = {};
};

TrafficPlane::TrafficPlane(apps::ShardedKvStore &store,
                           TrafficPlaneConfig config)
    : store_(store), config_(config), shardCount_(store.shardCount())
{
    WSP_CHECK(config_.workers >= 1);
    WSP_CHECK(config_.ringFrames >= 2 &&
              (config_.ringFrames & (config_.ringFrames - 1)) == 0);
    WSP_CHECK(config_.burstOps >= 1 && config_.drainOps >= 1);

    // Ring matrix: producer-major, one SPSC ring per (producer,
    // shard) pair, frames and ring headers all carved from the arena.
    rings_.reserve(static_cast<size_t>(config_.workers) * shardCount_);
    for (unsigned p = 0; p < config_.workers; ++p) {
        for (unsigned s = 0; s < shardCount_; ++s) {
            auto *frames = arena_.allocate<OpFrame>(config_.ringFrames);
            auto *ring = static_cast<SpscRing<OpFrame> *>(arena_.allocate(
                sizeof(SpscRing<OpFrame>), alignof(SpscRing<OpFrame>)));
            rings_.push_back(new (ring)
                                 SpscRing<OpFrame>(frames,
                                                   config_.ringFrames));
        }
    }

    slots_.resize(config_.workers);
    for (unsigned w = 0; w < config_.workers; ++w) {
        WorkerSlot &slot = slots_[w];
        for (unsigned s = w; s < shardCount_; s += config_.workers)
            slot.ownedShards.push_back(s);
        slot.drainFrames.resize(config_.drainOps);
        slot.drainOps.resize(config_.drainOps);
    }
}

// SpscRing is trivially destructible apart from its atomics, and the
// arena owns the storage; nothing to tear down per ring.
TrafficPlane::~TrafficPlane() = default;

OpStream
TrafficPlane::makeStream(unsigned worker) const
{
    OpStreamConfig sc;
    sc.keyCount = config_.keysPerWorker;
    sc.keyLo = config_.disjointKeys
                   ? 1 + static_cast<uint64_t>(worker) * config_.keysPerWorker
                   : 1;
    sc.getPermille = config_.getPermille;
    sc.erasePermille = config_.erasePermille;
    sc.zipfTheta = config_.zipfTheta;
    return OpStream(sc, Rng(config_.seed).stream(worker));
}

uint64_t
TrafficPlane::drainOwnedShards(unsigned /*worker*/, WorkerSlot &slot)
{
    uint64_t applied = 0;
    for (unsigned s : slot.ownedShards) {
        for (unsigned p = 0; p < config_.workers; ++p) {
            const size_t n = ring(p, s).tryPop(
                std::span<OpFrame>(slot.drainFrames.data(),
                                   config_.drainOps));
            if (n == 0)
                continue;
            for (size_t i = 0; i < n; ++i)
                slot.drainOps[i] = slot.drainFrames[i].op;
            slot.result.merge(store_.applyShardBatch(
                s, std::span<const apps::KvOp>(slot.drainOps.data(), n)));
            // One clock read per drained run: every frame in the run
            // completes "now". Intended time rode in on the frame, so
            // queueing delay (including back-pressure stalls upstream)
            // is part of the recorded latency. Frames arrive in
            // producer bursts sharing one intended stamp, so runs of
            // equal stamps collapse into weighted adds.
            const int64_t done = nowNs();
            size_t i = 0;
            while (i < n) {
                const int64_t intended = slot.drainFrames[i].intendedNs;
                size_t j = i + 1;
                while (j < n && slot.drainFrames[j].intendedNs == intended)
                    ++j;
                const int64_t waited = std::max<int64_t>(done - intended, 0);
                slot.latencyNs.add(static_cast<uint64_t>(waited), j - i);
                i = j;
            }
            slot.consumed += n;
            applied += n;
        }
    }
    return applied;
}

TrafficPlaneReport
TrafficPlane::run(ThreadPool &pool)
{
    WSP_CHECKF(pool.threadCount() == config_.workers,
               "pool has %u threads, config wants %u", pool.threadCount(),
               config_.workers);
    for (WorkerSlot &slot : slots_) {
        slot.result = apps::KvBatchResult{};
        // reset() keeps the buckets earlier runs grew, so a repeated
        // run's drain path allocates nothing.
        slot.latencyNs.reset();
        slot.stalls = 0;
        slot.consumed = 0;
    }
    producersDone_.store(0, std::memory_order_relaxed);
    if (config_.pinWorkers)
        pool.pinToCores();

    const unsigned workers = config_.workers;
    const double nsPerOp = config_.pacedOpsPerSec > 0.0
                               ? 1e9 / config_.pacedOpsPerSec
                               : 0.0;
    const int64_t wallStart = nowNs();

    pool.runWorkers([&](unsigned w) {
        WorkerSlot &slot = slots_[w];
        OpStream stream = makeStream(w);
        const uint64_t total = config_.opsPerWorker;
        const int64_t start = nowNs();
        uint64_t produced = 0;
        while (produced < total) {
            const uint64_t burst = std::min<uint64_t>(
                config_.burstOps, total - produced);
            int64_t intended;
            if (nsPerOp > 0.0) {
                // Open loop: the schedule, not the server, sets the
                // intended time. A slow server makes the wait loop
                // vanish and latency grow — never the other way round.
                intended = start + static_cast<int64_t>(
                                       static_cast<double>(produced) *
                                       nsPerOp);
                while (nowNs() < intended) {
                    if (slot.ownedShards.empty() ||
                        drainOwnedShards(w, slot) == 0)
                        std::this_thread::yield();
                }
            } else {
                intended = nowNs(); // one stamp per burst
            }
            for (uint64_t i = 0; i < burst; ++i) {
                const OpFrame frame{stream.next(), intended};
                SpscRing<OpFrame> &target =
                    ring(w, store_.shardOf(frame.op.key));
                while (!target.tryPush(frame)) {
                    // Back-pressure: the consumer is behind. Spend
                    // the stall draining our own shards — that is
                    // also what makes a full ring unable to deadlock
                    // the worker graph.
                    ++slot.stalls;
                    if (slot.ownedShards.empty() ||
                        drainOwnedShards(w, slot) == 0)
                        std::this_thread::yield();
                }
            }
            produced += burst;
            if (!slot.ownedShards.empty())
                drainOwnedShards(w, slot);
        }
        // Release-publish our completed stream, then keep consuming
        // until every producer is done AND every owned ring reads
        // empty. The release/acquire pair on producersDone_ makes the
        // final tail positions visible before the emptiness check can
        // succeed, so no frame is abandoned.
        producersDone_.fetch_add(1, std::memory_order_release);
        if (slot.ownedShards.empty())
            return;
        for (;;) {
            if (drainOwnedShards(w, slot) == 0)
                std::this_thread::yield(); // single-core friendliness
            if (producersDone_.load(std::memory_order_acquire) != workers)
                continue;
            bool empty = true;
            for (unsigned s : slot.ownedShards) {
                for (unsigned p = 0; p < workers && empty; ++p)
                    empty = ring(p, s).emptyConsumer();
                if (!empty)
                    break;
            }
            if (empty)
                return;
        }
    });

    TrafficPlaneReport report;
    report.wallSeconds =
        static_cast<double>(nowNs() - wallStart) * 1e-9;
    for (const WorkerSlot &slot : slots_) {
        report.result.merge(slot.result);
        report.latencyNs.merge(slot.latencyNs);
        report.backpressureStalls += slot.stalls;
    }
    return report;
}

apps::KvBatchResult
TrafficPlane::runSequential(apps::ShardedKvStore &store) const
{
    apps::KvBatchResult merged;
    std::vector<apps::KvOp> batch(config_.burstOps);
    for (unsigned w = 0; w < config_.workers; ++w) {
        OpStream stream = makeStream(w);
        uint64_t produced = 0;
        while (produced < config_.opsPerWorker) {
            const uint64_t burst = std::min<uint64_t>(
                config_.burstOps, config_.opsPerWorker - produced);
            std::span<apps::KvOp> run(batch.data(), burst);
            stream.fill(run);
            merged.merge(store.applyBatch(run));
            produced += burst;
        }
    }
    return merged;
}

} // namespace wsp::load
