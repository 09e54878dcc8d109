/**
 * @file
 * Threaded traffic plane: open-loop load generation into per-shard
 * submission rings, drained by shard-owning consumers into batched
 * store application.
 *
 * This is the serving tier's front door (DESIGN.md §15). The fleet
 * and service layers previously *modeled* client traffic as analytic
 * arrivals; this plane pushes real operations from real threads:
 *
 *  - W pool workers each run a deterministic OpStream
 *    (Rng::stream(w), disjoint or shared key ranges, uniform or
 *    Zipfian popularity).
 *  - Every (producer, shard) pair is connected by an SPSC ring of
 *    fixed KvOp frames carved from one util::Arena at construction —
 *    the steady-state request path allocates nothing: no per-request
 *    std::function, no queue nodes, no batch vectors.
 *  - Shard s is owned by worker s mod W. Each worker alternates
 *    producing its stream (routing ops by ShardedKvStore::shardOf at
 *    enqueue time) and draining the rings of its owned shards, so a
 *    run is already grouped per shard and applies through
 *    applyShardBatch without the counting sort
 *    ShardedKvStore::applyBatch pays.
 *  - Back-pressure: a full ring never drops or blocks on a condvar —
 *    the producer counts the stall and spends the wait draining its
 *    own shards (or yielding when it owns none), which is also what
 *    makes the scheme deadlock-free on any core count.
 *  - Latency is recorded coordinated-omission-safely: the *intended*
 *    time of an op comes from the pacing schedule (or the burst
 *    stamp in unpaced mode), never from when the op actually got
 *    enqueued, so a stalled server inflates the tail instead of
 *    hiding it. Completion is stamped once per drained batch; each
 *    worker records into its own Histogram and the plane merges them
 *    (Histogram::merge) at the end.
 *
 * runSequential() replays the same streams on one thread; the tests
 * hold every threaded run to it exactly.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "apps/kv_store.h"
#include "load/op_stream.h"
#include "load/spsc_ring.h"
#include "util/arena.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace wsp::load {

/** One queued request: the op plus its schedule-intended time. */
struct OpFrame
{
    apps::KvOp op;
    int64_t intendedNs = 0;
};

/** Shape of one traffic-plane run. */
struct TrafficPlaneConfig
{
    unsigned workers = 4;          ///< producer (and consumer) threads
    uint64_t opsPerWorker = 100000;
    uint64_t keysPerWorker = 512;
    bool disjointKeys = true;      ///< private key ranges (exact equiv)
    uint32_t getPermille = 400;
    uint32_t erasePermille = 100;  ///< remainder are puts
    double zipfTheta = 0.0;        ///< 0 = uniform
    uint64_t seed = 42;

    size_t ringFrames = 2048;      ///< per (producer, shard) ring
    size_t burstOps = 256;         ///< producer generation burst
    size_t drainOps = 512;         ///< max frames per consumer batch
    double pacedOpsPerSec = 0.0;   ///< open-loop arrival rate; 0 = max
    bool pinWorkers = false;       ///< pin pool threads to cores
};

/** Outcome of a run, merged across workers in worker order. */
struct TrafficPlaneReport
{
    apps::KvBatchResult result;
    double wallSeconds = 0.0;
    uint64_t backpressureStalls = 0; ///< full-ring push attempts
    Histogram latencyNs;

    uint64_t ops() const { return result.ops(); }
    double opsPerSec() const
    {
        return wallSeconds > 0.0 ? static_cast<double>(ops()) / wallSeconds
                                 : 0.0;
    }
};

/**
 * The plane. Construction wires the ring matrix over an arena; run()
 * drives one full load through the store (repeated runs continue
 * mutating it).
 */
class TrafficPlane
{
  public:
    TrafficPlane(apps::ShardedKvStore &store, TrafficPlaneConfig config);
    ~TrafficPlane(); // defined where WorkerSlot is complete

    const TrafficPlaneConfig &config() const { return config_; }

    /** The rings plane described above. @p pool must have exactly
     *  config.workers threads. */
    TrafficPlaneReport run(ThreadPool &pool);

    /**
     * Sequential replay of the same per-worker streams (worker 0
     * fully, then worker 1, ...) into @p store — the equivalence
     * reference for the threaded plane. In disjoint-keys mode the
     * merged counters and final store state match run()'s exactly.
     */
    apps::KvBatchResult runSequential(apps::ShardedKvStore &store) const;

    /** Per-worker stream, as run() and the replay build it. */
    OpStream makeStream(unsigned worker) const;

  private:
    struct WorkerSlot; // per-worker scratch + outcome, cache separated

    SpscRing<OpFrame> &ring(unsigned producer, unsigned shard)
    {
        return *rings_[producer * shardCount_ + shard];
    }

    /** Drain every ring of the shards @p worker owns; returns frames
     *  applied. */
    uint64_t drainOwnedShards(unsigned worker, WorkerSlot &slot);

    apps::ShardedKvStore &store_;
    TrafficPlaneConfig config_;
    unsigned shardCount_;

    util::Arena arena_;
    std::vector<SpscRing<OpFrame> *> rings_; ///< [producer][shard]
    std::vector<WorkerSlot> slots_;
    std::atomic<unsigned> producersDone_{0};
};

} // namespace wsp::load
