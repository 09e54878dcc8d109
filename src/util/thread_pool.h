/**
 * @file
 * Fixed-size worker thread pool with deterministic partitioning.
 *
 * The traffic plane (load/traffic_plane.h) drives real host threads
 * at the sharded stores, so benchmarks measure genuine concurrency,
 * not simulated time. Determinism is preserved by construction:
 *
 *  - work is partitioned *statically* by worker index (no stealing),
 *    so which worker executes which item never depends on scheduling,
 *  - each worker draws randomness from its own Rng::stream(worker),
 *    never from a shared generator,
 *  - per-worker results are merged in worker-index order.
 *
 * Under those rules the same seed produces bit-identical results at
 * any thread count the partition was computed for, regardless of how
 * the OS schedules the workers.
 */

#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace wsp {

/** Persistent pool of worker threads, joined on destruction. */
class ThreadPool
{
  public:
    /** Spawn @p threads workers (at least one). */
    explicit ThreadPool(unsigned threads);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    ~ThreadPool();

    unsigned threadCount() const { return static_cast<unsigned>(workers_.size()); }

    /**
     * Run @p fn(worker) once per worker, concurrently, and block
     * until every invocation returns. The worker index is the only
     * identity a task needs: partition(), Rng::stream() and
     * per-worker output slots all key off it.
     */
    void runWorkers(const std::function<void(unsigned worker)> &fn);

    /**
     * Pin worker w to CPU core w mod hardware_concurrency (Linux;
     * a no-op elsewhere). The traffic plane uses this so a shard's
     * owning consumer keeps its store's cache-model state resident on
     * one core instead of migrating. Idempotent; safe while idle.
     */
    void pinToCores();

    /**
     * Static contiguous split of @p items across @p workers: the
     * half-open range worker @p w owns. Early workers get the
     * remainder, so ranges differ in size by at most one.
     */
    static std::pair<uint64_t, uint64_t>
    partition(uint64_t items, unsigned workers, unsigned w)
    {
        const uint64_t base = items / workers;
        const uint64_t extra = items % workers;
        const uint64_t begin =
            static_cast<uint64_t>(w) * base + (w < extra ? w : extra);
        return {begin, begin + base + (w < extra ? 1 : 0)};
    }

    /**
     * parallelFor over [0, @p items): each worker runs
     * @p fn(begin, end, worker) on its static partition. Blocks until
     * all partitions complete.
     */
    void parallelFor(uint64_t items,
                     const std::function<void(uint64_t begin, uint64_t end,
                                              unsigned worker)> &fn);

  private:
    void workerLoop(unsigned worker);

    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    const std::function<void(unsigned)> *job_ = nullptr;
    uint64_t generation_ = 0;
    unsigned remaining_ = 0;
    bool shutdown_ = false;
};

} // namespace wsp
