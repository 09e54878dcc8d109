/**
 * @file
 * Concurrency test battery for the sharded serving layer and the
 * parallel save path.
 *
 * Three pillars:
 *
 *  - observational equivalence: an N-shard store driven by real
 *    worker threads through the traffic plane must end in exactly the
 *    state the sequential single-shard replay reaches, for any thread
 *    interleaving;
 *  - durable linearizability: every operation acknowledged before the
 *    power failure must be present (and every erased key absent)
 *    after the NVRAM image boots on a fresh chassis;
 *  - determinism: the same seed must produce the same counters and
 *    store state no matter how the pool's workers are scheduled,
 *    which rests on Rng::stream() being order-independent and the
 *    pool partitioning statically.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/kv_store.h"
#include "crashsim/crash_explorer.h"
#include "crashsim/invariants.h"
#include "load/traffic_plane.h"
#include "shard_rig.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace wsp {
namespace {

using apps::KvStore;
using apps::ShardedKvStore;
using wsp::testing::ShardEnvironment;
using wsp::testing::ShardedRig;

// ShardedKvStore basics ------------------------------------------------

TEST(ShardedKvStore, RoutesStoresAndAttaches)
{
    ShardEnvironment environment("sharded-basics", 4 * kMiB);
    std::vector<CacheModel *> caches(4, &environment.cache);
    const std::span<CacheModel *const> span(caches);

    ShardedKvStore store(span, 0, 64);
    EXPECT_EQ(store.shardCount(), 4u);
    for (uint64_t key = 1; key <= 100; ++key)
        ASSERT_TRUE(store.put(key, key * 3));
    EXPECT_EQ(store.size(), 100u);

    uint64_t value = 0;
    ASSERT_TRUE(store.get(42, &value));
    EXPECT_EQ(value, 42u * 3);
    ASSERT_TRUE(store.erase(42));
    EXPECT_FALSE(store.get(42));
    EXPECT_EQ(store.size(), 99u);

    // Shard sizes must partition the total.
    uint64_t total = 0;
    for (uint64_t size : store.shardSizes())
        total += size;
    EXPECT_EQ(total, store.size());

    // Re-attach sees the same state.
    auto attached = ShardedKvStore::attach(span, 0);
    ASSERT_TRUE(attached.has_value());
    EXPECT_EQ(attached->size(), store.size());
    EXPECT_EQ(attached->checksum(), store.checksum());
    EXPECT_EQ(attached->perShardCapacity(), 64u);
}

TEST(ShardedKvStore, ChecksumMatchesSingleStoreOverSamePairs)
{
    ShardEnvironment sharded_env("checksum-sharded", 4 * kMiB);
    ShardEnvironment single_env("checksum-single", 4 * kMiB);
    std::vector<CacheModel *> caches(8, &sharded_env.cache);
    ShardedKvStore sharded(std::span<CacheModel *const>(caches), 0, 64);
    KvStore single(single_env.cache, 0, 512);

    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        const uint64_t key = rng.next(400) + 1;
        const uint64_t value = rng() | 1;
        ASSERT_TRUE(sharded.put(key, value));
        ASSERT_TRUE(single.put(key, value));
    }
    EXPECT_EQ(sharded.size(), single.size());
    EXPECT_EQ(sharded.checksum(), single.checksum());
}

// Batched application ---------------------------------------------------

/** Random op mix over a small key range so puts, hits, misses, erases
 *  and capacity rejections all occur. */
std::vector<apps::KvOp>
randomOps(uint64_t seed, size_t count, uint64_t key_range)
{
    Rng rng(seed);
    std::vector<apps::KvOp> ops;
    ops.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        const uint64_t key = rng.next(key_range) + 1;
        switch (rng.next(4)) {
        case 0:
        case 1:
            ops.push_back(apps::KvOp::put(key, rng() | 1));
            break;
        case 2:
            ops.push_back(apps::KvOp::get(key));
            break;
        default:
            ops.push_back(apps::KvOp::erase(key));
            break;
        }
    }
    return ops;
}

/** Apply @p ops one by one through the scalar API, accumulating the
 *  counters applyBatch promises to match. */
template <typename Store>
apps::KvBatchResult
applyPerOp(Store &store, const std::vector<apps::KvOp> &ops)
{
    apps::KvBatchResult result;
    for (const apps::KvOp &op : ops) {
        switch (op.kind) {
        case apps::KvOp::Kind::Put:
            if (store.put(op.key, op.value))
                ++result.puts;
            else
                ++result.putsRejected;
            break;
        case apps::KvOp::Kind::Get: {
            ++result.gets;
            uint64_t value = 0;
            if (store.get(op.key, &value)) {
                ++result.getHits;
                result.getValueSum += value;
            }
            break;
        }
        case apps::KvOp::Kind::Erase:
            ++result.erases;
            if (store.erase(op.key))
                ++result.erasesHit;
            break;
        }
    }
    return result;
}

void
expectSameResult(const apps::KvBatchResult &batched,
                 const apps::KvBatchResult &scalar)
{
    EXPECT_EQ(batched.puts, scalar.puts);
    EXPECT_EQ(batched.putsRejected, scalar.putsRejected);
    EXPECT_EQ(batched.gets, scalar.gets);
    EXPECT_EQ(batched.getHits, scalar.getHits);
    EXPECT_EQ(batched.getValueSum, scalar.getValueSum);
    EXPECT_EQ(batched.erases, scalar.erases);
    EXPECT_EQ(batched.erasesHit, scalar.erasesHit);
    EXPECT_EQ(batched.ops(), scalar.ops());
}

TEST(KvBatch, ApplyBatchMatchesPerOpSequence)
{
    ShardEnvironment batch_env("batch-single", 4 * kMiB);
    ShardEnvironment scalar_env("scalar-single", 4 * kMiB);
    // Tight capacity so the mix drives the store full and a slice of
    // the puts take the rejection path.
    KvStore batched(batch_env.cache, 0, 64);
    KvStore scalar(scalar_env.cache, 0, 64);

    const std::vector<apps::KvOp> ops = randomOps(11, 2000, 150);
    const apps::KvBatchResult batch_result = batched.applyBatch(ops);
    const apps::KvBatchResult scalar_result = applyPerOp(scalar, ops);

    expectSameResult(batch_result, scalar_result);
    EXPECT_GT(batch_result.putsRejected, 0u);
    EXPECT_EQ(batched.size(), scalar.size());
    EXPECT_EQ(batched.checksum(), scalar.checksum());
}

TEST(KvBatch, ShardedApplyBatchMatchesPerOpSequence)
{
    ShardEnvironment batch_env("batch-sharded", 4 * kMiB);
    ShardEnvironment scalar_env("scalar-sharded", 4 * kMiB);
    std::vector<CacheModel *> batch_caches(4, &batch_env.cache);
    std::vector<CacheModel *> scalar_caches(4, &scalar_env.cache);
    ShardedKvStore batched(
        std::span<CacheModel *const>(batch_caches), 0, 32);
    ShardedKvStore scalar(
        std::span<CacheModel *const>(scalar_caches), 0, 32);

    const std::vector<apps::KvOp> ops = randomOps(23, 4000, 300);
    const apps::KvBatchResult batch_result = batched.applyBatch(ops);
    const apps::KvBatchResult scalar_result = applyPerOp(scalar, ops);

    // The sharded batch groups ops by shard before applying; the
    // counters are order-independent sums, so they must merge back to
    // exactly the sequential outcome — and so must the store state.
    expectSameResult(batch_result, scalar_result);
    EXPECT_GT(batch_result.putsRejected, 0u);
    EXPECT_EQ(batched.size(), scalar.size());
    EXPECT_EQ(batched.checksum(), scalar.checksum());
    EXPECT_EQ(batched.shardSizes(), scalar.shardSizes());
}

TEST(KvBatch, EmptyBatchIsANoOp)
{
    ShardEnvironment environment("batch-empty", 4 * kMiB);
    KvStore store(environment.cache, 0, 64);
    ASSERT_TRUE(store.put(1, 5));
    const uint64_t checksum = store.checksum();
    const apps::KvBatchResult result =
        store.applyBatch(std::span<const apps::KvOp>{});
    EXPECT_EQ(result.ops(), 0u);
    EXPECT_EQ(store.checksum(), checksum);
    EXPECT_EQ(store.size(), 1u);
}

TEST(ShardedKvStore, AttachRejectsGarbageAndMismatchedShards)
{
    ShardEnvironment environment("attach-reject", 4 * kMiB);
    std::vector<CacheModel *> caches(2, &environment.cache);
    const std::span<CacheModel *const> span(caches);
    // Nothing was ever created here.
    EXPECT_FALSE(ShardedKvStore::attach(span, 0).has_value());

    // Non-power-of-two shard count.
    std::vector<CacheModel *> three(3, &environment.cache);
    EXPECT_FALSE(
        ShardedKvStore::attach(std::span<CacheModel *const>(three), 0)
            .has_value());
}

// Observational equivalence --------------------------------------------

/**
 * Run @p config through the traffic plane into @p shards shards of
 * @p per_shard slots, and replay the same per-worker streams
 * sequentially into one shard of the same total capacity: N shards
 * must end where one shard does, counters included.
 */
void
expectThreadedMatchesOneShard(const load::TrafficPlaneConfig &config,
                              unsigned shards, uint64_t per_shard)
{
    ThreadPool pool(config.workers);
    ShardedRig sharded("eq-sharded", shards, per_shard);
    load::TrafficPlane plane(*sharded.store, config);
    const load::TrafficPlaneReport threaded = plane.run(pool);
    EXPECT_EQ(threaded.ops(), config.workers * config.opsPerWorker);

    ShardedRig single("eq-single", 1, shards * per_shard);
    const apps::KvBatchResult reference = plane.runSequential(*single.store);
    expectSameResult(threaded.result, reference);
    EXPECT_EQ(threaded.result.putsRejected, 0u);
    EXPECT_EQ(sharded.store->size(), single.store->size());
    EXPECT_EQ(sharded.store->checksum(), single.store->checksum());
}

TEST(ShardedEquivalence, ThreadedRunMatchesSequentialReference)
{
    // Workers own disjoint key ranges, so every interleaving reaches
    // the state of the sequential replay. The plane's default mix is
    // 50% put, 40% get, 10% erase.
    for (const uint64_t seed : {1ull, 17ull, 20260805ull}) {
        SCOPED_TRACE(seed);
        load::TrafficPlaneConfig config;
        config.workers = 4;
        config.opsPerWorker = 4000;
        config.keysPerWorker = 256;
        config.seed = seed;
        expectThreadedMatchesOneShard(config, /*shards=*/4,
                                      /*per_shard=*/2048);
    }
}

TEST(ShardedEquivalence, MoreThreadsThanShardsStillEquivalent)
{
    // Six of the eight workers own no shard: they only produce, and
    // spend ring stalls yielding to the two shard owners.
    load::TrafficPlaneConfig config;
    config.workers = 8;
    config.opsPerWorker = 1500;
    config.keysPerWorker = 128;
    config.seed = 99;
    expectThreadedMatchesOneShard(config, /*shards=*/2, /*per_shard=*/4096);
}

// Durable linearizability ----------------------------------------------

TEST(DurableLinearizability, AckedOpsSurviveParallelSavePowerFailure)
{
    // Generous residual window: the save always completes, so the
    // restore must come back via WSP with the *entire* acked prefix
    // (KvPrefixChecker verifies every acked put/erase key by key).
    crashsim::CrashSchedule schedule;
    schedule.seed = 0xACCEDull;
    schedule.window = fromMillis(200.0);
    schedule.ops = 48;
    schedule.outage = fromMillis(500.0);
    schedule.shards = 4;
    schedule.parallelSave = true;

    crashsim::CrashExplorer explorer(schedule);
    const crashsim::CrashPointResult result =
        explorer.runSchedule(schedule);
    EXPECT_TRUE(result.held()) << [&] {
        std::string all;
        for (const auto &violation : result.violations)
            all += violation + "\n";
        return all;
    }();
    EXPECT_TRUE(result.restore.usedWsp);
    EXPECT_GT(result.appliedOps, 0u);
}

TEST(DurableLinearizability, TightWindowNeverFabricatesAckedState)
{
    // A window too small for the save: WSP recovery must not be used,
    // and the back-end path must reconstruct the acked prefix — the
    // checker fails the run if either side of the contract breaks.
    crashsim::CrashSchedule schedule;
    schedule.seed = 0xBADF00Dull;
    schedule.window = fromMicros(30.0);
    schedule.ops = 48;
    schedule.outage = fromMillis(500.0);
    schedule.shards = 4;
    schedule.parallelSave = true;

    crashsim::CrashExplorer explorer(schedule);
    const crashsim::CrashPointResult result =
        explorer.runSchedule(schedule);
    EXPECT_TRUE(result.held());
    EXPECT_FALSE(result.restore.usedWsp);
    EXPECT_TRUE(result.backendRan);
}

// Thread pool ----------------------------------------------------------

TEST(ThreadPool, PartitionCoversEveryItemExactlyOnce)
{
    for (const uint64_t items : {0ull, 1ull, 7ull, 64ull, 1000ull}) {
        for (const unsigned workers : {1u, 2u, 3u, 8u}) {
            std::vector<unsigned> hits(items, 0);
            uint64_t covered = 0;
            for (unsigned w = 0; w < workers; ++w) {
                const auto [begin, end] =
                    ThreadPool::partition(items, workers, w);
                ASSERT_LE(begin, end);
                for (uint64_t i = begin; i < end; ++i)
                    ++hits[i];
                covered += end - begin;
            }
            EXPECT_EQ(covered, items);
            for (uint64_t i = 0; i < items; ++i)
                EXPECT_EQ(hits[i], 1u) << "item " << i;
        }
    }
}

TEST(ThreadPool, ParallelForVisitsEachIndexOnce)
{
    ThreadPool pool(4);
    constexpr uint64_t kItems = 10000;
    std::vector<std::atomic<unsigned>> hits(kItems);
    pool.parallelFor(kItems, [&](uint64_t begin, uint64_t end, unsigned) {
        for (uint64_t i = begin; i < end; ++i)
            hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (uint64_t i = 0; i < kItems; ++i)
        ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
}

TEST(ThreadPool, RunWorkersPassesDistinctIndexes)
{
    ThreadPool pool(6);
    std::vector<std::atomic<unsigned>> seen(6);
    pool.runWorkers([&](unsigned worker) {
        seen[worker].fetch_add(1, std::memory_order_relaxed);
    });
    for (unsigned w = 0; w < 6; ++w)
        EXPECT_EQ(seen[w].load(), 1u);
}

// Determinism ----------------------------------------------------------

TEST(Determinism, SameSeedSameFingerprint)
{
    // Scheduling must not leak into the outcome: two threaded runs
    // with one seed give identical counters, checksum and per-shard
    // sizes, and the next seed gives a different store.
    struct Outcome
    {
        apps::KvBatchResult result;
        uint64_t checksum = 0;
        std::vector<uint64_t> shardSizes;
    };
    ThreadPool pool(8);
    const auto run = [&pool](uint64_t seed) {
        load::TrafficPlaneConfig config;
        config.workers = 8;
        config.opsPerWorker = 3000;
        config.keysPerWorker = 200;
        config.seed = seed;
        ShardedRig rig("det", 4, 2048);
        load::TrafficPlane plane(*rig.store, config);
        const load::TrafficPlaneReport report = plane.run(pool);
        return Outcome{report.result, rig.store->checksum(),
                       rig.store->shardSizes()};
    };

    const Outcome a = run(1234);
    const Outcome b = run(1234);
    expectSameResult(a.result, b.result);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.shardSizes, b.shardSizes);

    EXPECT_NE(run(1235).checksum, a.checksum);
}

TEST(Determinism, RngStreamIsOrderIndependent)
{
    Rng base(42);
    // stream() must depend only on (state, index) — drawing other
    // streams first, in any order, must not change stream(3).
    Rng direct = base.stream(3);
    (void)base.stream(7);
    (void)base.stream(0);
    Rng again = base.stream(3);
    for (int i = 0; i < 64; ++i)
        ASSERT_EQ(direct(), again());
}

TEST(Determinism, RngStreamsAreDecorrelated)
{
    Rng base(42);
    Rng a = base.stream(0);
    Rng b = base.stream(1);
    unsigned equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += (a() == b()) ? 1 : 0;
    EXPECT_EQ(equal, 0u);
}

TEST(Determinism, RngStreamDiffersFromForkSemantics)
{
    // fork() advances the parent; stream() must not.
    Rng a(7);
    Rng b(7);
    (void)a.stream(5);
    for (int i = 0; i < 8; ++i)
        ASSERT_EQ(a(), b());
}

} // namespace
} // namespace wsp
