/**
 * @file
 * Traffic-plane battery: the SPSC submission ring, the deterministic
 * op streams (including the quantized Zipf table against the exact
 * YCSB sampler), exact threaded-vs-sequential equivalence and
 * same-seed determinism of the rings plane at 1, 2, 4 and 8 workers,
 * back-pressure under deliberately tiny rings, open-loop
 * pacing, and the cache region view backing the zero-allocation hot
 * path. The whole suite also runs under TSan via
 * cmake/tsan_smoke.cmake — the equivalence tests pass through every
 * ring and drain path, which is the point.
 */

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "apps/workload.h"
#include "load/op_stream.h"
#include "load/spsc_ring.h"
#include "load/traffic_plane.h"
#include "machine/cache.h"
#include "shard_rig.h"
#include "test_seed.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "util/units.h"

using namespace wsp;
using namespace wsp::load;
using apps::KvOp;
using apps::ShardedKvStore;
using wsp::testing::ShardedRig;
using wsp::testing::testSeed;

namespace {

// SpscRing ------------------------------------------------------------

TEST(SpscRing, FifoAcrossWrapAndFullRejection)
{
    std::vector<uint64_t> storage(8);
    SpscRing<uint64_t> ring(storage.data(), storage.size());
    EXPECT_EQ(ring.capacity(), 8u);

    // Fill to capacity; the ninth push must be refused, not dropped.
    for (uint64_t i = 0; i < 8; ++i)
        ASSERT_TRUE(ring.tryPush(i));
    EXPECT_FALSE(ring.tryPush(uint64_t{99}));

    uint64_t out = 0;
    for (uint64_t i = 0; i < 8; ++i) {
        ASSERT_EQ(ring.tryPop({&out, 1}), 1u);
        EXPECT_EQ(out, i);
    }
    EXPECT_EQ(ring.tryPop({&out, 1}), 0u);
    EXPECT_TRUE(ring.emptyConsumer());

    // Positions are free-running; FIFO must survive many wraps.
    for (uint64_t i = 0; i < 1000; ++i) {
        ASSERT_TRUE(ring.tryPush(i * 3));
        ASSERT_EQ(ring.tryPop({&out, 1}), 1u);
        EXPECT_EQ(out, i * 3);
    }
}

TEST(SpscRing, SpanPushIsPartialWhenNearlyFull)
{
    std::vector<uint64_t> storage(16);
    SpscRing<uint64_t> ring(storage.data(), storage.size());

    std::vector<uint64_t> items(10);
    for (size_t i = 0; i < items.size(); ++i)
        items[i] = i;
    EXPECT_EQ(ring.tryPush(std::span<const uint64_t>(items)), 10u);
    // Only 6 slots remain: the span push copies what fits.
    for (size_t i = 0; i < items.size(); ++i)
        items[i] = 10 + i;
    EXPECT_EQ(ring.tryPush(std::span<const uint64_t>(items)), 6u);

    std::vector<uint64_t> out(16);
    EXPECT_EQ(ring.tryPop(std::span<uint64_t>(out)), 16u);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i);
}

TEST(SpscRing, ThreadedProducerConsumerPreservesOrder)
{
    // Genuinely concurrent: one producer spinning on full, one
    // consumer popping runs. TSan (tsan_smoke) watches the
    // release/acquire pair; the sequence check watches FIFO.
    constexpr uint64_t kItems = 200000;
    std::vector<uint64_t> storage(64);
    SpscRing<uint64_t> ring(storage.data(), storage.size());

    std::thread producer([&] {
        for (uint64_t i = 0; i < kItems; ++i) {
            while (!ring.tryPush(i))
                std::this_thread::yield();
        }
    });

    uint64_t expected = 0;
    std::vector<uint64_t> out(32);
    while (expected < kItems) {
        const size_t n = ring.tryPop(std::span<uint64_t>(out));
        if (n == 0) {
            std::this_thread::yield();
            continue;
        }
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(out[i], expected++);
    }
    producer.join();
    EXPECT_TRUE(ring.emptyConsumer());
}

// OpStream ------------------------------------------------------------

OpStream
makeStream(const OpStreamConfig &config, uint64_t seed, unsigned worker)
{
    return OpStream(config, Rng(seed).stream(worker));
}

TEST(OpStream, SameSeedAndWorkerReproduceTheStream)
{
    OpStreamConfig config;
    config.getPermille = 400;
    config.erasePermille = 100;
    const uint64_t seed = testSeed(0x10ad01);

    OpStream a = makeStream(config, seed, 3);
    OpStream b = makeStream(config, seed, 3);
    OpStream other = makeStream(config, seed, 4);
    bool diverged = false;
    for (int i = 0; i < 1000; ++i) {
        const KvOp lhs = a.next();
        const KvOp rhs = b.next();
        ASSERT_EQ(lhs.kind, rhs.kind);
        ASSERT_EQ(lhs.key, rhs.key);
        ASSERT_EQ(lhs.value, rhs.value);
        const KvOp third = other.next();
        diverged = diverged || third.key != lhs.key ||
                   third.kind != lhs.kind;
    }
    EXPECT_TRUE(diverged); // different worker, different stream
}

TEST(OpStream, MixTracksPermillesAndKeysStayInRange)
{
    OpStreamConfig config;
    config.keyLo = 100;
    config.keyCount = 512;
    config.getPermille = 400;
    config.erasePermille = 100;
    OpStream stream = makeStream(config, testSeed(0x10ad02), 0);

    constexpr uint64_t kOps = 100000;
    uint64_t gets = 0;
    uint64_t erases = 0;
    for (uint64_t i = 0; i < kOps; ++i) {
        const KvOp op = stream.next();
        gets += op.kind == KvOp::Kind::Get;
        erases += op.kind == KvOp::Kind::Erase;
        ASSERT_GE(op.key, config.keyLo);
        ASSERT_LT(op.key, config.keyLo + config.keyCount);
    }
    // ~5 sigma for a 100k-draw binomial at p=0.4 is about 8 permille.
    EXPECT_NEAR(static_cast<double>(gets) / kOps, 0.400, 0.015);
    EXPECT_NEAR(static_cast<double>(erases) / kOps, 0.100, 0.010);
}

TEST(OpStream, BoundaryPermillesAreExact)
{
    // Regression: the kind thresholds are 32-bit fixed point held in
    // uint64 — a 1000-permille limit is 2^32 (always true), which a
    // uint32 would have wrapped to zero and turned "all gets" into
    // "all puts".
    OpStreamConfig all_gets;
    all_gets.getPermille = 1000;
    all_gets.erasePermille = 0;
    OpStream gets = makeStream(all_gets, testSeed(0x10ad03), 0);
    for (int i = 0; i < 10000; ++i)
        ASSERT_EQ(gets.next().kind, KvOp::Kind::Get);

    OpStreamConfig all_puts;
    all_puts.getPermille = 0;
    all_puts.erasePermille = 0;
    OpStream puts = makeStream(all_puts, testSeed(0x10ad03), 0);
    for (int i = 0; i < 10000; ++i)
        ASSERT_EQ(puts.next().kind, KvOp::Kind::Put);

    OpStreamConfig all_erases;
    all_erases.getPermille = 0;
    all_erases.erasePermille = 1000;
    OpStream erases = makeStream(all_erases, testSeed(0x10ad03), 0);
    for (int i = 0; i < 10000; ++i)
        ASSERT_EQ(erases.next().kind, KvOp::Kind::Erase);
}

TEST(OpStream, ZipfTableMatchesExactSamplerMass)
{
    // The 4096-way quantized inverse CDF against the exact YCSB
    // sampler (apps::ZipfianSampler): per-rank frequencies of the hot
    // head and the aggregate head mass must agree to well within the
    // table's quantization error plus sampling noise.
    constexpr uint64_t kKeys = 512;
    constexpr double kTheta = 0.9;
    constexpr uint64_t kDraws = 200000;
    constexpr uint64_t kHead = 10;

    OpStreamConfig config;
    config.keyLo = 1;
    config.keyCount = kKeys;
    config.getPermille = 0;
    config.erasePermille = 0;
    config.zipfTheta = kTheta;
    OpStream stream = makeStream(config, testSeed(0x10ad04), 0);
    std::vector<uint64_t> table_counts(kKeys + 1, 0);
    for (uint64_t i = 0; i < kDraws; ++i)
        ++table_counts[stream.next().key];

    apps::ZipfianSampler exact(kKeys, kTheta);
    Rng rng(testSeed(0x10ad05));
    std::vector<uint64_t> exact_counts(kKeys + 1, 0);
    for (uint64_t i = 0; i < kDraws; ++i)
        ++exact_counts[exact.next(rng)];

    double table_head = 0.0;
    double exact_head = 0.0;
    for (uint64_t key = 1; key <= kHead; ++key) {
        const double table_freq =
            static_cast<double>(table_counts[key]) / kDraws;
        const double exact_freq =
            static_cast<double>(exact_counts[key]) / kDraws;
        EXPECT_NEAR(table_freq, exact_freq, 0.02)
            << "rank " << key;
        table_head += table_freq;
        exact_head += exact_freq;
    }
    EXPECT_NEAR(table_head, exact_head, 0.03);
    // The head must actually be hot — uniform would give ~2%.
    EXPECT_GT(table_head, 0.25);
}

// Histogram weighted add ---------------------------------------------

TEST(HistogramWeighted, AddCountMatchesRepeatedAdd)
{
    Histogram weighted;
    Histogram repeated;

    const std::pair<uint64_t, uint64_t> runs[] = {
        {5, 7}, {55, 3}, {0, 2}, {123456789, 4}};
    for (const auto &[sample, count] : runs) {
        weighted.add(sample, count);
        for (uint64_t i = 0; i < count; ++i)
            repeated.add(sample);
    }

    EXPECT_EQ(weighted.total(), repeated.total());
    for (int k = 0; k <= 16; ++k) {
        const double q = k / 16.0;
        EXPECT_EQ(weighted.quantile(q), repeated.quantile(q)) << q;
    }
}

// TrafficPlane --------------------------------------------------------

constexpr unsigned kShards = 8;
constexpr uint64_t kPerShardCapacity = 4096;

/** A fresh 8-shard store of 4096 slots per shard. */
struct Rig : ShardedRig
{
    explicit Rig(const char *tag)
        : ShardedRig(std::string("load_") + tag, kShards, kPerShardCapacity)
    {
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

TEST(TrafficPlane, ThreadedMatchesSequentialReplayAcrossSeeds)
{
    // Disjoint key ranges make per-key op order the worker's own
    // stream order, so the rings plane must match the sequential
    // replay *exactly* — counters, store size, and content checksum —
    // for every seed and worker count, not statistically. A second
    // same-seed run into a fresh store must reproduce the batch
    // result.
    for (const unsigned workers : {1u, 2u, 4u, 8u}) {
        ThreadPool pool(workers);
        for (uint64_t trial = 0; trial < 10; ++trial) {
            SCOPED_TRACE(::testing::Message() << workers << " workers, "
                                              << "seed trial " << trial);
            TrafficPlaneConfig config;
            config.workers = workers;
            config.opsPerWorker = 5000;
            config.keysPerWorker = 512;
            config.seed = testSeed(0x10ad10 + trial);

            Rig threaded("t");
            TrafficPlane plane(*threaded.store, config);
            const TrafficPlaneReport run = plane.run(pool);
            EXPECT_EQ(run.ops(), workers * 5000u);
            EXPECT_EQ(run.latencyNs.total(), run.ops());

            Rig sequential("s");
            const apps::KvBatchResult reference =
                plane.runSequential(*sequential.store);
            EXPECT_TRUE(sameResult(run.result, reference));
            EXPECT_EQ(threaded.store->size(), sequential.store->size());
            EXPECT_EQ(threaded.store->checksum(),
                      sequential.store->checksum());

            Rig again("r");
            TrafficPlane replay(*again.store, config);
            EXPECT_TRUE(sameResult(replay.run(pool).result, run.result));
            EXPECT_EQ(again.store->checksum(), threaded.store->checksum());
        }
    }
}

TEST(TrafficPlane, BackpressureOnTinyRingsKeepsEquivalence)
{
    // Two-frame rings guarantee the producers hit full rings
    // constantly; the stall path (drain your own shards, never drop,
    // never deadlock) must leave the outcome byte-identical to the
    // replay.
    TrafficPlaneConfig config;
    config.workers = 4;
    config.opsPerWorker = 3000;
    config.ringFrames = 2;
    config.burstOps = 16;
    config.drainOps = 8;
    config.seed = testSeed(0x10ad30);
    ThreadPool pool(4);

    Rig threaded("bp");
    TrafficPlane plane(*threaded.store, config);
    const TrafficPlaneReport run = plane.run(pool);
    EXPECT_GT(run.backpressureStalls, 0u);
    EXPECT_EQ(run.ops(), 4u * 3000u);

    Rig sequential("bq");
    const apps::KvBatchResult reference =
        plane.runSequential(*sequential.store);
    EXPECT_TRUE(sameResult(run.result, reference));
    EXPECT_EQ(threaded.store->size(), sequential.store->size());
    EXPECT_EQ(threaded.store->checksum(), sequential.store->checksum());
}

TEST(TrafficPlane, SharedZipfKeysConserveTotals)
{
    // Shared key ranges race on purpose (realistic contention):
    // per-key history depends on interleaving, so only the aggregate
    // invariants hold — every generated op is applied exactly once
    // and the key universe bounds the store.
    TrafficPlaneConfig config;
    config.workers = 4;
    config.opsPerWorker = 5000;
    config.disjointKeys = false;
    config.keysPerWorker = 512;
    config.zipfTheta = 0.9;
    config.getPermille = 400;
    config.erasePermille = 100;
    config.seed = testSeed(0x10ad40);
    ThreadPool pool(4);

    Rig rig("sh");
    TrafficPlane plane(*rig.store, config);
    const TrafficPlaneReport run = plane.run(pool);
    EXPECT_EQ(run.ops(), 4u * 5000u);
    EXPECT_EQ(run.latencyNs.total(), run.ops());
    EXPECT_LE(run.result.getHits, run.result.gets);
    EXPECT_LE(run.result.erasesHit, run.result.erases);
    EXPECT_LE(rig.store->size(), 512u); // shared universe
}

TEST(TrafficPlane, OpenLoopPacingStretchesTheRun)
{
    // Paced mode: the schedule sets intended times, so the run cannot
    // finish faster than the schedule — and every op still lands in
    // the merged histogram (coordinated-omission-safe accounting
    // records by intended time, one sample per op).
    TrafficPlaneConfig config;
    config.workers = 2;
    config.opsPerWorker = 2000;
    config.pacedOpsPerSec = 1e6; // per worker: a 2 ms schedule
    config.seed = testSeed(0x10ad50);
    ThreadPool pool(2);

    Rig rig("pc");
    TrafficPlane plane(*rig.store, config);
    const TrafficPlaneReport run = plane.run(pool);
    EXPECT_EQ(run.ops(), 2u * 2000u);
    EXPECT_EQ(run.latencyNs.total(), run.ops());
    // Bursts are 256 ops, so the last burst's intended time is at
    // least (2000 - 256) us into the schedule.
    EXPECT_GE(run.wallSeconds, (2000.0 - 256.0) * 1e-6);

    Rig sequential("pq");
    const apps::KvBatchResult reference =
        plane.runSequential(*sequential.store);
    EXPECT_TRUE(sameResult(run.result, reference));
}

// CacheModel region view ---------------------------------------------

struct RegionViewFixture : ::testing::Test
{
    RegionViewFixture()
        : dimm(queue, "rv",
               [] {
                   NvdimmConfig config;
                   config.capacityBytes = 4 * kMiB;
                   config.flashChannels = 1;
                   return config;
               }())
    {
        space.addModule(dimm);
    }

    EventQueue queue;
    NvdimmModule dimm;
    NvramSpace space;
};

TEST_F(RegionViewFixture, RegionViewAgreesWithHashPathEverywhere)
{
    // The region view replaces the hash probe for registered lines;
    // it is maintained at the same insert/erase funnel, so every
    // lifecycle event (write, flush, drop, eviction) must keep the
    // two in agreement. Drive the same traffic at a viewed cache and
    // a plain one and compare observable state throughout.
    CacheModel viewed("viewed", 64 * kKiB, CacheTiming{}, space);
    viewed.registerRegionView(0, 64 * CacheModel::kLineSize);

    // In-region write: visible through the cache, invisible to NVRAM
    // until flushed.
    viewed.writeU64(128, 42);
    EXPECT_EQ(viewed.readU64(128), 42u);
    EXPECT_EQ(viewed.dirtyLines(), 1u);
    EXPECT_EQ(space.readU64(128), 0u);
    viewed.flushLine(128);
    EXPECT_EQ(viewed.dirtyLines(), 0u);
    EXPECT_EQ(space.readU64(128), 42u);
    EXPECT_EQ(viewed.readU64(128), 42u); // read-through after flush

    // Out-of-region addresses keep working via the hash path.
    const uint64_t outside = 128 * CacheModel::kLineSize;
    viewed.writeU64(outside, 7);
    EXPECT_EQ(viewed.readU64(outside), 7u);
    EXPECT_EQ(viewed.dirtyLines(), 1u);

    // dropDirty must clear the view too — a stale slot entry would
    // resurrect the dropped write.
    viewed.writeU64(192, 99);
    viewed.dropDirty();
    EXPECT_EQ(viewed.dirtyLines(), 0u);
    EXPECT_EQ(viewed.readU64(192), 0u);
    EXPECT_EQ(viewed.readU64(outside), 0u);

    // Re-registering replaces the view; dirty lines inside the new
    // region are adopted, old-region lines fall back to the hash.
    viewed.writeU64(256, 5);
    viewed.registerRegionView(outside, 16 * CacheModel::kLineSize);
    viewed.writeU64(outside + 64, 11);
    EXPECT_EQ(viewed.readU64(256), 5u);
    EXPECT_EQ(viewed.readU64(outside + 64), 11u);
    EXPECT_EQ(viewed.dirtyLines(), 2u);
}

TEST_F(RegionViewFixture, ReRegisteringTheSameRegionKeepsReadsExact)
{
    // Re-registering the current region returns at once, trusting the
    // insert/erase funnel and dropDirty to have kept the view in step.
    // Drive writes (in and out of the region), evictions, flushes and
    // dropDirty through a viewed cache that re-registers the identical
    // region between steps, and through an unviewed twin over its own
    // module: every read must agree.
    NvdimmConfig twin_config;
    twin_config.capacityBytes = 4 * kMiB;
    twin_config.flashChannels = 1;
    NvdimmModule twin_dimm(queue, "rv-twin", twin_config);
    NvramSpace twin_space;
    twin_space.addModule(twin_dimm);

    constexpr uint64_t kRegionLines = 32;
    CacheModel viewed("viewed", 8 * CacheModel::kLineSize, CacheTiming{},
                      space);
    CacheModel plain("plain", 8 * CacheModel::kLineSize, CacheTiming{},
                     twin_space);
    viewed.registerRegionView(0, kRegionLines * CacheModel::kLineSize);

    Rng rng(testSeed(0x7e9157e7));
    for (int step = 0; step < 3000; ++step) {
        // Lines 0..47: two thirds inside the region, a third outside.
        const uint64_t addr = rng.next(48) * CacheModel::kLineSize +
                              rng.next(8) * 8;
        const double action = rng.uniform();
        if (action < 0.7) {
            const uint64_t value = rng();
            viewed.writeU64(addr, value);
            plain.writeU64(addr, value);
        } else if (action < 0.85) {
            viewed.flushLine(addr);
            plain.flushLine(addr);
        } else if (action < 0.87) {
            viewed.dropDirty();
            plain.dropDirty();
        }
        if (rng.chance(0.3))
            viewed.registerRegionView(0, kRegionLines * CacheModel::kLineSize);
        ASSERT_EQ(viewed.dirtyLines(), plain.dirtyLines()) << "step " << step;
        for (uint64_t line = 0; line < 48; ++line) {
            const uint64_t probe = line * CacheModel::kLineSize +
                                   (step % 8) * 8;
            ASSERT_EQ(viewed.readU64(probe), plain.readU64(probe))
                << "step " << step << ", line " << line;
        }
    }
}

TEST_F(RegionViewFixture, RegionViewSurvivesEviction)
{
    // A two-line cache forces LRU eviction; an evicted line's view
    // slot must be cleared so the next probe misses cleanly instead
    // of resolving to a recycled slab slot.
    CacheModel cache("evict", 2 * CacheModel::kLineSize, CacheTiming{},
                     space);
    cache.registerRegionView(0, 64 * CacheModel::kLineSize);
    cache.writeU64(0, 1);
    cache.writeU64(64, 2);
    cache.writeU64(128, 3); // evicts line 0
    EXPECT_EQ(cache.dirtyLines(), 2u);
    EXPECT_EQ(space.readU64(0), 1u);  // written back on eviction
    EXPECT_EQ(cache.readU64(0), 1u);  // reads through NVRAM now
    EXPECT_EQ(cache.readU64(64), 2u);
    EXPECT_EQ(cache.readU64(128), 3u);
}

} // namespace
