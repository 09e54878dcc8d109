/**
 * @file
 * Unit tests for the util module: rng, stats, units, table, checksum,
 * arena/slab allocation, and the SmallFn callback type.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "util/arena.h"
#include "util/checksum.h"
#include "util/small_fn.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/units.h"
#include "test_seed.h"

namespace wsp {
namespace {

// Rng ----------------------------------------------------------------

TEST(Rng, SameSeedSameSequence)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a() == b()) ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestartsSequence)
{
    Rng a(7);
    const uint64_t first = a();
    a();
    a.reseed(7);
    EXPECT_EQ(a(), first);
}

TEST(Rng, NextRespectsBound)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.next(17), 17u);
}

TEST(Rng, NextCoversAllResidues)
{
    Rng rng(5);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.next(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusiveBounds)
{
    Rng rng(11);
    bool hit_lo = false;
    bool hit_hi = false;
    for (int i = 0; i < 5000; ++i) {
        const int64_t v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        hit_lo |= v == -3;
        hit_hi |= v == 3;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, RangeSingleValue)
{
    Rng rng(13);
    EXPECT_EQ(rng.range(5, 5), 5);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(17);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(19);
    RunningStat stat;
    for (int i = 0; i < 100000; ++i)
        stat.add(rng.uniform());
    EXPECT_NEAR(stat.mean(), 0.5, 0.01);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(29);
    RunningStat stat;
    for (int i = 0; i < 100000; ++i)
        stat.add(rng.exponential(5.0));
    EXPECT_NEAR(stat.mean(), 5.0, 0.2);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(31);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ForkIndependentStreams)
{
    Rng parent(37);
    Rng a = parent.fork(0);
    Rng b = parent.fork(1);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a() == b()) ? 1 : 0;
    EXPECT_LT(same, 3);
}

// RunningStat ---------------------------------------------------------

TEST(RunningStat, EmptyIsZero)
{
    RunningStat stat;
    EXPECT_EQ(stat.count(), 0u);
    EXPECT_EQ(stat.mean(), 0.0);
    EXPECT_EQ(stat.stddev(), 0.0);
}

TEST(RunningStat, SingleSample)
{
    RunningStat stat;
    stat.add(4.5);
    EXPECT_EQ(stat.count(), 1u);
    EXPECT_EQ(stat.mean(), 4.5);
    EXPECT_EQ(stat.min(), 4.5);
    EXPECT_EQ(stat.max(), 4.5);
    EXPECT_EQ(stat.stddev(), 0.0);
}

TEST(RunningStat, KnownMoments)
{
    RunningStat stat;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stat.add(v);
    EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
    // Sample variance with n-1 = 32/7.
    EXPECT_NEAR(stat.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_EQ(stat.min(), 2.0);
    EXPECT_EQ(stat.max(), 9.0);
}

// Histogram -----------------------------------------------------------

TEST(Histogram, BucketsAndOverflow)
{
    // Values below 256 own a bucket each; above, each power of two
    // splits into 128 buckets, so 256 and 257 share one [256, 257]
    // and 1000-1003 share another. Nothing overflows: a sample at the
    // top of uint64_t is counted and lands in the last bucket.
    Histogram hist;
    for (uint64_t v : {0ull, 1ull, 255ull, 256ull, 257ull, 1000ull, 1003ull,
                       ~0ull})
        hist.add(v);
    EXPECT_EQ(hist.total(), 8u);
    EXPECT_EQ(hist.quantile(0.0 / 8), 0.0);
    EXPECT_EQ(hist.quantile(1.0 / 8), 1.0);
    EXPECT_EQ(hist.quantile(2.0 / 8), 255.0);
    EXPECT_EQ(hist.quantile(3.0 / 8), 256.5);
    EXPECT_EQ(hist.quantile(4.0 / 8), 256.5);
    EXPECT_EQ(hist.quantile(5.0 / 8), 1001.5);
    EXPECT_EQ(hist.quantile(6.0 / 8), 1001.5);
    // Last bucket: [255 * 2^56, 2^64 - 1], midpoint 255.5 * 2^56.
    EXPECT_EQ(hist.quantile(1.0), std::ldexp(255.5, 56));
}

TEST(Histogram, QuantileMedian)
{
    Histogram hist;
    for (uint64_t i = 0; i < 100; ++i)
        hist.add(i);
    EXPECT_EQ(hist.quantile(0.5), 50.0);
    EXPECT_EQ(hist.quantile(0.9), 90.0);

    Histogram scaled;
    for (uint64_t i = 0; i < 100; ++i)
        scaled.add(i * 1000);
    EXPECT_NEAR(scaled.quantile(0.5), 50000.0, 50000.0 / 256);
    EXPECT_NEAR(scaled.quantile(0.9), 90000.0, 90000.0 / 256);
}

TEST(Histogram, PercentileOfEmptyHistogramIsLowerBound)
{
    Histogram hist;
    // No samples: every percentile reads 0, the bottom of the domain,
    // rather than dividing by zero or walking past the buckets.
    EXPECT_EQ(hist.percentile(0.0), 0.0);
    EXPECT_EQ(hist.percentile(50.0), 0.0);
    EXPECT_EQ(hist.percentile(100.0), 0.0);
}

TEST(Histogram, PercentileSingleSampleIsItsBucketMidpoint)
{
    Histogram exact;
    exact.add(3); // its own bucket: exact
    Histogram wide;
    wide.add(1000); // bucket [1000, 1003], midpoint 1001.5
    for (double p : {0.0, 50.0, 99.0, 100.0}) {
        EXPECT_EQ(exact.percentile(p), 3.0) << p;
        EXPECT_EQ(wide.percentile(p), 1001.5) << p;
    }
}

TEST(Histogram, PercentileAllEqualSamplesStaysInTheirBucket)
{
    Histogram small;
    Histogram large;
    for (int i = 0; i < 1000; ++i) {
        small.add(42);
        large.add(123456789);
    }
    const double mid = large.percentile(50.0);
    EXPECT_NEAR(mid, 123456789.0, 123456789.0 / 256);
    for (double p : {1.0, 50.0, 99.0}) {
        EXPECT_EQ(small.percentile(p), 42.0) << p;
        EXPECT_EQ(large.percentile(p), mid) << p;
    }
}

TEST(Histogram, MergeFoldsCountsUnderflowAndOverflow)
{
    // Both ends of the domain fold: 0 and UINT64_MAX, where a ranged
    // histogram would have under- and overflowed. Merging a wider
    // histogram into a narrower one grows the target.
    Histogram a;
    Histogram b;
    a.add(1);
    a.add(0);
    b.add(1);
    b.add(8);
    b.add(~0ull);
    a.merge(b);
    EXPECT_EQ(a.total(), 5u);
    EXPECT_EQ(a.quantile(0.0 / 5), 0.0);
    EXPECT_EQ(a.quantile(1.0 / 5), 1.0); // both 1 samples
    EXPECT_EQ(a.quantile(2.0 / 5), 1.0);
    EXPECT_EQ(a.quantile(3.0 / 5), 8.0);
    EXPECT_EQ(a.quantile(4.0 / 5), std::ldexp(255.5, 56));
}

TEST(Histogram, MergePercentilesMatchSingleHistogram)
{
    // Recording the same samples across N shards and merging must
    // give the same percentiles as one histogram seeing everything —
    // the fleet's per-node p99s rely on this being lossless.
    Histogram merged;
    Histogram shard0;
    Histogram shard1;
    Histogram reference;
    for (uint64_t i = 0; i < 1000; ++i) {
        const uint64_t sample = ((i * 37) % 100) << (i % 40);
        (i % 2 == 0 ? shard0 : shard1).add(sample);
        reference.add(sample);
    }
    merged.merge(shard0);
    merged.merge(shard1);
    EXPECT_EQ(merged.total(), reference.total());
    for (double p : {0.0, 50.0, 95.0, 99.0, 100.0})
        EXPECT_EQ(merged.percentile(p), reference.percentile(p)) << p;
}

TEST(Histogram, MergeOfEmptyIsIdentity)
{
    Histogram a;
    Histogram b;
    a.add(3000);
    const double before = a.percentile(50.0);
    a.merge(b);
    EXPECT_EQ(a.total(), 1u);
    EXPECT_EQ(a.percentile(50.0), before);
    // Merging *into* an empty histogram adopts the other's counts.
    b.merge(a);
    EXPECT_EQ(b.total(), 1u);
    EXPECT_EQ(b.percentile(50.0), before);
}

TEST(Histogram, ResetForgetsEverySample)
{
    Histogram hist;
    hist.add(5, 3);
    hist.add(1u << 30);
    hist.reset();
    EXPECT_EQ(hist.total(), 0u);
    EXPECT_EQ(hist.percentile(100.0), 0.0);
    hist.add(7);
    EXPECT_EQ(hist.total(), 1u);
    EXPECT_EQ(hist.percentile(100.0), 7.0);
}

TEST(Histogram, UnclampedAtUint64MaxAndOneHourInNs)
{
    const uint64_t hour = 3600ull * 1000 * 1000 * 1000;
    for (const uint64_t v : {hour, uint64_t{~0ull}}) {
        Histogram hist;
        hist.add(v);
        const double exact = static_cast<double>(v);
        EXPECT_NEAR(hist.percentile(100.0), exact, exact / 256) << v;
    }
}

TEST(Histogram, QuantilesWithinOneIn256OfExactOrderStatistic)
{
    // Random sample sets spanning every octave up to 2^63: each
    // quantile must sit within 1/256 (relative) of the exact order
    // statistic of rank min(floor(q * n), n - 1), and be exact below
    // 256.
    const uint64_t seed = testing::testSeed(0x4d157);
    Rng rng(seed);
    for (int set = 0; set < 200; ++set) {
        const uint64_t n = 1 + rng.next(5000);
        Histogram hist;
        std::vector<uint64_t> samples(n);
        for (uint64_t &v : samples) {
            v = (rng() >> 1) >> rng.next(64);
            hist.add(v);
        }
        std::sort(samples.begin(), samples.end());
        for (double q : {0.0, 0.001, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
            const uint64_t rank = std::min(
                static_cast<uint64_t>(q * static_cast<double>(n)), n - 1);
            const double exact = static_cast<double>(samples[rank]);
            const double got = hist.quantile(q);
            if (samples[rank] < 256)
                EXPECT_EQ(got, exact) << "seed " << seed << " q " << q;
            else
                EXPECT_LE(std::abs(got - exact), exact / 256)
                    << "seed " << seed << " q " << q;
        }
    }
}

// Series --------------------------------------------------------------

TEST(Series, InterpolationAndClamping)
{
    Series s{"s", {}, {}};
    s.add(0.0, 0.0);
    s.add(1.0, 10.0);
    s.add(2.0, 30.0);
    EXPECT_DOUBLE_EQ(s.at(0.5), 5.0);
    EXPECT_DOUBLE_EQ(s.at(1.5), 20.0);
    EXPECT_DOUBLE_EQ(s.at(-1.0), 0.0);
    EXPECT_DOUBLE_EQ(s.at(5.0), 30.0);
}

TEST(Series, MinMax)
{
    Series s{"s", {}, {}};
    s.add(0.0, 3.0);
    s.add(1.0, -2.0);
    s.add(2.0, 7.0);
    EXPECT_EQ(s.maxY(), 7.0);
    EXPECT_EQ(s.minY(), -2.0);
}

// Units ---------------------------------------------------------------

TEST(Units, RoundTripSeconds)
{
    EXPECT_EQ(fromSeconds(1.5), 1500000000ull);
    EXPECT_DOUBLE_EQ(toSeconds(fromSeconds(2.25)), 2.25);
    EXPECT_DOUBLE_EQ(toMillis(fromMillis(33.0)), 33.0);
    EXPECT_DOUBLE_EQ(toMicros(fromMicros(250.0)), 250.0);
}

TEST(Units, FormatTimePicksUnit)
{
    EXPECT_EQ(formatTime(5), "5 ns");
    EXPECT_EQ(formatTime(fromMicros(12.0)), "12.000 us");
    EXPECT_EQ(formatTime(fromMillis(33.0)), "33.000 ms");
    EXPECT_EQ(formatTime(fromSeconds(2.0)), "2.000 s");
}

TEST(Units, FormatBytesPicksUnit)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(8 * kMiB), "8.00 MiB");
    EXPECT_EQ(formatBytes(3 * kGiB), "3.00 GiB");
}

// Table ---------------------------------------------------------------

TEST(Table, RenderContainsHeaderAndRows)
{
    Table table("Table 1. Update throughput");
    table.setHeader({"Configuration", "Updates/s"});
    table.addRow({"Mnemosyne", "2160"});
    table.addRow({"WSP", "5274"});
    const std::string out = table.render();
    EXPECT_NE(out.find("Configuration"), std::string::npos);
    EXPECT_NE(out.find("Mnemosyne"), std::string::npos);
    EXPECT_NE(out.find("5274"), std::string::npos);
}

// ShapeCheck ----------------------------------------------------------

TEST(ShapeCheck, PassAndFail)
{
    ShapeCheck check("unit");
    check.expectBetween("in range", 5.0, 1.0, 10.0);
    EXPECT_TRUE(check.allPassed());
    check.expectBetween("out of range", 50.0, 1.0, 10.0);
    EXPECT_FALSE(check.allPassed());
}

TEST(ShapeCheck, RatioCheck)
{
    ShapeCheck check("unit");
    check.expectRatio("2x", 10.0, 5.0, 1.5, 2.5);
    EXPECT_TRUE(check.allPassed());
    check.expectRatio("div by zero fails", 10.0, 0.0, 0.0, 100.0);
    EXPECT_FALSE(check.allPassed());
}

TEST(ShapeCheck, GreaterAndTrue)
{
    ShapeCheck check("unit");
    check.expectGreater("bigger", 2.0, 1.0);
    check.expectTrue("holds", true);
    EXPECT_TRUE(check.allPassed());
}

// AsciiChart ----------------------------------------------------------

TEST(AsciiChart, RendersLegendPerSeries)
{
    AsciiChart chart("fig", "x", "y");
    Series s1{"first", {}, {}};
    s1.add(0, 1);
    s1.add(1, 2);
    Series s2{"second", {}, {}};
    s2.add(0, 2);
    s2.add(1, 1);
    chart.addSeries(s1);
    chart.addSeries(s2);
    const std::string out = chart.render(40, 10);
    EXPECT_NE(out.find("first"), std::string::npos);
    EXPECT_NE(out.find("second"), std::string::npos);
}

// Checksum ------------------------------------------------------------

TEST(Checksum, DeterministicAndSensitive)
{
    const uint8_t a[] = {1, 2, 3};
    const uint8_t b[] = {1, 2, 4};
    EXPECT_EQ(fnv1a(a), fnv1a(a));
    EXPECT_NE(fnv1a(a), fnv1a(b));
}

TEST(Checksum, U64MatchesByteVersion)
{
    const uint64_t value = 0x0123456789abcdefull;
    uint8_t bytes[8];
    uint64_t v = value;
    for (auto &byte : bytes) {
        byte = static_cast<uint8_t>(v & 0xff);
        v >>= 8;
    }
    EXPECT_EQ(fnv1aU64(value), fnv1a(bytes));
}

TEST(Checksum, SeedChaining)
{
    EXPECT_NE(fnv1aU64(1, fnv1aU64(2)), fnv1aU64(2, fnv1aU64(1)));
}

// Arena --------------------------------------------------------------

TEST(Arena, AllocationsAreDisjointAndAligned)
{
    util::Arena arena;
    auto *a = arena.allocate<uint64_t>(4);
    auto *b = arena.allocate<uint64_t>(4);
    EXPECT_NE(a, b);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % alignof(uint64_t), 0u);
    void *c = arena.allocate(1, 64);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(c) % 64, 0u);
    a[3] = 0x1234;
    b[0] = 0x5678;
    EXPECT_EQ(a[3], 0x1234u); // no overlap
}

TEST(Arena, ResetRecyclesChunksInPlace)
{
    util::Arena arena(256);
    for (int i = 0; i < 8; ++i)
        arena.allocate(200);
    const size_t chunks = arena.chunkCount();
    const size_t reserved = arena.bytesReserved();
    arena.reset();
    EXPECT_EQ(arena.bytesAllocated(), 0u);
    void *first = arena.allocate(200);
    for (int i = 0; i < 7; ++i)
        arena.allocate(200);
    // Same footprint after a full refill: reset reuses pages rather
    // than growing, and the first allocation lands back in chunk 0.
    EXPECT_EQ(arena.chunkCount(), chunks);
    EXPECT_EQ(arena.bytesReserved(), reserved);
    arena.reset();
    EXPECT_EQ(arena.allocate(200), first);
}

TEST(Arena, OversizedRequestGetsDedicatedChunk)
{
    util::Arena arena(64);
    void *big = arena.allocate(1024);
    ASSERT_NE(big, nullptr);
    EXPECT_GE(arena.bytesReserved(), 1024u);
}

// Slab ---------------------------------------------------------------

TEST(Slab, AcquireReleaseRecyclesSlots)
{
    util::Slab<int> slab;
    const uint32_t a = slab.acquire();
    const uint32_t b = slab.acquire();
    EXPECT_NE(a, b);
    EXPECT_EQ(slab.liveCount(), 2u);
    slab.release(b);
    EXPECT_EQ(slab.acquire(), b); // LIFO free list reuses the slot
    EXPECT_EQ(slab.capacity(), 2u);
}

TEST(Slab, GenerationStalesHandlesOnRelease)
{
    util::Slab<int> slab;
    const uint32_t slot = slab.acquire();
    const uint32_t generation = slab.generation(slot);
    EXPECT_TRUE(slab.alive(slot, generation));
    slab.release(slot);
    EXPECT_FALSE(slab.alive(slot, generation));
    const uint32_t again = slab.acquire();
    ASSERT_EQ(again, slot);
    EXPECT_FALSE(slab.alive(slot, generation)); // old handle stays dead
    EXPECT_TRUE(slab.alive(slot, slab.generation(slot)));
    EXPECT_FALSE(slab.alive(99, 0)); // out-of-range index never alive
}

TEST(Slab, ValuesPersistAcrossUnrelatedReleases)
{
    util::Slab<uint64_t> slab;
    const uint32_t keep = slab.acquire();
    const uint32_t drop = slab.acquire();
    slab[keep] = 0xfeed;
    slab.release(drop);
    slab.acquire();
    EXPECT_EQ(slab[keep], 0xfeedu);
}

// SmallFn ------------------------------------------------------------

TEST(SmallFn, EmptyIsFalseAndAssignableLater)
{
    util::SmallFn<48> fn;
    EXPECT_FALSE(static_cast<bool>(fn));
    int calls = 0;
    fn = util::SmallFn<48>([&calls] { ++calls; });
    ASSERT_TRUE(static_cast<bool>(fn));
    fn();
    EXPECT_EQ(calls, 1);
}

TEST(SmallFn, SmallCaptureStaysInline)
{
    int calls = 0;
    int *counter = &calls;
    util::SmallFn<48> fn([counter] { ++*counter; });
    EXPECT_TRUE(fn.isInline());
    util::SmallFn<48> moved = std::move(fn);
    EXPECT_FALSE(static_cast<bool>(fn));
    moved();
    EXPECT_EQ(calls, 1);
}

TEST(SmallFn, OversizedCaptureFallsBackToHeap)
{
    struct Big
    {
        char bytes[96];
    };
    Big big{};
    big.bytes[0] = 7;
    char seen = 0;
    util::SmallFn<48> fn([big, &seen] { seen = big.bytes[0]; });
    EXPECT_FALSE(fn.isInline());
    util::SmallFn<48> moved = std::move(fn);
    moved();
    EXPECT_EQ(seen, 7);
}

TEST(SmallFn, NonTrivialCaptureRelocatesAndDestroys)
{
    // A move-only, non-trivially-copyable capture exercises the
    // relocate path that trivially-copyable closures skip.
    auto owned = std::make_unique<int>(41);
    int result = 0;
    util::SmallFn<48> fn(
        [p = std::move(owned), &result] { result = *p + 1; });
    EXPECT_TRUE(fn.isInline());
    util::SmallFn<48> moved = std::move(fn);
    util::SmallFn<48> assigned;
    assigned = std::move(moved);
    assigned();
    EXPECT_EQ(result, 42);
    assigned = util::SmallFn<48>(); // destructor path frees the capture
    EXPECT_FALSE(static_cast<bool>(assigned));
}

TEST(SmallFn, DestructionReleasesCaptureExactlyOnce)
{
    const auto alive = std::make_shared<int>(1);
    {
        util::SmallFn<48> fn([keep = alive] { (void)keep; });
        util::SmallFn<48> moved = std::move(fn);
        EXPECT_EQ(alive.use_count(), 2); // moved-from holds nothing
    }
    EXPECT_EQ(alive.use_count(), 1);
}

} // namespace
} // namespace wsp
