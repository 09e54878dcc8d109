/**
 * @file
 * Tests for the workload generators, the checkpoint scheduler, and
 * the failure injector.
 */

#include <gtest/gtest.h>

#include <map>

#include "apps/checkpoint.h"
#include "apps/workload.h"
#include "core/failure_injector.h"
#include "core/system.h"
#include "nvram/nvdimm.h"

namespace wsp {
namespace {

using namespace wsp::apps;

// ZipfianSampler --------------------------------------------------------

TEST(Zipfian, KeysInRange)
{
    Rng rng(1);
    ZipfianSampler zipf(1000, 0.99);
    for (int i = 0; i < 10000; ++i) {
        const uint64_t key = zipf.next(rng);
        EXPECT_GE(key, 1u);
        EXPECT_LE(key, 1000u);
    }
}

TEST(Zipfian, HotKeysDominate)
{
    Rng rng(2);
    ZipfianSampler zipf(100000, 0.99);
    uint64_t top10 = 0;
    constexpr int kDraws = 50000;
    for (int i = 0; i < kDraws; ++i)
        top10 += zipf.next(rng) <= 10 ? 1 : 0;
    // Under theta=0.99 Zipf the top 10 of 100k keys draw a large
    // share; uniform would give 0.01%.
    EXPECT_GT(static_cast<double>(top10) / kDraws, 0.20);
}

TEST(Zipfian, LowerThetaIsFlatter)
{
    Rng rng1(3);
    Rng rng2(3);
    ZipfianSampler hot(10000, 0.99);
    ZipfianSampler mild(10000, 0.5);
    uint64_t hot_top = 0;
    uint64_t mild_top = 0;
    for (int i = 0; i < 20000; ++i) {
        hot_top += hot.next(rng1) <= 10 ? 1 : 0;
        mild_top += mild.next(rng2) <= 10 ? 1 : 0;
    }
    EXPECT_GT(hot_top, 2 * mild_top);
}

TEST(Zipfian, SingleKeySpace)
{
    Rng rng(4);
    ZipfianSampler zipf(1, 0.9);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(zipf.next(rng), 1u);
}

// generateWorkload -------------------------------------------------------

TEST(Workload, RespectsUpdateProbability)
{
    Rng rng(5);
    WorkloadSpec spec;
    spec.updateProbability = 0.3;
    const auto ops = generateWorkload(spec, 50000, rng);
    uint64_t updates = 0;
    for (const auto &op : ops)
        updates += op.kind != OpKind::Lookup ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(updates) / ops.size(), 0.3, 0.02);
}

TEST(Workload, UpdatesSplitEvenly)
{
    Rng rng(6);
    WorkloadSpec spec;
    spec.updateProbability = 1.0;
    const auto ops = generateWorkload(spec, 50000, rng);
    uint64_t inserts = 0;
    for (const auto &op : ops)
        inserts += op.kind == OpKind::Insert ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(inserts) / ops.size(), 0.5, 0.02);
}

TEST(Workload, KeysWithinSpace)
{
    Rng rng(7);
    WorkloadSpec spec;
    spec.keySpace = 123;
    spec.distribution = KeyDistribution::Zipfian;
    for (const auto &op : generateWorkload(spec, 5000, rng)) {
        EXPECT_GE(op.key, 1u);
        EXPECT_LE(op.key, 123u);
    }
}

TEST(Workload, DeterministicPerSeed)
{
    Rng a(8);
    Rng b(8);
    WorkloadSpec spec;
    const auto ops1 = generateWorkload(spec, 100, a);
    const auto ops2 = generateWorkload(spec, 100, b);
    for (size_t i = 0; i < ops1.size(); ++i) {
        EXPECT_EQ(ops1[i].key, ops2[i].key);
        EXPECT_EQ(ops1[i].kind, ops2[i].kind);
    }
}

// CheckpointScheduler -----------------------------------------------------

struct CheckpointFixture : ::testing::Test
{
    CheckpointFixture()
        : dimm(queue, "d",
               [] {
                   NvdimmConfig config;
                   config.capacityBytes = 8 * kMiB;
                   config.flashChannels = 1;
                   return config;
               }())
    {
        space.addModule(dimm);
        cache = std::make_unique<CacheModel>("L3", 2 * kMiB,
                                             CacheTiming{}, space);
        store = std::make_unique<KvStore>(*cache, 0, 1024);
    }

    EventQueue queue;
    NvdimmModule dimm;
    NvramSpace space;
    std::unique_ptr<CacheModel> cache;
    std::unique_ptr<KvStore> store;
    BackendStore backend;
};

TEST_F(CheckpointFixture, PeriodicCheckpointsHappen)
{
    CheckpointConfig config;
    config.checkpointPeriod = fromSeconds(1.0);
    CheckpointScheduler scheduler(queue, *store, backend, config);
    scheduler.start();
    queue.runUntil(fromSeconds(3.5));
    scheduler.stop();
    queue.run();
    EXPECT_EQ(scheduler.checkpointsTaken(), 4u); // t=0,1,2,3
}

TEST_F(CheckpointFixture, UpdatesShipOnInterval)
{
    CheckpointConfig config;
    config.checkpointPeriod = fromSeconds(100.0);
    config.shipInterval = fromMillis(10.0);
    CheckpointScheduler scheduler(queue, *store, backend, config);
    scheduler.start();
    store->put(1, 11);
    scheduler.noteUpdate({1, 11, false});
    EXPECT_EQ(scheduler.unshippedUpdates(), 1u);
    queue.runUntil(fromMillis(25.0));
    EXPECT_EQ(scheduler.unshippedUpdates(), 0u);
    EXPECT_EQ(backend.logEntries(), 1u);
}

TEST_F(CheckpointFixture, CheckpointTruncatesLog)
{
    CheckpointConfig config;
    config.checkpointPeriod = fromSeconds(1.0);
    CheckpointScheduler scheduler(queue, *store, backend, config);
    scheduler.start();
    store->put(1, 11);
    scheduler.noteUpdate({1, 11, false});
    queue.runUntil(fromSeconds(1.5)); // second checkpoint at t=1
    scheduler.stop();
    queue.run();
    EXPECT_EQ(backend.logEntries(), 0u); // folded into the checkpoint
    KvStore fresh(*cache, 4 * kMiB, 1024);
    backend.recoverInto(&fresh);
    EXPECT_EQ(fresh.size(), 1u);
}

TEST_F(CheckpointFixture, RecoveryReflectsCheckpointPlusShippedLog)
{
    CheckpointConfig config;
    config.checkpointPeriod = fromSeconds(100.0);
    config.shipInterval = fromMillis(10.0);
    CheckpointScheduler scheduler(queue, *store, backend, config);
    scheduler.start(); // checkpoint of the empty store at t=0

    store->put(1, 11);
    scheduler.noteUpdate({1, 11, false});
    queue.runUntil(fromMillis(20.0)); // shipped
    store->put(2, 22);
    scheduler.noteUpdate({2, 22, false}); // NOT shipped yet
    scheduler.stop();

    KvStore fresh(*cache, 4 * kMiB, 1024);
    backend.recoverInto(&fresh);
    EXPECT_TRUE(fresh.get(1));
    EXPECT_FALSE(fresh.get(2)); // the unshipped tail is lost
}

// FailureInjector ---------------------------------------------------------

TEST(FailureInjectorTest, ExactWindowConfig)
{
    SystemConfig config = FailureInjector::withExactWindow(
        SystemConfig{}, fromMillis(7.0));
    EXPECT_EQ(config.psu.busyWindow, fromMillis(7.0));
    EXPECT_EQ(config.psu.windowJitter, 0u);
}

TEST(FailureInjectorTest, OutageTrainAllRecover)
{
    SystemConfig config;
    config.nvdimmCount = 2;
    config.nvdimm.capacityBytes = 4 * kMiB;
    config.nvdimm.flashChannels = 1;
    config.devices.clear();
    config.wsp.firmwareBootLatency = fromMillis(50.0);
    WspSystem system(config);
    system.start();
    for (int cycle = 0; cycle < 3; ++cycle) {
        const PowerFailureOutcome outcome =
            system.powerFailAndRestore(fromMillis(10.0), fromSeconds(5.0));
        EXPECT_TRUE(outcome.restore.usedWsp) << "cycle " << cycle;
    }
}

TEST(FailureInjectorTest, DrainedUltracapFailsNextSave)
{
    SystemConfig config;
    config.nvdimmCount = 1;
    config.nvdimm.capacityBytes = 4 * kMiB;
    config.nvdimm.flashChannels = 1;
    // A power-hungry save engine: with a drained bank the ESR drop
    // pushes the terminal voltage below the floor immediately.
    config.nvdimm.savePowerWatts = 40.0;
    config.devices.clear();
    config.wsp.firmwareBootLatency = fromMillis(50.0);
    WspSystem system(config);
    system.start();
    FailureInjector injector(system);
    injector.drainUltracap(0, 6.3); // just above the floor

    bool backend_ran = false;
    auto outcome = system.powerFailAndRestore(
        fromMillis(5.0), fromSeconds(30.0), [&] { backend_ran = true; });
    EXPECT_FALSE(outcome.restore.usedWsp);
    EXPECT_TRUE(backend_ran);
}

} // namespace
} // namespace wsp
