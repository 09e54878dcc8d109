/**
 * @file
 * Parameterized property tests for the WSP core.
 *
 * Sweeps the central invariant across platforms, PSUs, and a dense
 * ladder of failure-injection points, and covers the awkward corners:
 * power failing *again* during a restore, outages ending inside the
 * residual window, back-to-back failure cycles, and save attempts
 * under the strawman device policy.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "apps/kv_store.h"
#include "core/system.h"
#include "test_seed.h"

namespace wsp {
namespace {

SystemConfig
baseConfig()
{
    SystemConfig config;
    config.nvdimmCount = 2;
    config.nvdimm.capacityBytes = 4 * kMiB;
    config.nvdimm.flashChannels = 1;
    config.devices.clear();
    config.wsp.firmwareBootLatency = fromMillis(50.0);
    config.wsp.osResumeLatency = fromMillis(1.0);
    return config;
}

// Sweep: platform x window --------------------------------------------------

using PlatformWindowParam = std::tuple<int, double>; // platform, window ms

class PlatformWindowSweep
    : public ::testing::TestWithParam<PlatformWindowParam>
{
};

TEST_P(PlatformWindowSweep, InvariantHoldsEverywhere)
{
    const auto [platform_index, window_ms] = GetParam();
    SystemConfig config = baseConfig();
    config.platform = allPlatforms().at(
        static_cast<size_t>(platform_index));
    config.psu.windowJitter = 0;
    config.psu.pwrOkDetectDelay = 0;
    config.psu.busyWindow = fromMillis(window_ms);
    config.psu.idleWindow = fromMillis(window_ms);

    WspSystem system(config);
    system.start();

    apps::KvStore store(system.cache(), 0, 512);
    SCOPED_TRACE(testing::seedTrace(4));
    Rng rng(testing::testSeed(4));
    for (uint64_t i = 1; i <= 200; ++i)
        store.put(i, rng());
    const uint64_t checksum = store.checksum();

    bool backend_ran = false;
    auto outcome = system.powerFailAndRestore(
        fromMillis(5.0), fromSeconds(30.0), [&] { backend_ran = true; });

    if (outcome.restore.usedWsp) {
        auto restored = apps::KvStore::attach(system.cache(), 0);
        ASSERT_TRUE(restored.has_value());
        EXPECT_EQ(restored->checksum(), checksum)
            << config.platform.name << " @ " << window_ms << " ms";
        EXPECT_FALSE(backend_ran);
    } else {
        EXPECT_TRUE(backend_ran);
    }
    EXPECT_TRUE(system.wsp().running());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PlatformWindowSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(0.05, 1.0, 2.0, 3.0, 4.0, 10.0,
                                         33.0)),
    [](const auto &info) {
        std::string name = "p";
        name += std::to_string(std::get<0>(info.param));
        name += "_us";
        name += std::to_string(
            static_cast<int>(std::get<1>(info.param) * 1000));
        return name;
    });

TEST(PlatformWindowSweepCoverage, BothRegimesOccur)
{
    // The grid above must actually include both outcomes; verify with
    // the fastest and slowest platforms at the extreme windows.
    int used_wsp = 0;
    int fell_back = 0;
    for (double ms : {0.05, 33.0}) {
        SystemConfig config = baseConfig();
        config.psu.windowJitter = 0;
        config.psu.pwrOkDetectDelay = 0;
        config.psu.busyWindow = fromMillis(ms);
        config.psu.idleWindow = fromMillis(ms);
        WspSystem system(config);
        system.start();
        auto outcome = system.powerFailAndRestore(fromMillis(5.0),
                                                  fromSeconds(30.0));
        (outcome.restore.usedWsp ? used_wsp : fell_back) += 1;
    }
    EXPECT_EQ(used_wsp, 1);
    EXPECT_EQ(fell_back, 1);
}

// PSU preset sweep ------------------------------------------------------

class PsuPresetSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(PsuPresetSweep, RealPresetsAlwaysFitTheSave)
{
    // Paper section 5.3: measured windows are 2.5-80x the save time on
    // every real configuration, so the save must always complete.
    const PsuPreset presets[] = {psuPresetAmd400W(), psuPresetAmd525W(),
                                 psuPresetIntel750W(),
                                 psuPresetIntel1050W()};
    SystemConfig config = baseConfig();
    config.psu = presets[static_cast<size_t>(GetParam())];
    WspSystem system(config);
    system.start();
    auto outcome = system.powerFailAndRestore(fromMillis(5.0),
                                              fromSeconds(30.0));
    ASSERT_TRUE(outcome.save.has_value());
    EXPECT_TRUE(outcome.restore.usedWsp);
    const auto fraction = system.wsp().windowFractionUsed();
    ASSERT_TRUE(fraction.has_value());
    // Paper: the save fits within 2-35% of the window.
    EXPECT_LT(*fraction, 0.40);
}

INSTANTIATE_TEST_SUITE_P(AllPsus, PsuPresetSweep,
                         ::testing::Values(0, 1, 2, 3));

// Awkward corners ---------------------------------------------------------

TEST(WspCorners, OutageEndsInsideResidualWindow)
{
    // Power comes back before regulation is lost: no hard power loss,
    // but the save already ran and halted the machine; the boot path
    // restores from the (completed or in-flight) NVDIMM save.
    SystemConfig config = baseConfig();
    WspSystem system(config);
    system.start();
    apps::KvStore store(system.cache(), 0, 256);
    store.put(5, 55);
    const uint64_t checksum = store.checksum();

    // Outage of 10 ms against a 33 ms window.
    auto outcome = system.powerFailAndRestore(fromMillis(5.0),
                                              fromMillis(10.0));
    EXPECT_TRUE(outcome.restore.usedWsp);
    auto restored = apps::KvStore::attach(system.cache(), 0);
    ASSERT_TRUE(restored.has_value());
    EXPECT_EQ(restored->checksum(), checksum);
}

TEST(WspCorners, ThreeConsecutiveCycles)
{
    SystemConfig config = baseConfig();
    WspSystem system(config);
    system.start();
    apps::KvStore store(system.cache(), 0, 512);
    SCOPED_TRACE(testing::seedTrace(6));
    Rng rng(testing::testSeed(6));
    uint64_t key = 1;
    for (int cycle = 0; cycle < 3; ++cycle) {
        for (int i = 0; i < 50; ++i)
            store.put(key++, rng());
        const uint64_t checksum = store.checksum();
        auto outcome = system.powerFailAndRestore(fromMillis(5.0),
                                                  fromSeconds(10.0));
        ASSERT_TRUE(outcome.restore.usedWsp) << "cycle " << cycle;
        auto restored = apps::KvStore::attach(system.cache(), 0);
        ASSERT_TRUE(restored.has_value());
        EXPECT_EQ(restored->checksum(), checksum) << "cycle " << cycle;
    }
}

TEST(WspCorners, SaveWithHugeDirtyFootprint)
{
    // Dirty the whole cache on the largest platform; the save must
    // still fit comfortably (wbinvd is flat).
    SystemConfig config = baseConfig();
    config.platform = platformIntelX5650();
    config.nvdimm.capacityBytes = 16 * kMiB; // room for 12 MiB of lines
    WspSystem system(config);
    system.start();
    SCOPED_TRACE(testing::seedTrace(7));
    Rng rng(testing::testSeed(7));
    system.machine().fillCachesDirty(
        config.platform.cachePerSocket, rng);
    auto outcome = system.powerFailAndRestore(fromMillis(5.0),
                                              fromSeconds(10.0));
    ASSERT_TRUE(outcome.save.has_value());
    EXPECT_TRUE(outcome.restore.usedWsp);
    EXPECT_LT(toMillis(outcome.save->duration()), 5.0);
}

TEST(WspCorners, DirtyLinesReallyNeedTheFlush)
{
    // Negative control: if the failure hits before the flush step,
    // dirty lines are gone. This is what distinguishes WSP from "DRAM
    // happens to be non-volatile".
    SystemConfig config = baseConfig();
    config.psu.windowJitter = 0;
    config.psu.pwrOkDetectDelay = 0;
    config.psu.busyWindow = fromMicros(1.0); // save can't even start
    config.psu.idleWindow = fromMicros(1.0);
    config.wsp.armNvdimms = true; // modules still self-save
    WspSystem system(config);
    system.start();
    apps::KvStore store(system.cache(), 0, 256);
    store.put(1, 111); // sits dirty in cache

    bool backend_ran = false;
    auto outcome = system.powerFailAndRestore(
        fromMillis(5.0), fromSeconds(10.0), [&] { backend_ran = true; });
    // The NVDIMM image exists (auto-save) but the marker was never
    // stamped, so WSP recovery must refuse it.
    EXPECT_FALSE(outcome.restore.usedWsp);
    EXPECT_TRUE(backend_ran);
}

TEST(WspCorners, WindowFractionMatchesPaperBand)
{
    // Paper abstract: flush-on-fail completes within 2-35% of the
    // residual window on standard supplies. Check the two testbeds on
    // their own PSUs.
    struct Case
    {
        PlatformSpec platform;
        PsuPreset psu;
    };
    for (auto &[platform, psu] :
         {Case{platformIntelC5528(), psuPresetIntel1050W()},
          Case{platformAmd4180(), psuPresetAmd400W()}}) {
        SystemConfig config = baseConfig();
        config.platform = platform;
        config.psu = psu;
        config.psu.windowJitter = 0;
        WspSystem system(config);
        system.start();
        system.powerFailAndRestore(fromMillis(5.0), fromSeconds(10.0));
        const auto fraction = system.wsp().windowFractionUsed();
        ASSERT_TRUE(fraction.has_value()) << platform.name;
        EXPECT_GT(*fraction, 0.002) << platform.name;
        EXPECT_LT(*fraction, 0.35) << platform.name;
    }
}

TEST(WspCorners, StrawmanPolicyOnIdleDevicesStillTooSlow)
{
    // Even with zero outstanding I/O, ACPI suspend takes seconds and
    // cannot fit any real window (Fig. 9's "idle" bars).
    SystemConfig config = baseConfig();
    config.devices = deviceSetIntel();
    config.wsp.devicePolicy = DevicePolicy::AcpiSuspendOnSave;
    WspSystem system(config);
    system.start();
    bool backend_ran = false;
    auto outcome = system.powerFailAndRestore(
        fromMillis(5.0), fromSeconds(30.0), [&] { backend_ran = true; });
    EXPECT_FALSE(outcome.save.has_value());
    EXPECT_FALSE(outcome.restore.usedWsp);
    EXPECT_TRUE(backend_ran);
}

TEST(WspCorners, SecondFailureDuringRestoreIsSurvivable)
{
    // Power fails again while the machine is still booting from the
    // first failure. The interrupted restore must go quiet, and a
    // third boot must end with a running system and intact (or
    // back-end-recovered) state — never a torn resume.
    SystemConfig config = baseConfig();
    config.wsp.firmwareBootLatency = fromMillis(200.0);
    WspSystem system(config);
    system.start();
    apps::KvStore store(system.cache(), 0, 256);
    store.put(9, 99);
    const uint64_t checksum = store.checksum();

    // First failure and outage.
    system.psu().failInputAt(system.queue().now() + fromMillis(5.0));
    system.runFor(fromSeconds(5.0));

    // Boot, but kill the power again mid-firmware (before the boot
    // callback can possibly run).
    bool first_boot_done = false;
    system.wsp().boot(nullptr,
                      [&](RestoreReport) { first_boot_done = true; });
    system.psu().failInputAt(system.queue().now() + fromMillis(50.0));
    system.runFor(fromSeconds(5.0));
    EXPECT_FALSE(first_boot_done); // the interrupted boot went quiet

    // Third attempt with stable power.
    bool backend_ran = false;
    bool second_boot_done = false;
    RestoreReport report;
    system.wsp().boot([&] { backend_ran = true; },
                      [&](RestoreReport r) {
        report = r;
        second_boot_done = true;
    });
    while (!second_boot_done && system.queue().step()) {
    }
    ASSERT_TRUE(second_boot_done);
    EXPECT_TRUE(system.wsp().running());
    if (report.usedWsp) {
        auto restored = apps::KvStore::attach(system.cache(), 0);
        ASSERT_TRUE(restored.has_value());
        EXPECT_EQ(restored->checksum(), checksum);
    } else {
        EXPECT_TRUE(backend_ran);
    }
}

TEST(WspCorners, SecondFailureAfterMarkerClearFallsBack)
{
    // Kill power in the tiny window after the restore consumed the
    // marker (contexts restored) but before the OS resume completes.
    // The third boot must refuse the stale image and use the back end.
    SystemConfig config = baseConfig();
    config.wsp.osResumeLatency = fromMillis(100.0);
    WspSystem system(config);
    system.start();
    apps::KvStore store(system.cache(), 0, 256);
    store.put(3, 33);

    system.psu().failInputAt(system.queue().now() + fromMillis(5.0));
    system.runFor(fromSeconds(5.0));

    bool first_boot_done = false;
    system.wsp().boot(nullptr,
                      [&](RestoreReport) { first_boot_done = true; });
    // Firmware (100 ms) + NVDIMM restore (~250 ms) land before ~400 ms;
    // the marker clears at the start of the 100 ms OS resume. Fail
    // inside that window.
    const Tick restore_point =
        config.wsp.firmwareBootLatency + fromMillis(260.0);
    system.psu().failInputAt(system.queue().now() + restore_point +
                             fromMillis(20.0));
    system.runFor(fromSeconds(8.0));

    bool backend_ran = false;
    bool done = false;
    RestoreReport report;
    system.wsp().boot([&] { backend_ran = true; },
                      [&](RestoreReport r) {
        report = r;
        done = true;
    });
    while (!done && system.queue().step()) {
    }
    ASSERT_TRUE(done);
    EXPECT_TRUE(system.wsp().running());
    // Whichever path ran, the invariant holds; if the marker was
    // consumed before the kill, the back end must have been engaged.
    if (!report.usedWsp) {
        EXPECT_TRUE(backend_ran);
    }
    (void)first_boot_done;
}

TEST(WspCorners, RestoreIsExactAcrossAllMemoryRegions)
{
    // Write patterns into several distinct regions including near the
    // top-of-memory control structures; all must survive.
    SystemConfig config = baseConfig();
    WspSystem system(config);
    system.start();
    SCOPED_TRACE(testing::seedTrace(8));
    Rng rng(testing::testSeed(8));
    const uint64_t marker_base =
        WspLayout::topOfMemory(system.memory().capacity(),
                               system.machine().coreCount())
            .resumeBase;
    std::vector<uint64_t> bases = {0, 1 * kMiB, 3 * kMiB,
                                   marker_base - 64 * kKiB};
    std::vector<uint64_t> expected;
    for (uint64_t base : bases) {
        const uint64_t value = rng();
        system.cache().writeU64(base, value);
        expected.push_back(value);
    }
    auto outcome = system.powerFailAndRestore(fromMillis(5.0),
                                              fromSeconds(10.0));
    ASSERT_TRUE(outcome.restore.usedWsp);
    for (size_t i = 0; i < bases.size(); ++i)
        EXPECT_EQ(system.cache().readU64(bases[i]), expected[i]);
}

TEST(WspCorners, SingleCoreMachineSavesAndRestores)
{
    // Degenerate topology: one socket, one core, no hyperthreads.
    // "Halt N-1 processors" halts nobody; everything else holds.
    SystemConfig config = baseConfig();
    config.platform.sockets = 1;
    config.platform.coresPerSocket = 1;
    config.platform.threadsPerCore = 1;
    WspSystem system(config);
    system.start();
    apps::KvStore store(system.cache(), 0, 256);
    store.put(4, 44);
    SCOPED_TRACE(testing::seedTrace(12));
    Rng rng(testing::testSeed(12));
    system.machine().randomizeContexts(rng);
    const CpuContext before = system.machine().core(0).context;

    auto outcome = system.powerFailAndRestore(fromMillis(5.0),
                                              fromSeconds(10.0));
    ASSERT_TRUE(outcome.restore.usedWsp);
    EXPECT_EQ(system.machine().core(0).context, before);
    auto restored = apps::KvStore::attach(system.cache(), 0);
    ASSERT_TRUE(restored.has_value());
    uint64_t value = 0;
    EXPECT_TRUE(restored->get(4, &value));
    EXPECT_EQ(value, 44u);
}

TEST(WspCorners, EightModuleSystemRecovers)
{
    SystemConfig config = baseConfig();
    config.nvdimmCount = 8;
    config.nvdimm.capacityBytes = 1 * kMiB;
    WspSystem system(config);
    system.start();
    // Scatter state across every module.
    SCOPED_TRACE(testing::seedTrace(13));
    Rng rng(testing::testSeed(13));
    std::vector<std::pair<uint64_t, uint64_t>> cells;
    for (int i = 0; i < 64; ++i) {
        const uint64_t addr =
            rng.next(system.memory().capacity() - 64 * kKiB) & ~7ull;
        const uint64_t value = rng();
        system.cache().writeU64(addr, value);
        cells.emplace_back(addr, value);
    }
    auto outcome = system.powerFailAndRestore(fromMillis(5.0),
                                              fromSeconds(10.0));
    ASSERT_TRUE(outcome.restore.usedWsp);
    for (const auto &[addr, value] : cells)
        ASSERT_EQ(system.cache().readU64(addr), value);
    // All eight modules completed their saves and restores. A module
    // may save twice: once on the explicit command (which finishes
    // inside the residual window for these small modules) and again
    // when the armed hardware sees the actual power loss.
    for (size_t i = 0; i < system.memory().moduleCount(); ++i) {
        EXPECT_GE(system.memory().module(i).savesCompleted(), 1u);
        EXPECT_EQ(system.memory().module(i).restoresCompleted(), 1u);
    }
}

TEST(WspCorners, SaveReportAccountsFullDuration)
{
    // The per-step timings must tile the save interval: no step gap
    // and no overlap in the recorded sequence.
    SystemConfig config = baseConfig();
    WspSystem system(config);
    system.start();
    auto outcome = system.powerFailAndRestore(fromMillis(5.0),
                                              fromSeconds(10.0));
    ASSERT_TRUE(outcome.save.has_value());
    const auto &steps = outcome.save->steps;
    ASSERT_FALSE(steps.empty());
    EXPECT_EQ(steps.front().start, outcome.save->started);
    for (size_t i = 1; i < steps.size(); ++i)
        EXPECT_EQ(steps[i].start, steps[i - 1].end) << steps[i].step;
    EXPECT_EQ(steps.back().end, outcome.save->halted);
}

} // namespace
} // namespace wsp
