/**
 * @file
 * Tests for the crash-point exploration harness.
 *
 * The exhaustive claims live here: the enumerated sweep over every
 * distinguishable power-failure instant must hold for the correct
 * save order, all four pheap disciplines must survive their own
 * exhaustive sweeps, and the deliberately broken marker-before-flush
 * order must be caught, minimized, and reproducible from its replay
 * file.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>

#include "crashsim/crash_explorer.h"
#include "crashsim/pheap_crash.h"
#include "trace/stat_registry.h"

namespace wsp::crashsim {
namespace {

/** Fast base scenario for the system-level sweeps. */
CrashSchedule
fastSchedule()
{
    CrashSchedule schedule;
    schedule.ops = 48;
    schedule.outage = fromMillis(500.0);
    return schedule;
}

// Schedule serialization ----------------------------------------------

TEST(CrashSchedule, SerializationRoundTrips)
{
    CrashSchedule schedule;
    schedule.seed = 0xabcdef;
    schedule.window = fromMicros(123.0) + 7;
    schedule.ops = 17;
    schedule.trainCycles = 3;
    schedule.drainModule = 1;
    schedule.drainVoltage = 5.5;
    schedule.undersizedCaps = true;
    schedule.withDevices = true;
    schedule.saveOrder = SaveOrder::MarkerBeforeFlush;

    const auto parsed = CrashSchedule::parse(schedule.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(*parsed == schedule);
}

TEST(CrashSchedule, ParseRejectsMalformedInput)
{
    EXPECT_FALSE(CrashSchedule::parse("").has_value());
    EXPECT_FALSE(CrashSchedule::parse("not-a-schedule\n").has_value());
    EXPECT_FALSE(CrashSchedule::parse("wsp-crash-schedule v1\n"
                                      "unknown_key=3\n")
                     .has_value());
    EXPECT_FALSE(CrashSchedule::parse("wsp-crash-schedule v1\n"
                                      "train_cycles=0\n")
                     .has_value());
    EXPECT_FALSE(CrashSchedule::parse("wsp-crash-schedule v1\n"
                                      "seed=banana\n")
                     .has_value());
}

// Single crash points, both regimes -----------------------------------

TEST(CrashPoint, GenerousWindowRecoversViaWsp)
{
    CrashSchedule schedule = fastSchedule();
    schedule.window = fromMillis(200.0); // the whole pipeline fits
    const CrashPointResult result = CrashExplorer::runSchedule(schedule);
    EXPECT_TRUE(result.held()) << (result.violations.empty()
                                       ? ""
                                       : result.violations.front());
    EXPECT_TRUE(result.restore.usedWsp);
    EXPECT_FALSE(result.backendRan);
    EXPECT_EQ(result.appliedOps, schedule.ops);
}

TEST(CrashPoint, ZeroWindowFallsBackToBackend)
{
    CrashSchedule schedule = fastSchedule();
    schedule.window = 0; // lights out with the fail interrupt
    const CrashPointResult result = CrashExplorer::runSchedule(schedule);
    EXPECT_TRUE(result.held()) << (result.violations.empty()
                                       ? ""
                                       : result.violations.front());
    EXPECT_FALSE(result.restore.usedWsp);
    EXPECT_TRUE(result.backendRan);
}

TEST(CrashPoint, InterruptAfterThePowerIsGoneIsCountedNotWarned)
{
    // Window 0 of the standard schedule: the hard loss lands before the
    // monitor's notify latency (detect + serial) delivers the
    // power-fail interrupt, which then reaches an unpowered machine.
    // The count is chassis-local ("core."), so read it on the crashed
    // chassis, before a swap would reset it.
    CrashSchedule schedule;
    schedule.window = 0;
    trace::Counter &late =
        trace::StatRegistry::instance().counter(
            "core.power_fail_irq_after_loss");
    WspSystem crashed(CrashExplorer::configFor(schedule));
    crashed.start();
    auto checkers = standardCheckers();
    for (auto &checker : checkers)
        checker->prepare(crashed, schedule);
    const uint64_t before = late.value();
    ::testing::internal::CaptureStderr();
    crashed.psu().failInputAt(crashed.queue().now() + schedule.failDelay);
    crashed.runFor(schedule.failDelay + schedule.outage);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_TRUE(crashed.wsp().powerLostAt().has_value());
    EXPECT_EQ(crashed.monitor().interruptsRaised(), 1u);
    EXPECT_EQ(late.value(), before + 1);
    EXPECT_EQ(err.find("warn:"), std::string::npos) << err;
    checkers.clear(); // checkers go before their system
}

TEST(CrashPoint, DrainedUltracapStillRecoversConsistently)
{
    CrashSchedule schedule = fastSchedule();
    schedule.window = fromMillis(200.0);
    schedule.drainModule = 0;
    schedule.drainVoltage = 5.0; // below the DC-DC floor: save fails
    const CrashPointResult result = CrashExplorer::runSchedule(schedule);
    EXPECT_TRUE(result.held()) << (result.violations.empty()
                                       ? ""
                                       : result.violations.front());
    // One module's image is unusable, so WSP resume is impossible —
    // but the invariants still hold via the back end.
    EXPECT_FALSE(result.restore.usedWsp);
    EXPECT_TRUE(result.backendRan);
}

// Enumeration and the exhaustive sweep --------------------------------

TEST(CrashEnumeration, FindsTheWholePipeline)
{
    CrashExplorer explorer(fastSchedule());
    const std::vector<Tick> points = explorer.enumerateCrashPoints(400);
    EXPECT_GT(points.size(), 20u);
    // Sorted, unique, starting at the failure instant itself.
    EXPECT_EQ(points.front(), 0u);
    for (size_t i = 1; i < points.size(); ++i)
        EXPECT_LT(points[i - 1], points[i]);
    // The save pipeline spans milliseconds; enumeration must reach
    // past the marker stamp into the NVDIMM save.
    EXPECT_GT(points.back(), fromMillis(5.0));
}

TEST(CrashSweep, EveryEnumeratedPointHolds)
{
    CrashExplorer explorer(fastSchedule());
    const SweepReport report =
        explorer.sweepEnumerated(false, 120);
    EXPECT_TRUE(report.allHeld())
        << report.failures.size() << " failing points; first: "
        << (report.failures.empty()
                ? ""
                : report.failures.front().schedule.summary() + " - " +
                      report.failures.front().violations.front());
    // The sweep must exercise both recovery regimes: early crashes
    // fall back to the back end, late ones resume via WSP.
    EXPECT_GT(report.wspRecoveries, 0u);
    EXPECT_GT(report.fallbacks, 0u);
    EXPECT_GT(report.points, 20u);
}

TEST(CrashSweep, OutageTrainPointsHold)
{
    CrashSchedule base = fastSchedule();
    base.trainCycles = 3;
    base.trainSpacing = fromMillis(2.0);
    CrashExplorer explorer(base);
    const SweepReport report = explorer.sweepEnumerated(false, 24);
    EXPECT_TRUE(report.allHeld())
        << (report.failures.empty()
                ? ""
                : report.failures.front().violations.front());
}

TEST(CrashFuzz, RandomSchedulesHold)
{
    CrashExplorer explorer(fastSchedule());
    const SweepReport report = explorer.fuzz(12, 0xfadedull);
    EXPECT_EQ(report.points, 12u);
    EXPECT_TRUE(report.allHeld())
        << (report.failures.empty()
                ? ""
                : report.failures.front().schedule.summary() + " - " +
                      report.failures.front().violations.front());
}

// Parallel save path and sharded store --------------------------------

TEST(ParallelCrash, SerializationRoundTripsParallelFields)
{
    CrashSchedule schedule = fastSchedule();
    schedule.shards = 4;
    schedule.parallelSave = true;
    const auto parsed = CrashSchedule::parse(schedule.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(*parsed == schedule);
    EXPECT_FALSE(CrashSchedule::parse("wsp-crash-schedule v1\n"
                                      "shards=3\n")
                     .has_value());
}

TEST(ParallelCrash, EveryEnumeratedPointHoldsWithShardsAndParallelSave)
{
    // The tentpole sweep: striped persistent layout AND the per-core
    // parallel flush, across every distinguishable crash instant —
    // including instants where only *some* partition workers had
    // finished their flush.
    CrashSchedule base = fastSchedule();
    base.shards = 4;
    base.parallelSave = true;
    CrashExplorer explorer(base);
    const SweepReport report = explorer.sweepEnumerated(false, 120);
    EXPECT_TRUE(report.allHeld())
        << report.failures.size() << " failing points; first: "
        << (report.failures.empty()
                ? ""
                : report.failures.front().schedule.summary() + " - " +
                      report.failures.front().violations.front());
    EXPECT_GT(report.wspRecoveries, 0u);
    EXPECT_GT(report.fallbacks, 0u);
    EXPECT_GT(report.points, 20u);
}

TEST(ParallelCrash, ParallelSaveRecordsPerCoreSteps)
{
    // Per-core-safe progress accounting: a generous-window run must
    // record one flush step per (socket, worker) plus the canonical
    // barrier step the marker invariants key on.
    CrashSchedule schedule = fastSchedule();
    schedule.window = fromMillis(200.0);
    schedule.parallelSave = true;

    WspSystem system(CrashExplorer::configFor(schedule));
    system.start();
    system.runFor(fromMillis(1.0));
    system.psu().failInputAt(system.queue().now());
    system.runFor(fromMillis(300.0));

    const SaveReport &save = system.wsp().saveRoutine().progress();
    EXPECT_TRUE(save.completed);
    EXPECT_TRUE(
        SaveRoutine::stepReached(save, "flush caches (all sockets)"));
    size_t partition_steps = 0;
    for (const auto &step : save.steps) {
        if (step.step.find("flush partition socket") == 0)
            ++partition_steps;
    }
    const PlatformSpec &spec = system.machine().spec();
    EXPECT_EQ(partition_steps,
              spec.sockets * spec.logicalCpusPerSocket());
}

TEST(ParallelCrash, BrokenOrderStillCaughtUnderParallelSave)
{
    // The planted marker-before-flush bug must not hide behind the
    // parallel flush path.
    CrashSchedule base = fastSchedule();
    base.shards = 2;
    base.parallelSave = true;
    base.saveOrder = SaveOrder::MarkerBeforeFlush;
    CrashExplorer explorer(base);
    const SweepReport report = explorer.sweepEnumerated(true, 120);
    EXPECT_FALSE(report.allHeld())
        << "marker-before-flush survived the parallel sweep";
}

// Incremental saves and lazy restore ----------------------------------

TEST(IncrementalCrash, SerializationRoundTripsPersistenceModes)
{
    CrashSchedule schedule = fastSchedule();
    schedule.incrementalSave = false;
    schedule.lazyRestore = true;
    const auto parsed = CrashSchedule::parse(schedule.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(*parsed == schedule);
    // Old replay files without the new keys parse to the defaults.
    const auto old = CrashSchedule::parse("wsp-crash-schedule v1\n"
                                          "seed=7\n");
    ASSERT_TRUE(old.has_value());
    EXPECT_TRUE(old->incrementalSave);
    EXPECT_FALSE(old->lazyRestore);
}

TEST(IncrementalCrash, TrainSweepEngagesDeltaSavesAndHolds)
{
    // A train's second and later saves see a mostly-clean DRAM image
    // (the restore established a flash baseline), so they must run as
    // delta saves — and every enumerated crash instant must still
    // satisfy all invariants, including the in-module save verifier.
    CrashSchedule base = fastSchedule();
    base.trainCycles = 3;
    base.trainSpacing = fromMillis(2.0);
    auto &incremental =
        trace::StatRegistry::instance().counter("nvram.incremental_saves");
    const uint64_t before = incremental.value();
    CrashExplorer explorer(base);
    const SweepReport report = explorer.sweepEnumerated(false, 24);
    EXPECT_TRUE(report.allHeld())
        << (report.failures.empty()
                ? ""
                : report.failures.front().violations.front());
    EXPECT_GT(incremental.value(), before)
        << "the outage train never completed a delta save";
}

TEST(IncrementalCrash, SurvivesSalvageMediaFaultsAndDegradedTiers)
{
    // Delta saves must compose with the fault machinery: media faults
    // taint flash (forcing the next save back to full), degraded
    // saves cut tiers, salvage recovers region by region.
    CrashSchedule base = fastSchedule();
    base.trainCycles = 2;
    base.trainSpacing = fromMillis(2.0);
    base.salvage = true;
    base.shards = 2;
    base.mediaFaults = 2;
    base.degradeTier = 0;
    CrashExplorer explorer(base);
    const SweepReport report = explorer.sweepEnumerated(false, 24);
    EXPECT_TRUE(report.allHeld())
        << (report.failures.empty()
                ? ""
                : report.failures.front().schedule.summary() + " - " +
                      report.failures.front().violations.front());
}

TEST(IncrementalCrash, FullAndIncrementalImagesAgreeAtEveryWindow)
{
    // The tentpole soundness claim: at every distinguishable crash
    // instant, the flash image an incremental save leaves behind is
    // byte-identical to a full save's over the suffix both claim
    // programmed — the delta engine never changes what survives.
    CrashSchedule base = fastSchedule();
    base.trainCycles = 2; // the captured crash interrupts a delta save
    base.trainSpacing = fromMillis(2.0);
    CrashExplorer explorer(base);
    const auto report = explorer.incrementalEquivalenceSweep(48);
    EXPECT_GT(report.points, 10u);
    EXPECT_GT(report.bothComplete, 0u);
    EXPECT_TRUE(report.allEqual())
        << report.mismatchWindows.size()
        << " windows with divergent images; first at "
        << formatTime(report.mismatchWindows.empty()
                          ? 0
                          : report.mismatchWindows.front());
}

TEST(IncrementalCrash, LazyRestoreSweepHolds)
{
    // Lazy restores map the image instead of streaming it; contents
    // and invariants must be indistinguishable from eager restores.
    CrashSchedule base = fastSchedule();
    base.lazyRestore = true;
    base.trainCycles = 2;
    base.trainSpacing = fromMillis(2.0);
    auto &lazy =
        trace::StatRegistry::instance().counter("nvram.lazy_restores");
    const uint64_t before = lazy.value();
    CrashExplorer explorer(base);
    const SweepReport report = explorer.sweepEnumerated(false, 24);
    EXPECT_TRUE(report.allHeld())
        << (report.failures.empty()
                ? ""
                : report.failures.front().violations.front());
    EXPECT_GT(lazy.value(), before)
        << "no run took the lazy restore path";
}

// The planted bug -----------------------------------------------------

TEST(BrokenMarkerOrder, IsCaughtMinimizedAndReplayable)
{
    CrashSchedule base = fastSchedule();
    base.saveOrder = SaveOrder::MarkerBeforeFlush;
    CrashExplorer explorer(base);

    // The sweep must catch the bug: some window lands between the
    // (early) marker stamp and the cache flush.
    const SweepReport report = explorer.sweepEnumerated(true, 120);
    ASSERT_FALSE(report.allHeld())
        << "marker-before-flush survived the sweep";
    const CrashPointResult &failure = report.failures.front();
    EXPECT_FALSE(failure.violations.empty());

    // Minimization keeps it failing.
    const CrashSchedule minimized =
        CrashExplorer::minimize(failure.schedule, 32);
    EXPECT_EQ(minimized.saveOrder, SaveOrder::MarkerBeforeFlush);
    const CrashPointResult replayed =
        CrashExplorer::runSchedule(minimized);
    EXPECT_FALSE(replayed.held());

    // And the replay file reproduces it bit-for-bit.
    const std::string path = ::testing::TempDir() +
                             "wsp_crashsim_replay_" +
                             std::to_string(::getpid()) + ".txt";
    ASSERT_TRUE(minimized.writeFile(path));
    const auto reread = CrashSchedule::readFile(path);
    ASSERT_TRUE(reread.has_value());
    EXPECT_TRUE(*reread == minimized);
    const CrashPointResult from_file =
        CrashExplorer::runSchedule(*reread);
    EXPECT_FALSE(from_file.held());
    EXPECT_EQ(from_file.violations.size(),
              replayed.violations.size());
    std::remove(path.c_str());
}

// Black-box flight recorder forensics ---------------------------------

TEST(BlackBox, EnumeratedSweepNeverTearsTheRecorder)
{
    // Every distinguishable crash instant captures an image with the
    // NVRAM-backed recorder enabled; the BlackBoxSound checker (last
    // in the standard set) asserts no published slot decodes torn, no
    // matter where inside the recorder's own publication sequence the
    // power died.
    CrashSchedule base = fastSchedule();
    base.blackBox = true; // explicit: this sweep is about the recorder
    CrashExplorer explorer(base);
    const SweepReport report = explorer.sweepEnumerated(false, 120);
    EXPECT_TRUE(report.allHeld())
        << report.failures.size() << " failing points; first: "
        << (report.failures.empty()
                ? ""
                : report.failures.front().schedule.summary() + " - " +
                      report.failures.front().violations.front());
    EXPECT_GT(report.points, 20u);
}

TEST(BlackBox, TimelineAttachedToEveryFailingSchedule)
{
    // When a schedule fails, the explorer must decode the surviving
    // ring and attach the post-mortem timeline — the black box is for
    // exactly this moment.
    CrashSchedule base = fastSchedule();
    base.saveOrder = SaveOrder::MarkerBeforeFlush;
    CrashExplorer explorer(base);
    const SweepReport report = explorer.sweepEnumerated(false, 120);
    ASSERT_FALSE(report.allHeld())
        << "marker-before-flush survived the sweep";
    for (const CrashPointResult &failure : report.failures) {
        EXPECT_FALSE(failure.timeline.empty())
            << "no timeline on " << failure.schedule.summary();
    }
    // Held points carry no timeline (decode work is failure-only).
    const CrashPointResult held =
        CrashExplorer::runSchedule(fastSchedule());
    ASSERT_TRUE(held.held());
    EXPECT_TRUE(held.timeline.empty());
}

TEST(BlackBox, ChassisSwapResetsVolatileStatsKeepsNvramStats)
{
    // bootFromImage models moving the DIMMs into a replacement
    // chassis: host-side counters ("core.", "machine.", ...) must not
    // inherit the donor's pre-crash values, while DIMM-resident
    // ("nvram.") statistics travel with the image.
    CrashSchedule schedule = fastSchedule();
    schedule.window = fromMillis(200.0); // save completes
    auto &registry = trace::StatRegistry::instance();
    auto &saves_started = registry.counter("core.saves_started");
    auto &nvram_saves = registry.counter("nvram.saves_completed");

    WspSystem donor(CrashExplorer::configFor(schedule));
    donor.start();
    donor.runFor(fromMillis(1.0));
    donor.psu().failInputAt(donor.queue().now());
    donor.runFor(fromMillis(300.0));
    EXPECT_GT(saves_started.value(), 0u);
    const uint64_t nvram_saves_before = nvram_saves.value();
    EXPECT_GT(nvram_saves_before, 0u);
    const NvramImage image = donor.captureNvramImage();

    WspSystem revived(CrashExplorer::configFor(schedule));
    const RestoreReport restore = revived.bootFromImage(image);
    EXPECT_TRUE(restore.usedWsp);
    // The boot reset the chassis-local counter (and booting does not
    // start a save), while the DIMM-resident one survived untouched.
    EXPECT_EQ(saves_started.value(), 0u);
    EXPECT_EQ(nvram_saves.value(), nvram_saves_before);
}

// Pheap discipline sweeps ---------------------------------------------

class PheapDisciplineSweep
    : public ::testing::TestWithParam<PheapDiscipline>
{
};

TEST_P(PheapDisciplineSweep, ExhaustiveCrashPointsHold)
{
    const PheapSweepReport report = sweepPheapCrashPoints(
        GetParam(), 0x9e3779b9ull, 6, ::testing::TempDir());
    EXPECT_GT(report.crashPoints, 6u);
    EXPECT_GT(report.recoveries, 0u);
    EXPECT_TRUE(report.allHeld())
        << report.violations.size() << " violations; first: "
        << (report.violations.empty() ? "" : report.violations.front());
}

INSTANTIATE_TEST_SUITE_P(
    AllDisciplines, PheapDisciplineSweep,
    ::testing::Values(PheapDiscipline::Undo, PheapDiscipline::Stm,
                      PheapDiscipline::Redo, PheapDiscipline::TornBit),
    [](const ::testing::TestParamInfo<PheapDiscipline> &info) {
        return pheapDisciplineName(info.param);
    });

} // namespace
} // namespace wsp::crashsim
