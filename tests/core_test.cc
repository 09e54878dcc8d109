/**
 * @file
 * Tests for the WSP core: marker protocol, resume block, save and
 * restore routines, the controller, and the assembled system.
 *
 * The central invariant (DESIGN.md section 5): for a power failure
 * injected at *any* tick, after reboot either the valid marker was
 * intact and the restored memory + contexts equal the pre-failure
 * state exactly, or the marker is invalid and recovery falls back to
 * the back end. Never a torn restore.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/failure_injector.h"
#include "core/system.h"
#include "core/valid_marker.h"
#include "trace/stat_registry.h"
#include "util/checksum.h"

namespace wsp {
namespace {

/** Small system: fast to simulate, no devices unless asked. */
SystemConfig
testConfig(bool with_devices = false)
{
    SystemConfig config;
    config.nvdimmCount = 2;
    config.nvdimm.capacityBytes = 4 * kMiB;
    config.nvdimm.flashChannels = 1;
    if (!with_devices)
        config.devices.clear();
    config.wsp.firmwareBootLatency = fromMillis(100.0);
    config.wsp.osResumeLatency = fromMillis(1.0);
    config.wsp.hostStackBootLatency = fromMillis(50.0);
    return config;
}

/** Write a recognizable pattern through the cache. */
void
writePattern(WspSystem &system, uint64_t base, uint64_t words,
             uint64_t seed)
{
    Rng rng(seed);
    for (uint64_t i = 0; i < words; ++i)
        system.cache().writeU64(base + i * 8, rng());
}

/** Check the pattern, reading through the cache. */
bool
checkPattern(WspSystem &system, uint64_t base, uint64_t words,
             uint64_t seed)
{
    Rng rng(seed);
    for (uint64_t i = 0; i < words; ++i) {
        if (system.cache().readU64(base + i * 8) != rng())
            return false;
    }
    return true;
}

// ValidMarker ------------------------------------------------------------

struct MarkerFixture : ::testing::Test
{
    MarkerFixture() : system(testConfig()) {}
    WspSystem system;
};

TEST_F(MarkerFixture, FreshMarkerInvalid)
{
    ValidMarker marker(system.cache(), 0);
    EXPECT_FALSE(marker.read(system.memory()).valid);
}

TEST_F(MarkerFixture, SetThenReadValid)
{
    ValidMarker marker(system.cache(), 0);
    marker.set(7, 0xabcdull);
    const MarkerState state = marker.read(system.memory());
    EXPECT_TRUE(state.valid);
    EXPECT_EQ(state.bootSequence, 7u);
    EXPECT_EQ(state.resumeChecksum, 0xabcdull);
}

TEST_F(MarkerFixture, ClearInvalidates)
{
    ValidMarker marker(system.cache(), 0);
    marker.set(1, 2);
    marker.clear();
    EXPECT_FALSE(marker.read(system.memory()).valid);
}

TEST_F(MarkerFixture, PrepareWithoutStampInvalid)
{
    ValidMarker marker(system.cache(), 0);
    marker.prepare(1, 2);
    EXPECT_FALSE(marker.read(system.memory()).valid);
}

TEST_F(MarkerFixture, StampFromDifferentBootRejected)
{
    ValidMarker marker(system.cache(), 0);
    marker.set(1, 2);
    // Corrupt the sequence field (simulates a stale line mix).
    system.cache().writeU64(8, 99);
    system.cache().flushLine(8);
    EXPECT_FALSE(marker.read(system.memory()).valid);
}

TEST_F(MarkerFixture, GarbageMemoryInvalid)
{
    ValidMarker marker(system.cache(), 0);
    Rng rng(1);
    for (uint64_t off = 0; off < ValidMarker::kSize; off += 8)
        system.cache().writeU64(off, rng());
    system.cache().flushLine(0);
    system.cache().flushLine(64);
    EXPECT_FALSE(marker.read(system.memory()).valid);
}

TEST_F(MarkerFixture, SetSurvivesWbinvd)
{
    ValidMarker marker(system.cache(), 0);
    marker.set(3, 4);
    system.cache().wbinvd();
    EXPECT_TRUE(marker.read(system.memory()).valid);
}

// ResumeBlock --------------------------------------------------------------

TEST_F(MarkerFixture, ResumeBlockRoundTrip)
{
    ResumeBlock block(system.cache(), 4096, 4);
    Rng rng(2);
    std::vector<CpuContext> contexts(4);
    for (unsigned i = 0; i < 4; ++i) {
        contexts[i].randomize(rng);
        contexts[i].apicId = i;
        block.saveContext(i, contexts[i]);
    }
    block.writeHeader(9);
    EXPECT_EQ(block.bootSequence(system.memory()), 9u);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(block.loadContext(system.memory(), i), contexts[i]);
}

TEST_F(MarkerFixture, ResumeBlockChecksumDetectsChange)
{
    ResumeBlock block(system.cache(), 4096, 2);
    Rng rng(3);
    CpuContext ctx;
    ctx.randomize(rng);
    block.saveContext(0, ctx);
    block.writeHeader(1);
    const uint64_t sum = block.checksum(system.memory());

    // The marker binds a CRC64 of the whole block as stored in NVRAM.
    std::vector<uint8_t> bytes(ResumeBlock::sizeFor(block.cores()));
    system.memory().read(block.base(), bytes);
    EXPECT_EQ(sum, crc64(bytes));

    system.cache().writeU64(4096 + 64 + 8, 0xdeadbeefull);
    system.cache().flushLine(4096 + 64 + 8);
    const uint64_t overwritten = block.checksum(system.memory());
    EXPECT_NE(overwritten, sum);

    // One flipped bit in the first slot.
    const uint64_t word = system.memory().readU64(4096 + 64 + 16);
    system.memory().writeU64(4096 + 64 + 16, word ^ (1ull << 37));
    const uint64_t flipped = block.checksum(system.memory());
    EXPECT_NE(flipped, overwritten);

    // A torn 64-byte line at the end of the last slot.
    const uint64_t last =
        block.base() + ResumeBlock::sizeFor(block.cores()) - 64;
    std::vector<uint8_t> line(64);
    system.memory().read(last, line);
    for (auto &b : line)
        b ^= 0xa5;
    system.memory().write(last, line);
    EXPECT_NE(block.checksum(system.memory()), flipped);
}

TEST_F(MarkerFixture, ResumeBlockSizeScalesWithCores)
{
    EXPECT_GT(ResumeBlock::sizeFor(16), ResumeBlock::sizeFor(2));
    // Slots are line-aligned.
    EXPECT_EQ(ResumeBlock::sizeFor(1) % CacheModel::kLineSize, 0u);
}

// Full save/restore cycle ----------------------------------------------

TEST(WspCycle, CleanPowerFailureRecoversEverything)
{
    WspSystem system(testConfig());
    system.start();

    // Application state: dirty in cache AND flushed in NVRAM.
    writePattern(system, 0, 4096, 42);
    Rng ctx_rng(7);
    system.machine().randomizeContexts(ctx_rng);
    const CpuContext before_ctx = system.machine().core(3).context;

    auto outcome = system.powerFailAndRestore(fromMillis(10.0),
                                              fromSeconds(30.0));

    ASSERT_TRUE(outcome.save.has_value());
    EXPECT_TRUE(outcome.save->completed);
    EXPECT_TRUE(outcome.restore.usedWsp);
    EXPECT_TRUE(outcome.restore.markerValid);
    EXPECT_TRUE(outcome.restore.checksumOk);

    // All memory state survived, including the dirty cache lines.
    EXPECT_TRUE(checkPattern(system, 0, 4096, 42));
    // Thread contexts restored exactly.
    EXPECT_EQ(system.machine().core(3).context, before_ctx);
    EXPECT_TRUE(system.wsp().running());
}

/** A statistic's value, or nullopt when the registry has no such name. */
std::optional<double>
statValue(const std::string &name)
{
    for (const auto &sample : trace::StatRegistry::instance().snapshot())
        if (sample.name == name)
            return sample.value;
    return std::nullopt;
}

TEST(WspCycle, RestoreStepGaugesAreNamedByStepOnEveryBootPath)
{
    // A whole-system resume and a fallback cold boot run different
    // steps, so a step's position names a different step on each path
    // ("restore NVDIMM contents" on the one, "cold boot" on the
    // other). Each gauge must read the duration of the step it names,
    // from whichever boot ran that step last.
    WspSystem resumed(testConfig());
    resumed.start();
    const PowerFailureOutcome resume =
        resumed.powerFailAndRestore(fromMillis(5.0), fromSeconds(30.0));
    ASSERT_TRUE(resume.restore.usedWsp);

    WspSystem fallen(
        FailureInjector::withExactWindow(testConfig(), fromMicros(1.0)));
    fallen.start();
    const PowerFailureOutcome fallback =
        fallen.powerFailAndRestore(fromMillis(5.0), fromSeconds(1.0));
    ASSERT_FALSE(fallback.restore.usedWsp);

    std::map<std::string, Tick> latest;
    for (const StepTiming &step : resume.restore.steps)
        latest[step.step] = step.duration();
    for (const StepTiming &step : fallback.restore.steps)
        latest[step.step] = step.duration();
    ASSERT_TRUE(latest.count("restore NVDIMM contents"));
    ASSERT_TRUE(latest.count("cold boot"));
    for (const auto &[step, duration] : latest) {
        std::string name = "core.restore.step.";
        for (char c : step)
            name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
        name += "_ns";
        const std::optional<double> value = statValue(name);
        ASSERT_TRUE(value.has_value()) << name;
        EXPECT_EQ(*value, static_cast<double>(duration)) << name;
    }
}

TEST(WspCycle, InterruptWhilePoweredButNotRunningStillWarns)
{
    // Never started, power still on when the interrupt arrives: that is
    // not the expected late interrupt of a short window, so it warns.
    WspSystem system(testConfig());
    trace::Counter &late =
        trace::StatRegistry::instance().counter(
            "core.power_fail_irq_after_loss");
    const uint64_t before = late.value();
    ::testing::internal::CaptureStderr();
    system.psu().failInputAt(fromMillis(1.0));
    system.runFor(fromMillis(5.0)); // PWR_OK drop + notify latency
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_TRUE(system.machine().powerOn());
    EXPECT_NE(err.find("warn: power-fail interrupt while not running"),
              std::string::npos)
        << err;
    EXPECT_EQ(late.value(), before);
}

TEST(WspCycle, SaveCompletesInsideResidualWindow)
{
    WspSystem system(testConfig());
    system.start();
    auto outcome = system.powerFailAndRestore(fromMillis(5.0),
                                              fromSeconds(30.0));
    ASSERT_TRUE(outcome.save.has_value());
    const auto frac = system.wsp().windowFractionUsed();
    ASSERT_TRUE(frac.has_value());
    // Paper: the save fits within 2-35% of the residual window.
    EXPECT_GT(*frac, 0.0);
    EXPECT_LT(*frac, 0.35);
}

TEST(WspCycle, SaveReportHasAllFigure4Steps)
{
    WspSystem system(testConfig());
    system.start();
    auto outcome = system.powerFailAndRestore(fromMillis(5.0),
                                              fromSeconds(30.0));
    ASSERT_TRUE(outcome.save.has_value());
    std::vector<std::string> names;
    for (const auto &step : outcome.save->steps)
        names.push_back(step.step);
    const std::vector<std::string> expected = {
        "interrupt control processor",
        "IPI all processors",
        "save processor contexts",
        "flush caches (all sockets)",
        "halt N-1 processors",
        "set up resume block",
        "mark image as valid",
        "initiate NVDIMM save",
        "halt control processor",
    };
    EXPECT_EQ(names, expected);
}

TEST(WspCycle, SecondFailureCycleAlsoRecovers)
{
    WspSystem system(testConfig());
    system.start();
    writePattern(system, 0, 256, 1);
    auto first = system.powerFailAndRestore(fromMillis(5.0),
                                            fromSeconds(30.0));
    EXPECT_TRUE(first.restore.usedWsp);

    // Mutate state after the first recovery, fail again.
    writePattern(system, 64 * kKiB, 256, 2);
    auto second = system.powerFailAndRestore(fromMillis(5.0),
                                             fromSeconds(30.0));
    EXPECT_TRUE(second.restore.usedWsp);
    EXPECT_TRUE(checkPattern(system, 0, 256, 1));
    EXPECT_TRUE(checkPattern(system, 64 * kKiB, 256, 2));
}

TEST(WspCycle, BootSequenceAdvancesPerCycle)
{
    WspSystem system(testConfig());
    system.start();
    const uint64_t seq0 = system.wsp().bootSequence();
    system.powerFailAndRestore(fromMillis(5.0), fromSeconds(30.0));
    EXPECT_EQ(system.wsp().bootSequence(), seq0 + 1);
}

TEST(WspCycle, ColdStartHasNothingToRestore)
{
    WspSystem system(testConfig());
    bool backend_ran = false;
    bool done = false;
    system.wsp().boot([&] { backend_ran = true; },
                      [&](RestoreReport report) {
        EXPECT_FALSE(report.usedWsp);
        EXPECT_FALSE(report.flashValid);
        done = true;
    });
    while (!done && system.queue().step()) {
    }
    EXPECT_TRUE(done);
    EXPECT_TRUE(backend_ran);
    EXPECT_TRUE(system.wsp().running());
}

TEST(WspCycle, MarkerClearedAfterResume)
{
    WspSystem system(testConfig());
    system.start();
    system.powerFailAndRestore(fromMillis(5.0), fromSeconds(30.0));
    // A crash *now* (before any new failure) must not replay the old
    // image: the marker was cleared on resume.
    EXPECT_FALSE(
        system.wsp().marker().read(system.memory()).valid);
}

TEST(WspCycle, DeviceReplayAfterRestore)
{
    WspSystem system(testConfig(/*with_devices=*/true));
    system.start();
    system.devices().find("disk")->submitIo(fromSeconds(5.0));
    system.devices().find("nic")->submitIo(fromSeconds(5.0));

    auto outcome = system.powerFailAndRestore(fromMillis(5.0),
                                              fromSeconds(30.0));
    EXPECT_TRUE(outcome.restore.usedWsp);
    EXPECT_EQ(outcome.restore.deviceReport.opsReplayed, 2u);
    EXPECT_EQ(outcome.restore.deviceReport.devicesRestarted,
              system.devices().devices().size());
}

TEST(WspCycle, OutageShorterThanSaveStillRecovers)
{
    // Power comes back while the NVDIMMs are still saving; the boot
    // path must wait for them. A 512 MiB module on one flash channel
    // takes ~4 s to save, far longer than the 500 ms outage.
    SystemConfig config = testConfig();
    config.nvdimm.capacityBytes = 512 * kMiB;
    config.nvdimm.flashChannels = 1;
    WspSystem system(config);
    system.start();
    writePattern(system, 0, 128, 9);
    auto outcome = system.powerFailAndRestore(fromMillis(5.0),
                                              fromMillis(500.0));
    EXPECT_TRUE(outcome.restore.usedWsp);
    EXPECT_TRUE(checkPattern(system, 0, 128, 9));
    // The boot really did have to wait out the in-flight save.
    EXPECT_GT(outcome.restore.duration(), fromSeconds(2.0));
}

// In-place power cycles ---------------------------------------------------
//
// A fleet node power-cycles the chassis it has instead of socketing its
// DIMMs into a fresh one, so nothing volatile may outlive a cut on the
// same machine: not a dirty cache line the flush never wrote back, not
// a core's registers, not a device's queue. Only what the NVDIMMs saved
// may come back.

/** The sentinel value: no model writes a value near it by itself. */
constexpr uint64_t kSentinel = 0x5e471e1000000000ull;
constexpr uint64_t kSentinelLines = 64;
constexpr uint64_t kSentinelBase = 256 * kKiB;
constexpr unsigned kSentinelOpsPerDevice = 4;

/**
 * Plant volatile sentinels: dirty lines at kSentinelBase holding
 * kSentinel + i, every field of every core's context set to
 * kSentinel, and each device's queue filled with operations that are
 * still in flight when the cut lands.
 */
void
plantVolatileSentinels(WspSystem &system)
{
    for (uint64_t i = 0; i < kSentinelLines; ++i)
        system.cache().writeU64(kSentinelBase + i * CacheModel::kLineSize,
                                kSentinel + i);
    for (unsigned c = 0; c < system.machine().coreCount(); ++c) {
        CpuContext &context = system.machine().core(c).context;
        context.gpr.fill(kSentinel);
        context.rip = context.rflags = context.cr0 = context.cr3 =
            context.cr4 = context.fsBase = context.gsBase =
                context.apicId = kSentinel;
    }
    for (const auto &device : system.devices().devices())
        for (unsigned i = 0; i < kSentinelOpsPerDevice; ++i)
            device->submitIo(fromSeconds(60.0));
}

/** No sentinel is readable through the cache, a context or a device. */
void
expectNoVolatileSentinel(WspSystem &system)
{
    for (uint64_t i = 0; i < kSentinelLines; ++i) {
        const uint64_t addr = kSentinelBase + i * CacheModel::kLineSize;
        EXPECT_NE(system.cache().readU64(addr), kSentinel + i)
            << "line " << i << " outlived the cut";
    }
    for (unsigned c = 0; c < system.machine().coreCount(); ++c) {
        std::vector<uint8_t> bytes(CpuContext::serializedSize());
        system.machine().core(c).context.serialize(bytes);
        for (size_t at = 0; at < bytes.size(); at += 8) {
            uint64_t word = 0;
            std::memcpy(&word, bytes.data() + at, sizeof(word));
            EXPECT_NE(word, kSentinel)
                << "core " << c << " register word " << at / 8;
        }
    }
    for (const auto &device : system.devices().devices()) {
        EXPECT_EQ(device->inflight(), 0u) << device->config().name;
        EXPECT_TRUE(device->lostOps().empty()) << device->config().name;
    }
}

/** Operations every device lost to power failures so far. */
uint64_t
opsLostTotal(WspSystem &system)
{
    uint64_t total = 0;
    for (const auto &device : system.devices().devices())
        total += device->opsLostTotal();
    return total;
}

TEST(WspCycle, CutMidFlushLeavesNoVolatileStateOnTheSameChassis)
{
    // The flush takes ~2.7 ms from the interrupt at 0.31 ms; a 1.5 ms
    // window ends it midway, before any line is written back, so the
    // sentinel lines were never saved. The durable pattern was written
    // back before the cut: the armed modules save it on their own and
    // the cold boot restores it.
    WspSystem system(FailureInjector::withExactWindow(
        testConfig(/*with_devices=*/true), fromMillis(1.5)));
    system.start();
    writePattern(system, 0, 512, 61);
    system.cache().wbinvd();
    plantVolatileSentinels(system);
    const uint64_t lost_before = opsLostTotal(system);

    bool backend_ran = false;
    const PowerFailureOutcome outcome = system.powerFailAndRestore(
        fromMillis(1.0), fromSeconds(30.0), [&] { backend_ran = true; });

    ASSERT_FALSE(outcome.save.has_value()); // the flush never finished
    EXPECT_FALSE(outcome.restore.usedWsp);
    EXPECT_TRUE(outcome.restore.flashValid);
    EXPECT_TRUE(backend_ran);
    EXPECT_EQ(opsLostTotal(system) - lost_before,
              system.devices().devices().size() * kSentinelOpsPerDevice);
    expectNoVolatileSentinel(system);
    EXPECT_TRUE(checkPattern(system, 0, 512, 61));
    EXPECT_TRUE(system.wsp().running());
}

TEST(WspCycle, FailedDimmSavesLeaveNoVolatileStateOnTheSameChassis)
{
    // The host save completes: the sentinel lines are flushed, every
    // core saves its sentinel context into the resume block and halts
    // still holding it. Both modules' banks are drained, so neither
    // flash save finishes and the boot finds no usable image: the
    // halted cores' registers and the flushed lines must go with it.
    WspSystem system(testConfig(/*with_devices=*/true));
    system.start();
    FailureInjector injector(system);
    for (size_t module = 0; module < system.memory().moduleCount(); ++module)
        injector.drainUltracap(module, 5.0);
    plantVolatileSentinels(system);
    const uint64_t lost_before = opsLostTotal(system);

    bool backend_ran = false;
    const PowerFailureOutcome outcome = system.powerFailAndRestore(
        fromMillis(1.0), fromSeconds(30.0), [&] { backend_ran = true; });

    ASSERT_TRUE(outcome.save.has_value());
    EXPECT_TRUE(outcome.save->completed);
    EXPECT_FALSE(outcome.restore.usedWsp);
    EXPECT_FALSE(outcome.restore.flashValid);
    EXPECT_TRUE(backend_ran);
    EXPECT_EQ(opsLostTotal(system) - lost_before,
              system.devices().devices().size() * kSentinelOpsPerDevice);
    expectNoVolatileSentinel(system);
    EXPECT_TRUE(system.wsp().running());
}

// Failure injection -----------------------------------------------------

/**
 * Inject a hard power loss at an arbitrary offset after the failure
 * interrupt and verify the central invariant. Returns whether WSP
 * recovery was used.
 */
bool
injectAndCheck(Tick kill_after_fail, uint64_t pattern_words = 512)
{
    SystemConfig config = testConfig();
    // Shrink the residual window so the kill lands mid-save: override
    // the PSU with a custom preset whose window is the kill offset.
    config.psu.windowJitter = 0;
    config.psu.busyWindow = kill_after_fail;
    config.psu.idleWindow = kill_after_fail;
    config.psu.pwrOkDetectDelay = 0;

    WspSystem system(config);
    system.start();
    writePattern(system, 0, pattern_words, 77);

    bool backend_ran = false;
    auto outcome = system.powerFailAndRestore(
        fromMillis(5.0), fromSeconds(30.0), [&] { backend_ran = true; });

    if (outcome.restore.usedWsp) {
        // Recovered image must be exact.
        EXPECT_TRUE(checkPattern(system, 0, pattern_words, 77))
            << "torn restore after kill at "
            << formatTime(kill_after_fail);
        EXPECT_FALSE(backend_ran);
    } else {
        // Fallback must have engaged the back end.
        EXPECT_TRUE(backend_ran)
            << "no recovery at all after kill at "
            << formatTime(kill_after_fail);
    }
    EXPECT_TRUE(system.wsp().running());
    return outcome.restore.usedWsp;
}

TEST(FailureInjection, KillLongBeforeSaveCompletes)
{
    // 1 us window: the save cannot even IPI. Must fall back.
    EXPECT_FALSE(injectAndCheck(fromMicros(1.0)));
}

TEST(FailureInjection, KillDuringCacheFlush)
{
    // The C5528 flush takes ~2.8 ms; kill in the middle of it.
    EXPECT_FALSE(injectAndCheck(fromMillis(1.5)));
}

TEST(FailureInjection, KillJustBeforeMarkerStamp)
{
    // Flush finishes ~2.9 ms after the interrupt; the marker stamp is
    // a few microseconds later. Land in between.
    injectAndCheck(fromMillis(2.95));
}

TEST(FailureInjection, KillAfterFullWindowSucceeds)
{
    // 33 ms (the real preset): plenty of time.
    EXPECT_TRUE(injectAndCheck(fromMillis(33.0)));
}

TEST(FailureInjection, SweepNeverTearsState)
{
    // Property sweep: kill at a ladder of offsets spanning the whole
    // save sequence. The invariant must hold at every point.
    int wsp_recoveries = 0;
    int fallbacks = 0;
    for (double ms : {0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 2.5, 2.8, 2.9,
                      2.95, 3.0, 3.05, 3.1, 3.5, 4.0, 8.0, 33.0}) {
        if (injectAndCheck(fromMillis(ms), 128))
            ++wsp_recoveries;
        else
            ++fallbacks;
    }
    // Both regimes must actually be exercised by the ladder.
    EXPECT_GT(wsp_recoveries, 0);
    EXPECT_GT(fallbacks, 0);
}

TEST(FailureInjection, UndersizedUltracapDetectedOnBoot)
{
    SystemConfig config = testConfig();
    // Sabotage: a bank far too small to finish the flash save.
    config.nvdimm.capacityBytes = 64 * kMiB;
    config.nvdimm.flashChannels = 1;
    config.nvdimm.savePowerWatts = 50.0;
    config.nvdimm.ultracap.ratedCapacitanceF = 0.02;

    WspSystem system(config);
    system.start();
    bool backend_ran = false;
    auto outcome = system.powerFailAndRestore(
        fromMillis(5.0), fromSeconds(60.0), [&] { backend_ran = true; });
    // The CPU-side save succeeded, but the NVDIMM image is invalid.
    EXPECT_FALSE(outcome.restore.usedWsp);
    EXPECT_FALSE(outcome.restore.flashValid);
    EXPECT_TRUE(backend_ran);
}

TEST(FailureInjection, UnarmedModulesStillRecoverViaExplicitCommand)
{
    SystemConfig config = testConfig();
    config.wsp.armNvdimms = false;
    WspSystem system(config);
    system.start();
    writePattern(system, 0, 128, 5);
    auto outcome = system.powerFailAndRestore(fromMillis(5.0),
                                              fromSeconds(30.0));
    // The explicit I2C save command still reaches the modules inside
    // the residual window.
    EXPECT_TRUE(outcome.restore.usedWsp);
    EXPECT_TRUE(checkPattern(system, 0, 128, 5));
}

// Failure-injector scenarios ---------------------------------------------

TEST(FailureInjectorScenarios, OutageTrainRecoversEveryCycle)
{
    // Five outages back to back: every cycle must recover via WSP
    // with the memory image intact, the back end never consulted, and
    // the boot sequence advancing once per cycle.
    WspSystem system(testConfig());
    system.start();
    writePattern(system, 0, 256, 21);

    int backend_calls = 0;
    for (int cycle = 0; cycle < 5; ++cycle) {
        const PowerFailureOutcome outcome = system.powerFailAndRestore(
            fromMillis(5.0), fromSeconds(1.0), [&] { ++backend_calls; });
        EXPECT_TRUE(outcome.restore.usedWsp) << "cycle " << cycle;
    }
    EXPECT_EQ(backend_calls, 0);
    EXPECT_TRUE(checkPattern(system, 0, 256, 21));
    EXPECT_TRUE(system.wsp().running());
    EXPECT_EQ(system.wsp().bootSequence(), 1u + 5u);
}

TEST(FailureInjectorScenarios, ShortWindowTrainFallsBackEachCycle)
{
    // A 1 us residual window can never finish a save, so every cycle
    // of the train must take the back-end path — and still leave the
    // system running for the next cycle.
    WspSystem system(
        FailureInjector::withExactWindow(testConfig(), fromMicros(1.0)));
    system.start();

    int backend_calls = 0;
    for (int cycle = 0; cycle < 4; ++cycle) {
        const PowerFailureOutcome outcome = system.powerFailAndRestore(
            fromMillis(5.0), fromSeconds(1.0), [&] { ++backend_calls; });
        EXPECT_FALSE(outcome.restore.usedWsp) << "cycle " << cycle;
        EXPECT_EQ(backend_calls, cycle + 1);
    }
    EXPECT_TRUE(system.wsp().running());
}

TEST(FailureInjectorScenarios, DrainStopsAtEsrFloorNotBelow)
{
    // Asking the injector for a target far below the DC-DC floor must
    // terminate at the floor: near it the ESR drop puts the terminal
    // voltage under the usable minimum, so the drain's draw delivers
    // nothing and the loop must break instead of spinning forever.
    WspSystem system(testConfig());
    system.start();
    FailureInjector injector(system);
    injector.drainUltracap(0, 0.5);

    const Ultracapacitor &cap = system.memory().module(0).ultracap();
    EXPECT_GE(cap.voltage(), 5.5);
    EXPECT_LT(cap.voltage(), cap.config().minUsableVoltage + 0.5);
    // Whatever charge remains is unusable for a save.
    EXPECT_LT(cap.usableEnergy(), 5.0);

    // A target above the floor is still honored exactly.
    injector.drainUltracap(1, 8.0);
    EXPECT_LE(system.memory().module(1).ultracap().voltage(), 8.0);
    EXPECT_GT(system.memory().module(1).ultracap().voltage(), 7.0);
}

TEST(FailureInjection, SaveFailedModuleRearmsOnNextBoot)
{
    // A bank too small to finish the flash save leaves the module in
    // SaveFailed. The next boot must not wedge on that state: power
    // restore clears it, recharges the bank, and the following cycle
    // runs the same deterministic fallback again.
    SystemConfig config = testConfig();
    config.nvdimm.capacityBytes = 64 * kMiB;
    config.nvdimm.flashChannels = 1;
    config.nvdimm.savePowerWatts = 50.0;
    config.nvdimm.ultracap.ratedCapacitanceF = 0.02;
    WspSystem system(config);
    system.start();

    int backend_calls = 0;
    auto first = system.powerFailAndRestore(
        fromMillis(5.0), fromSeconds(60.0), [&] { ++backend_calls; });
    EXPECT_FALSE(first.restore.usedWsp);
    EXPECT_EQ(backend_calls, 1);
    // SaveFailed was cleared on power restore, not carried over.
    EXPECT_EQ(system.memory().module(0).state(), NvdimmState::Active);
    EXPECT_FALSE(system.nvdimms().anySaveFailed());
    EXPECT_TRUE(system.memory().module(0).armed());

    auto second = system.powerFailAndRestore(
        fromMillis(5.0), fromSeconds(60.0), [&] { ++backend_calls; });
    EXPECT_FALSE(second.restore.usedWsp);
    EXPECT_EQ(backend_calls, 2);
    EXPECT_TRUE(system.wsp().running());
}

TEST(FailureInjectorScenarios, DrainedUltracapRechargesAndRecovers)
{
    // Drain one bank below its usable floor: the first failure cannot
    // finish the flash save, so recovery falls back. Power restore
    // recharges the bank, so a second failure recovers via WSP again.
    WspSystem system(testConfig());
    system.start();
    FailureInjector injector(system);
    // The drain stops at the usable floor (the ESR drop blocks any
    // further draw), leaving the bank with almost no usable energy.
    injector.drainUltracap(0, 5.0);
    ASSERT_LT(system.memory().module(0).ultracap().voltage(), 6.1);

    bool backend_ran = false;
    auto first = system.powerFailAndRestore(
        fromMillis(5.0), fromSeconds(30.0), [&] { backend_ran = true; });
    EXPECT_FALSE(first.restore.usedWsp);
    EXPECT_FALSE(system.memory().module(0).flashValid());
    EXPECT_TRUE(backend_ran);

    writePattern(system, 0, 128, 34);
    backend_ran = false;
    auto second = system.powerFailAndRestore(
        fromMillis(5.0), fromSeconds(30.0), [&] { backend_ran = true; });
    EXPECT_TRUE(second.restore.usedWsp);
    EXPECT_FALSE(backend_ran);
    EXPECT_TRUE(checkPattern(system, 0, 128, 34));
}

// Prediction --------------------------------------------------------------

TEST(SavePrediction, MatchesMeasuredDuration)
{
    WspSystem system(testConfig());
    system.start();
    const Tick predicted = system.wsp().saveRoutine().predictDuration();
    auto outcome = system.powerFailAndRestore(fromMillis(5.0),
                                              fromSeconds(30.0));
    ASSERT_TRUE(outcome.save.has_value());
    const Tick measured = outcome.save->duration();
    EXPECT_NEAR(toMillis(predicted), toMillis(measured),
                0.05 * toMillis(measured) + 0.01);
}

TEST(SavePrediction, Under5msOnAllPlatforms)
{
    // Fig. 8's headline: save times consistently under 5 ms.
    for (const PlatformSpec &spec : allPlatforms()) {
        SystemConfig config = testConfig();
        config.platform = spec;
        WspSystem system(config);
        EXPECT_LT(toMillis(system.wsp().saveRoutine().predictDuration()),
                  5.0)
            << spec.name;
    }
}

} // namespace
} // namespace wsp
