#include "crashsim/crash_explorer.h"

#include <algorithm>
#include <set>

#include "core/failure_injector.h"
#include "crashsim/conditions/kv_conditions.h"
#include "trace/stat_registry.h"
#include "trace/trace.h"
#include "util/logging.h"
#include "util/rng.h"

namespace wsp::crashsim {

namespace {

/** Reference-run residual window: longer than the whole pipeline. */
constexpr Tick kHugeWindow = fromSeconds(2.0);

/** How far past the AC failure the enumeration run observes. */
constexpr Tick kObserveSpan = fromMillis(500.0);

} // namespace

SystemConfig
CrashExplorer::configFor(const CrashSchedule &schedule)
{
    SystemConfig config;
    config.seed = schedule.seed;
    config.nvdimmCount = 2;
    config.nvdimm.capacityBytes = 4 * kMiB;
    config.nvdimm.flashChannels = 1;
    if (!schedule.withDevices)
        config.devices.clear();
    config.wsp.firmwareBootLatency = fromMillis(50.0);
    config.wsp.osResumeLatency = fromMillis(1.0);
    config.wsp.hostStackBootLatency = fromMillis(50.0);
    config.wsp.saveOrder = schedule.saveOrder;
    config.wsp.parallelFlush = schedule.parallelSave;
    if (schedule.degradeTier >= 0) {
        config.wsp.forceDegradedSave = true;
        config.wsp.degradedTierCut =
            static_cast<SaveTier>(schedule.degradeTier);
    }
    config.wsp.trustSalvageDirectory = schedule.trustDirectory;
    config.nvdimm.incrementalSave = schedule.incrementalSave;
    config.nvdimm.lazyRestore = schedule.lazyRestore;
    // Every completed (or failed) save self-checks that flash is
    // byte-identical to what a full save would have produced; the
    // IncrementalSaveSound checker reads the mismatch counts. Cheap
    // at crashsim module sizes thanks to the COW page comparison.
    config.nvdimm.verifySaves = true;
    // Black-box recorder: the ring rides the save, so every failing
    // schedule decodes to a timeline. A schedule that opts out
    // (equivalence sweep) builds no recorder at all.
    config.wsp.flightRecorder = schedule.blackBox;
    if (schedule.salvage && schedule.drainModule >= 0) {
        // A drained bank under the salvage regime also exercises the
        // health monitor: the periodic self-test notices the missing
        // energy margin and the next save starts out degraded.
        config.wsp.healthCheckPeriod = fromMillis(1.0);
    }
    config = FailureInjector::withExactWindow(std::move(config),
                                              schedule.window);
    if (schedule.undersizedCaps)
        config = FailureInjector::withUndersizedUltracaps(
            std::move(config));
    return config;
}

CrashPointResult
CrashExplorer::runSchedule(const CrashSchedule &schedule)
{
    return runSchedule(schedule, nullptr);
}

CrashPointResult
CrashExplorer::runSchedule(const CrashSchedule &schedule,
                           NvramImage *captured_image)
{
    WSP_CHECKF(schedule.fleetNodes == 0,
               "a fleet schedule runs through fleet::FleetSweep::runSchedule");
    CrashPointResult result;
    result.schedule = schedule;

    // The machine that crashes.
    WspSystem crashed(configFor(schedule));
    crashed.start();

    auto checkers = standardCheckers();
    auto *kv = dynamic_cast<conditions::KvConditionsChecker *>(
        checkers.front().get());
    for (auto &checker : checkers)
        checker->prepare(crashed, schedule);

    if (schedule.salvage && kv != nullptr) {
        // Per-shard recovery for train-cycle restores on this chassis.
        crashed.setRegionRecovery(
            [kv, &crashed](const RegionOutcome &region) {
                kv->onRegionRecovery(crashed, region);
            });
    }

    FailureInjector injector(crashed);
    if (schedule.drainModule >= 0 &&
        static_cast<size_t>(schedule.drainModule) <
            crashed.memory().moduleCount())
        injector.drainUltracap(
            static_cast<size_t>(schedule.drainModule),
            schedule.drainVoltage);
    if (schedule.dropSaveCommands > 0)
        injector.dropSaveCommands(schedule.dropSaveCommands);

    const auto backendOnCrashed = [&checkers, &crashed]() {
        for (auto &checker : checkers)
            checker->onBackendRecovery(crashed);
    };

    // Optional same-system outage train before the captured crash.
    for (unsigned cycle = 1; cycle < schedule.trainCycles; ++cycle)
        crashed.powerFailAndRestore(schedule.trainSpacing,
                                    schedule.outage, backendOnCrashed);

    // The final failure: power never comes back on this chassis.
    crashed.psu().failInputAt(crashed.queue().now() +
                              schedule.failDelay);
    crashed.runFor(schedule.failDelay + schedule.outage);

    // A module still mid-save runs on its ultracapacitor; let it
    // conclude (finish or exhaust) before pulling the DIMMs.
    unsigned guard = 0;
    while (!crashed.nvdimms().allIdle() && guard++ < 1000)
        crashed.runFor(fromMillis(10.0));
    WSP_CHECKF(crashed.nvdimms().allIdle(),
               "NVDIMMs never settled after the crash");

    // Silent flash media faults land on the at-rest image, after the
    // save concluded and before the DIMMs are pulled.
    for (const PlannedMediaFault &fault :
         plannedMediaFaults(schedule, crashed.memory().moduleCount(),
                            crashed.memory().module(0).capacity()))
        crashed.memory().module(fault.module).injectFlashFault(
            fault.kind, fault.addr);

    // Pull the DIMMs and socket them into a fresh chassis.
    const NvramImage image = crashed.captureNvramImage();
    if (captured_image != nullptr)
        *captured_image = crashed.captureNvramImage();
    WspSystem revived(configFor(schedule));
    if (schedule.salvage && kv != nullptr) {
        revived.setRegionRecovery(
            [kv, &revived](const RegionOutcome &region) {
                kv->onRegionRecovery(revived, region);
            });
    }
    bool backend_ran = false;
    result.restore = revived.bootFromImage(
        image, [&checkers, &revived, &backend_ran]() {
            backend_ran = true;
            for (auto &checker : checkers)
                checker->onBackendRecovery(revived);
        });
    result.backendRan = backend_ran;
    result.appliedOps = kv != nullptr ? kv->appliedOps() : 0;

    for (auto &checker : checkers)
        checker->check(crashed, revived, result.restore, backend_ran,
                       &result.violations);

    // Post-mortem forensics: a failing schedule carries the decoded
    // black-box timeline from the image that survived the crash.
    if (!result.held() && schedule.blackBox) {
        const trace::FrDecodeResult decode = decodeBlackBox(image);
        result.timeline = trace::frFormatTimeline(decode);
        if (!decode.headerFound)
            result.timeline.push_back(
                "(no flight-recorder header survived the crash)");
    }

    auto &stats = trace::StatRegistry::instance();
    static trace::Counter &points = stats.counter("crashsim.points_explored");
    points.add();
    if (result.restore.usedWsp) {
        static trace::Counter &recoveries =
            stats.counter("crashsim.wsp_recoveries");
        recoveries.add();
    } else {
        static trace::Counter &fallbacks = stats.counter("crashsim.fallbacks");
        fallbacks.add();
    }
    if (!result.held()) {
        static trace::Counter &violations =
            stats.counter("crashsim.violations");
        violations.add(result.violations.size());
        TRACE_INSTANT(Crashsim, "invariant VIOLATED");
    }
    return result;
}

std::vector<Tick>
CrashExplorer::enumerateCrashPoints(size_t max_points)
{
    // Reference run: same scenario, but the residual window is far
    // longer than the save pipeline, so every step dispatches and the
    // observer sees the complete event-boundary set.
    CrashSchedule reference = base_;
    reference.window = kHugeWindow;
    reference.trainCycles = 1;

    WspSystem system(configFor(reference));
    system.start();
    auto checkers = standardCheckers();
    for (auto &checker : checkers)
        checker->prepare(system, reference);

    const Tick fail_at = system.queue().now() + reference.failDelay;
    std::vector<Tick> dispatches;
    system.queue().setDispatchObserver(
        [&dispatches, fail_at](Tick when) {
            if (when >= fail_at)
                dispatches.push_back(when);
        });
    system.psu().failInputAt(fail_at);
    system.runFor(reference.failDelay + kObserveSpan);
    system.queue().setDispatchObserver(nullptr);

    // Windows to sweep: just-before (the hard-loss event at an equal
    // tick was scheduled first, so it fires first) and just-after
    // every observed dispatch, plus gap midpoints, plus the edges.
    std::set<Tick> points{0, 1};
    Tick prev = fail_at;
    for (Tick when : dispatches) {
        const Tick offset = when - fail_at;
        points.insert(offset);
        points.insert(offset + 1);
        if (when > prev + 1)
            points.insert(((prev - fail_at) + offset) / 2);
        prev = when;
    }

    std::vector<Tick> all(points.begin(), points.end());
    if (all.size() <= max_points)
        return all;
    std::vector<Tick> thinned;
    thinned.reserve(max_points);
    for (size_t i = 0; i < max_points; ++i)
        thinned.push_back(all[i * all.size() / max_points]);
    thinned.back() = all.back(); // always sweep "save completed"
    inform("crashsim: thinned %zu crash points to %zu",
           all.size(), thinned.size());
    return thinned;
}

SweepReport
CrashExplorer::sweepEnumerated(bool stop_on_first_violation,
                               size_t max_points)
{
    SweepReport report;
    for (Tick window : enumerateCrashPoints(max_points)) {
        CrashSchedule schedule = base_;
        schedule.window = window;
        CrashPointResult result = runSchedule(schedule);
        ++report.points;
        if (result.restore.usedWsp)
            ++report.wspRecoveries;
        else
            ++report.fallbacks;
        if (!result.held()) {
            report.failures.push_back(std::move(result));
            if (stop_on_first_violation)
                break;
        }
    }
    return report;
}

CrashExplorer::EquivalenceReport
CrashExplorer::incrementalEquivalenceSweep(size_t max_points)
{
    // Enumerate on the delta-save timeline — that is the pipeline
    // under test; each window is then a legal crash instant for the
    // full-save run too.
    CrashSchedule reference = base_;
    reference.incrementalSave = true;
    // Recorder content legitimately differs between the two pipelines
    // (the full-vs-delta save records carry different arguments), so
    // the ring must stay out of the compared flash for this sweep.
    reference.blackBox = false;
    EquivalenceReport report;
    for (Tick window :
         CrashExplorer(reference).enumerateCrashPoints(max_points)) {
        CrashSchedule inc = base_;
        inc.window = window;
        inc.incrementalSave = true;
        inc.blackBox = false;
        CrashSchedule full = inc;
        full.incrementalSave = false;

        NvramImage inc_image;
        NvramImage full_image;
        runSchedule(inc, &inc_image);
        runSchedule(full, &full_image);
        ++report.points;

        bool equal = inc_image.moduleCount() == full_image.moduleCount();
        bool complete = equal;
        for (size_t m = 0; equal && m < inc_image.moduleCount(); ++m) {
            const auto &a = inc_image.module(m);
            const auto &b = full_image.module(m);
            // The valid flags may legitimately differ: the delta save
            // programs fewer bytes and completes earlier, so some
            // windows catch only the full save mid-flight. Only the
            // *bytes both claim programmed* must agree.
            complete = complete && a.valid && b.valid;
            // Both runs saw identical pre-crash histories, so DRAM at
            // save time was identical; each image's claimed suffix
            // equals that DRAM, hence the *common* suffix must match
            // byte for byte — and the whole image when both saves
            // completed.
            const uint64_t capacity = a.flash.capacity();
            const uint64_t covered =
                std::min(a.savedBytes, b.savedBytes);
            equal = a.flash.rangeEquals(b.flash, capacity - covered,
                                        covered);
        }
        if (complete)
            ++report.bothComplete;
        if (!equal)
            report.mismatchWindows.push_back(window);
    }
    return report;
}

SweepReport
CrashExplorer::fuzz(unsigned runs, uint64_t seed)
{
    SweepReport report;
    Rng rng(seed);
    for (unsigned i = 0; i < runs; ++i) {
        CrashSchedule schedule = base_;
        schedule.seed = rng();
        schedule.window = rng.next(fromMillis(40.0) + 1);
        schedule.ops = 16 + static_cast<unsigned>(rng.next(96));
        schedule.outage = fromMillis(200.0) + rng.next(fromSeconds(2.0));
        if (rng.chance(0.25)) {
            schedule.trainCycles =
                2 + static_cast<unsigned>(rng.next(3));
        }
        if (rng.chance(0.15)) {
            schedule.drainModule = static_cast<int>(rng.next(2));
            schedule.drainVoltage = rng.uniform(4.0, 9.0);
        }
        if (rng.chance(0.10))
            schedule.undersizedCaps = true;
        if (rng.chance(0.30)) {
            // Exercise the parallel regime: striped store and/or the
            // per-core flush path.
            schedule.shards = 1u << rng.next(4); // 1, 2, 4, or 8
            schedule.parallelSave = rng.chance(0.67);
        }
        if (rng.chance(0.35)) {
            // The salvage regime: tiered regions, media faults on the
            // captured image, forced degraded saves, dropped commands.
            schedule.salvage = true;
            if (rng.chance(0.6)) {
                schedule.mediaFaults =
                    1 + static_cast<unsigned>(rng.next(4));
                schedule.mediaFaultSeed = rng();
            }
            if (rng.chance(0.3))
                schedule.degradeTier = static_cast<int>(rng.next(2));
            if (rng.chance(0.2))
                schedule.dropSaveCommands =
                    1 + static_cast<unsigned>(rng.next(2));
        }
        // Flip the persistence-engine modes so the fuzz campaign
        // covers full-save-only and lazy-restore timelines too.
        if (rng.chance(0.25))
            schedule.incrementalSave = false;
        if (rng.chance(0.25))
            schedule.lazyRestore = true;
        // Vary the respond offset so crash points land on both sides
        // of each operation's completion boundary (must stay below
        // opSpacing to keep the history sequential).
        schedule.ackDelay = fromMicros(5.0) + rng.next(fromMicros(40.0));

        CrashPointResult result = runSchedule(schedule);
        ++report.points;
        if (result.restore.usedWsp)
            ++report.wspRecoveries;
        else
            ++report.fallbacks;
        if (!result.held())
            report.failures.push_back(std::move(result));
    }
    return report;
}

CrashSchedule
CrashExplorer::minimize(CrashSchedule failing, unsigned budget)
{
    const auto stillFails = [&budget](const CrashSchedule &candidate) {
        if (budget == 0)
            return false;
        --budget;
        return !runSchedule(candidate).held();
    };

    if (!stillFails(failing))
        return failing; // not (or no longer) a failing schedule

    // Greedy shrink to fixpoint: accept any simplification that
    // preserves the violation.
    bool changed = true;
    while (changed && budget > 0) {
        changed = false;
        const auto tryAccept = [&](CrashSchedule candidate) {
            if (candidate == failing)
                return;
            if (stillFails(candidate)) {
                failing = candidate;
                changed = true;
            }
        };

        {
            CrashSchedule c = failing;
            c.trainCycles = 1;
            tryAccept(c);
        }
        {
            CrashSchedule c = failing;
            c.drainModule = -1;
            c.drainVoltage = 0.0;
            tryAccept(c);
        }
        {
            CrashSchedule c = failing;
            c.undersizedCaps = false;
            tryAccept(c);
        }
        {
            CrashSchedule c = failing;
            c.withDevices = false;
            tryAccept(c);
        }
        {
            CrashSchedule c = failing;
            c.mediaFaults = 0;
            c.mediaFaultSeed = 0;
            tryAccept(c);
        }
        {
            CrashSchedule c = failing;
            c.degradeTier = -1;
            tryAccept(c);
        }
        {
            CrashSchedule c = failing;
            c.dropSaveCommands = 0;
            tryAccept(c);
        }
        {
            // Simpler pipeline: every save full, eager restore. A
            // failure that survives this is not an incremental-engine
            // bug.
            CrashSchedule c = failing;
            c.incrementalSave = false;
            c.lazyRestore = false;
            tryAccept(c);
        }
        {
            CrashSchedule c = failing;
            c.salvage = false;
            c.mediaFaults = 0;
            c.mediaFaultSeed = 0;
            c.degradeTier = -1;
            c.trustDirectory = false;
            tryAccept(c);
        }
        if (failing.ops > 8) {
            CrashSchedule c = failing;
            c.ops /= 2;
            tryAccept(c);
        }
        if (failing.outage > fromMillis(200.0)) {
            CrashSchedule c = failing;
            c.outage = fromMillis(200.0);
            tryAccept(c);
        }
        for (Tick grid : {fromMillis(1.0), fromMicros(100.0),
                          fromMicros(10.0)}) {
            CrashSchedule c = failing;
            c.window = c.window / grid * grid;
            tryAccept(c);
        }
    }
    return failing;
}

} // namespace wsp::crashsim
