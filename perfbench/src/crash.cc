/**
 * @file
 * crash-sweep: enumerated crash points of the standard schedule.
 *
 * One sweep is what CrashExplorer::sweepEnumerated does: enumerate the
 * distinguishable power-loss instants of the standard schedule (2000
 * KV ops, points capped at 400), then run the schedule once per
 * instant through CrashExplorer::runSchedule, single-threaded. Whole
 * sweeps are repeated for the requested time; work is crash points
 * per second and latency is the host time to a verdict for one point
 * (each crash window's median over the sweeps; p50 over the windows,
 * and p99 in the traced run), both scaled by hostScale() in untraced
 * runs. Every point must hold every invariant.
 *
 * The traced half replays each point through the same public calls
 * runSchedule makes for this schedule (build and start the chassis,
 * prepare the checkers, run through the crash, capture the image,
 * boot a fresh chassis from it, check), with a span around each.
 */

#include <memory>

#include "bench.h"
#include "core/system.h"
#include "crashsim/crash_explorer.h"
#include "crashsim/invariants.h"
#include "spans.h"
#include "trace/stat_registry.h"

namespace perfbench {

namespace {

using wsp::crashsim::CrashExplorer;
using wsp::crashsim::CrashSchedule;

constexpr size_t kMaxPoints = 400;
constexpr unsigned kOps = 2000;
constexpr int kSetups = 5;
constexpr size_t kPointsPerSlice = 50;

/** What the sweeps saw. */
struct Sweeps
{
    uint64_t sweeps = 0;
    uint64_t points = 0;
    uint64_t violations = 0;
    uint64_t wspRecoveries = 0;
    double sweepS = 0.0;
    double scaledS = 0.0; ///< sweep time scaled by hostScale()
    /// Scaled time of every run of each crash window, by window index.
    std::vector<std::vector<double>> windowUs;

    /** Median time of each window over the sweeps. */
    std::vector<double> perWindowUs() const
    {
        std::vector<double> out;
        for (const std::vector<double> &runs : windowUs)
            out.push_back(median(runs));
        return out;
    }
};

/** Per-point simulated outcomes, collected in the traced half. */
struct SimOutcomes
{
    uint64_t events = 0;
    std::vector<double> saveUs, contextUs, flushUs, markerUs, dirtyKiB;
    std::vector<double> restoreMs, nvdimmMs;
};

void
report(const CrashSchedule &schedule,
       const std::vector<std::string> &violations)
{
    std::fprintf(stderr, "crash point %s violated:\n",
                 schedule.summary().c_str());
    for (const std::string &violation : violations)
        std::fprintf(stderr, "  %s\n", violation.c_str());
}

/**
 * runSchedule's calls for the standard schedule (no outage train, no
 * pre-drain, no media faults, no salvage regions), one span each.
 * Returns whether the point recovered through WSP.
 */
bool
replayPoint(const CrashSchedule &schedule, Sweeps *sweeps, SimOutcomes *sim)
{
    std::unique_ptr<wsp::WspSystem> crashed;
    std::unique_ptr<wsp::WspSystem> revived;
    const auto countEvent = [sim](wsp::Tick) { ++sim->events; };
    {
        Span span("core.WspSystem+start");
        crashed = std::make_unique<wsp::WspSystem>(
            CrashExplorer::configFor(schedule));
        crashed->start();
    }
    auto checkers = wsp::crashsim::standardCheckers();
    {
        Span span("crashsim.InvariantChecker::prepare");
        for (auto &checker : checkers)
            checker->prepare(*crashed, schedule);
    }
    {
        Span span("core.WspSystem::runFor");
        crashed->queue().setDispatchObserver(countEvent);
        crashed->psu().failInputAt(crashed->queue().now() +
                                   schedule.failDelay);
        crashed->runFor(schedule.failDelay + schedule.outage);
        unsigned guard = 0;
        while (!crashed->nvdimms().allIdle() && guard++ < 1000)
            crashed->runFor(wsp::fromMillis(10.0));
        crashed->queue().setDispatchObserver(nullptr);
    }
    wsp::NvramImage image;
    {
        Span span("nvram.WspSystem::captureNvramImage");
        image = crashed->captureNvramImage();
    }
    {
        Span span("core.WspSystem+start");
        revived = std::make_unique<wsp::WspSystem>(
            CrashExplorer::configFor(schedule));
    }
    bool backendRan = false;
    wsp::RestoreReport restore;
    {
        Span span("core.WspSystem::bootFromImage");
        revived->queue().setDispatchObserver(countEvent);
        wsp::WspSystem &target = *revived;
        restore = revived->bootFromImage(
            image, [&checkers, &target, &backendRan]() {
                backendRan = true;
                for (auto &checker : checkers)
                    checker->onBackendRecovery(target);
            });
        revived->queue().setDispatchObserver(nullptr);
    }
    std::vector<std::string> violations;
    {
        Span span("crashsim.InvariantChecker::check");
        for (auto &checker : checkers)
            checker->check(*crashed, *revived, restore, backendRan,
                           &violations);
    }
    if (!violations.empty()) {
        ++sweeps->violations;
        report(schedule, violations);
    }

    const auto &save = crashed->wsp().lastSave();
    if (save && save->completed) {
        sim->saveUs.push_back(wsp::toMicros(save->duration()));
        sim->contextUs.push_back(wsp::toMicros(save->contextSaveTime));
        sim->flushUs.push_back(wsp::toMicros(save->cacheFlushTime));
        sim->markerUs.push_back(wsp::toMicros(save->markerTime));
        sim->dirtyKiB.push_back(
            static_cast<double>(save->dirtyBytesFlushed) / 1024.0);
    }
    if (restore.usedWsp) {
        sim->restoreMs.push_back(wsp::toMillis(restore.duration()));
        sim->nvdimmMs.push_back(wsp::toMillis(restore.nvdimmRestoreTime));
    }
    {
        Span span("core.WspSystem::~WspSystem");
        checkers.clear();
        revived.reset();
        crashed.reset();
    }
    return restore.usedWsp;
}

/**
 * Whole sweeps until @p budget seconds have passed. Untraced runs
 * (@p traced null) follow every kPointsPerSlice points with
 * hostScale() and scale those points' times by it.
 */
void
sweep(CrashExplorer &explorer, double budget, SimOutcomes *traced,
      Sweeps *sweeps)
{
    std::vector<std::pair<size_t, double>> slice; // (window, raw us)
    int64_t sliceStart = nowNs();
    const auto closeSlice = [&]() {
        const double rawS = static_cast<double>(nowNs() - sliceStart) * 1e-9;
        const double scale = traced == nullptr ? hostScale() : 1.0;
        sweeps->sweepS += rawS;
        sweeps->scaledS += rawS * scale;
        for (const auto &[window, us] : slice) {
            if (sweeps->windowUs.size() <= window)
                sweeps->windowUs.resize(window + 1);
            sweeps->windowUs[window].push_back(us * scale);
        }
        slice.clear();
        sliceStart = nowNs();
    };
    const double until = nowSeconds() + budget;
    do {
        std::vector<wsp::Tick> windows;
        {
            Span span("crashsim.CrashExplorer::enumerateCrashPoints");
            windows = explorer.enumerateCrashPoints(kMaxPoints);
        }
        for (size_t i = 0; i < windows.size(); ++i) {
            CrashSchedule schedule = explorer.base();
            schedule.window = windows[i];
            const int64_t start = nowNs();
            bool usedWsp = false;
            if (traced != nullptr) {
                usedWsp = replayPoint(schedule, sweeps, traced);
            } else {
                const auto point = CrashExplorer::runSchedule(schedule);
                usedWsp = point.restore.usedWsp;
                if (!point.held()) {
                    ++sweeps->violations;
                    report(schedule, point.violations);
                }
            }
            slice.emplace_back(i,
                               static_cast<double>(nowNs() - start) * 1e-3);
            sweeps->wspRecoveries += usedWsp ? 1 : 0;
            ++sweeps->points;
            if (slice.size() == kPointsPerSlice)
                closeSlice();
        }
        if (!slice.empty())
            closeSlice();
        ++sweeps->sweeps;
    } while (nowSeconds() < until);
}

} // namespace

Result
runCrashSweep(const Options &options)
{
    CrashSchedule base;
    base.seed = mixSeed(options.seed, 3);
    base.ops = kOps;

    // Set-up: explorer, enumeration and one warm-up point (the full
    // save), several times.
    std::vector<double> setups;
    std::unique_ptr<CrashExplorer> explorer;
    Result result;
    for (int i = 0; i < kSetups; ++i) {
        const double start = nowSeconds();
        explorer = std::make_unique<CrashExplorer>(base);
        const std::vector<wsp::Tick> windows =
            explorer->enumerateCrashPoints(kMaxPoints);
        CrashSchedule warm = base;
        warm.window = windows.back();
        if (!CrashExplorer::runSchedule(warm).held())
            result.fail("warm-up point violated an invariant");
        setups.push_back((nowSeconds() - start) * hostScale());
    }

    Tracer &tracer = Tracer::instance();
    Sweeps plain;
    sweep(*explorer, options.trace ? options.seconds * 0.5 : options.seconds,
          nullptr, &plain);
    const double peakRss = peakRssMiB();
    result.attempted = plain.points;
    result.failed = plain.violations;

    if (!options.trace) {
        std::printf("crash-sweep: %llu points in %.2f s, %llu WSP "
                    "recoveries, %llu violations\n",
                    static_cast<unsigned long long>(plain.points),
                    plain.sweepS,
                    static_cast<unsigned long long>(plain.wspRecoveries),
                    static_cast<unsigned long long>(plain.violations));
        if (plain.violations > 0)
            result.fail("crash points violated invariants");
        result.add("work_per_s",
                   static_cast<double>(plain.points) / plain.scaledS, "1/s");
        result.add("p50_us", quantile(plain.perWindowUs(), 0.5), "us");
        result.add("setup_s", median(setups), "s");
        result.add("peak_rss_mib", peakRss, "MiB");
        return result;
    }

    auto &stats = wsp::trace::StatRegistry::instance();
    const uint64_t savedBefore = stats.counter("nvram.bytes_saved").value();
    const uint64_t restoredBefore =
        stats.counter("nvram.bytes_restored").value();
    Sweeps traced;
    SimOutcomes sim;
    tracer.setEnabled(true);
    {
        Span root("crash-sweep");
        sweep(*explorer, options.seconds * 0.5, &sim, &traced);
    }
    tracer.setEnabled(false);
    result.attempted += traced.points;
    result.failed += traced.violations;
    if (result.failed > 0)
        result.fail("crash points violated invariants");

    const double points = static_cast<double>(traced.points);
    const auto perPointUs = [&](const char *span) {
        return tracer.totalMs(span) * 1e3 / points;
    };
    tracer.printTable(stdout, "crash-sweep", "crash-sweep");
    std::printf("crash-sweep: %llu untraced points in %.2f s, %llu traced "
                "points in %.2f s\n",
                static_cast<unsigned long long>(plain.points), plain.sweepS,
                static_cast<unsigned long long>(traced.points),
                traced.sweepS);

    result.add("crashsim.enumerate_ms",
               tracer.totalMs("crashsim.CrashExplorer::enumerateCrashPoints") /
                   static_cast<double>(traced.sweeps),
               "ms");
    result.add("core.build_us_per_point",
               perPointUs("core.WspSystem+start") +
                   perPointUs("core.WspSystem::~WspSystem"),
               "us");
    result.add("core.run_us_per_point", perPointUs("core.WspSystem::runFor"),
               "us");
    result.add("nvram.capture_us_per_point",
               perPointUs("nvram.WspSystem::captureNvramImage"), "us");
    result.add("core.boot_us_per_point",
               perPointUs("core.WspSystem::bootFromImage"), "us");
    result.add("crashsim.check_us_per_point",
               perPointUs("crashsim.InvariantChecker::prepare") +
                   perPointUs("crashsim.InvariantChecker::check"),
               "us");
    result.add("sim.events_per_point",
               static_cast<double>(sim.events) / points, "count");
    result.add("sim.ns_per_event",
               (tracer.totalMs("core.WspSystem::runFor") +
                tracer.totalMs("core.WspSystem::bootFromImage")) *
                   1e6 / static_cast<double>(std::max<uint64_t>(1, sim.events)),
               "ns");
    result.add("nvram.saved_kib_per_point",
               static_cast<double>(stats.counter("nvram.bytes_saved").value() -
                                   savedBefore) /
                   1024.0 / points,
               "KiB");
    result.add("nvram.restored_kib_per_point",
               static_cast<double>(
                   stats.counter("nvram.bytes_restored").value() -
                   restoredBefore) /
                   1024.0 / points,
               "KiB");
    result.add("crashsim.wsp_recovery_frac",
               static_cast<double>(traced.wspRecoveries) / points, "frac");
    result.add("core.save.sim_us", median(sim.saveUs), "us");
    result.add("core.save.context_us", median(sim.contextUs), "us");
    result.add("core.save.flush_us", median(sim.flushUs), "us");
    result.add("core.save.marker_us", median(sim.markerUs), "us");
    result.add("core.save.dirty_kib", median(sim.dirtyKiB), "KiB");
    result.add("core.restore.sim_ms", median(sim.restoreMs), "ms");
    result.add("core.restore.nvdimm_ms", median(sim.nvdimmMs), "ms");
    result.add("tail.p99_us", quantile(traced.perWindowUs(), 0.99), "us");
    result.add("trace.overhead_frac",
               (traced.sweepS / points) /
                       (plain.sweepS / static_cast<double>(plain.points)) -
                   1.0,
               "frac");
    result.add("trace.coverage_frac", tracer.coverage("crash-sweep"),
               "frac");
    return result;
}

} // namespace perfbench
