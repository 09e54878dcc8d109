/**
 * @file
 * Crash-point exploration engine.
 *
 * Because the simulation is a deterministic discrete-event system,
 * the set of distinguishable power-loss instants of a run is exactly
 * the set of its event boundaries: between two dispatches nothing
 * changes, so crashing anywhere in the gap yields the same surviving
 * image. The explorer exploits this three ways:
 *
 *  - enumerateCrashPoints() runs one reference scenario with a huge
 *    residual window and records every dispatch after the AC failure
 *    through an EventQueue dispatch observer. That gives the complete
 *    list of interesting window lengths: just-before and just-after
 *    every save-pipeline event (IPI, context save, wbinvd, marker
 *    prepare/stamp, NVDIMM-save initiation, each ultracap-powered
 *    save step, device suspend steps) plus gap midpoints.
 *
 *  - sweepEnumerated() re-runs the scenario once per enumerated
 *    window. Each run kills the power at exactly that instant, pulls
 *    the surviving NVRAM image out of the dead chassis, sockets it
 *    into a freshly constructed system, boots it, and evaluates the
 *    invariant checkers (crashsim/invariants.h).
 *
 *  - fuzz() goes beyond the enumerable points: random windows, outage
 *    trains, pre-drained and undersized ultracapacitor banks, device
 *    sets — seed-driven and fully reproducible. minimize() shrinks
 *    any failing schedule to a simpler one that still fails, for the
 *    replay file consumed by tools/crash_replay.
 */

#pragma once

#include <string>
#include <vector>

#include "core/system.h"
#include "crashsim/crash_schedule.h"
#include "crashsim/invariants.h"

namespace wsp::crashsim {

/** Outcome of one crash/recovery run. */
struct CrashPointResult
{
    CrashSchedule schedule;
    RestoreReport restore;
    bool backendRan = false;
    uint64_t appliedOps = 0; ///< workload ops applied before the crash
    std::vector<std::string> violations;

    /**
     * Black-box forensics: the flight-recorder timeline decoded from
     * the surviving NVRAM image, attached to every failing schedule
     * (empty when the run held, or when schedule.blackBox is off).
     */
    std::vector<std::string> timeline;

    bool held() const { return violations.empty(); }
};

/** Aggregate of a sweep or fuzz campaign. */
struct SweepReport
{
    size_t points = 0;         ///< schedules executed
    size_t wspRecoveries = 0;  ///< runs that resumed via WSP
    size_t fallbacks = 0;      ///< runs that needed the back end
    std::vector<CrashPointResult> failures;

    bool allHeld() const { return failures.empty(); }
};

/** Enumerates, sweeps, fuzzes and minimizes crash schedules. */
class CrashExplorer
{
  public:
    explicit CrashExplorer(CrashSchedule base = {}) : base_(base) {}

    const CrashSchedule &base() const { return base_; }

    /** Assemble the SystemConfig a schedule's runs use. */
    static SystemConfig configFor(const CrashSchedule &schedule);

    /**
     * Execute one schedule end to end: workload, (optional) outage
     * train, the final crash at the exact window, image capture,
     * fresh-chassis boot, invariant evaluation. Single-machine
     * schedules only (fleetNodes == 0); a fleet schedule runs through
     * fleet::FleetSweep::runSchedule.
     */
    static CrashPointResult runSchedule(const CrashSchedule &schedule);

    /** As above, also handing out the captured NVRAM image. */
    static CrashPointResult runSchedule(const CrashSchedule &schedule,
                                        NvramImage *captured_image);

    /**
     * Every distinguishable crash window of the base scenario, in
     * ticks after the AC failure, thinned evenly to @p max_points.
     */
    std::vector<Tick> enumerateCrashPoints(size_t max_points = 160);

    /** Run the base schedule once per enumerated window. */
    SweepReport sweepEnumerated(bool stop_on_first_violation = false,
                                size_t max_points = 160);

    /**
     * Full-vs-incremental image equality sweep: at every enumerated
     * crash instant, run the base schedule once with delta saves and
     * once forced to full saves, and compare the surviving flash
     * images byte for byte over the suffix both runs claim
     * programmed (the whole image when both saves completed). Any
     * window where the two pipelines disagree is a soundness bug in
     * the incremental engine.
     */
    struct EquivalenceReport
    {
        size_t points = 0;           ///< windows compared
        size_t bothComplete = 0;     ///< windows with two valid images
        std::vector<Tick> mismatchWindows;

        bool allEqual() const { return mismatchWindows.empty(); }
    };

    EquivalenceReport
    incrementalEquivalenceSweep(size_t max_points = 96);

    /** Seed-driven random schedules beyond the enumerable points. */
    SweepReport fuzz(unsigned runs, uint64_t seed);

    /**
     * Greedily shrink @p failing toward the simplest schedule that
     * still violates an invariant, spending at most @p budget runs.
     * Returns the input unchanged if it no longer fails.
     */
    static CrashSchedule minimize(CrashSchedule failing,
                                  unsigned budget = 64);

  private:
    CrashSchedule base_;
};

} // namespace wsp::crashsim
