/**
 * @file
 * Fleet-level crash-point exploration.
 *
 * The single-machine CrashExplorer proves one chassis survives a
 * power loss at any instant of its save pipeline; this layer proves a
 * *replicated service* does. A fleet schedule reuses CrashSchedule —
 * the fleet-shaped fields (fleetNodes, fleetReplication,
 * fleetKillMask, fleetPolicy) ride alongside the classic window /
 * outage / train knobs — and every run is an outage-train storm:
 * correlated kills of an arbitrary node subset at an exact instant of
 * their save windows, client traffic hammering the survivors, the
 * configured recovery policy bringing victims back, and anti-entropy
 * certifying them.
 *
 * The verdict is the NoReplicaDivergence checker: after the fleet
 * settles, every acknowledged write must be present with its acked
 * value on every Up replica of its key (and acked erases absent) —
 * replicas agree with the acked history and therefore with each
 * other, and no client-visible acknowledged write was lost.
 */

#pragma once

#include <string>
#include <vector>

#include "crashsim/crash_schedule.h"
#include "fleet/fleet.h"

namespace wsp::fleet {

/**
 * The NoReplicaDivergence checker: convergence of Up replica sets
 * with the acked-write history, plus whole-fleet health (every
 * commissioned node certified Up, no recovery left pending) and the
 * maintained repair digests against a rescan (Fleet::checkDigests).
 * Empty result = held.
 */
std::vector<std::string> noReplicaDivergence(const Fleet &fleet);

/** Outcome of one fleet crash/recovery run. */
struct FleetCrashResult
{
    crashsim::CrashSchedule schedule;
    StormOutcome storm; ///< accumulated over the outage train
    RequestStats stats;
    std::vector<std::string> violations;

    bool held() const { return violations.empty(); }
};

/** Aggregate of a fleet sweep or fuzz campaign. */
struct FleetSweepReport
{
    size_t points = 0;
    size_t wspRecoveries = 0;
    size_t salvageBoots = 0;
    size_t backendRefills = 0;
    std::vector<FleetCrashResult> failures;

    bool allHeld() const { return failures.empty(); }
};

/** Enumerates, sweeps, fuzzes and minimizes fleet crash schedules. */
class FleetSweep
{
  public:
    explicit FleetSweep(crashsim::CrashSchedule base = defaultSchedule())
        : base_(base)
    {
    }

    const crashsim::CrashSchedule &base() const { return base_; }

    /** A small fleet schedule with the fleet fields switched on. */
    static crashsim::CrashSchedule defaultSchedule();

    /** The FleetConfig a schedule's runs use. */
    static FleetConfig configFor(const crashsim::CrashSchedule &schedule);

    /**
     * Execute one fleet schedule end to end: pre-storm traffic, then
     * trainCycles correlated-kill storms (mask = fleetKillMask, 0 =
     * every node) with interleaved client traffic and recovery, then
     * settle and run NoReplicaDivergence.
     */
    static FleetCrashResult
    runSchedule(const crashsim::CrashSchedule &schedule);

    /**
     * Every distinguishable kill instant of one fleet node's save
     * pipeline, via the single-machine explorer on an equivalent
     * chassis (fleet nodes are crashsim-sized, so the windows line
     * up), thinned to @p max_points.
     */
    std::vector<Tick> enumerateCrashPoints(size_t max_points = 24);

    /** Run the base schedule once per enumerated kill window. */
    FleetSweepReport
    sweepEnumerated(bool stop_on_first_violation = false,
                    size_t max_points = 24);

    /** Seed-driven random fleet schedules (masks, policies, sizes). */
    FleetSweepReport fuzz(unsigned runs, uint64_t seed);

    /**
     * Greedily shrink @p failing toward the simplest fleet schedule
     * that still violates NoReplicaDivergence, spending at most
     * @p budget runs. Returns the input unchanged if it holds.
     */
    static crashsim::CrashSchedule
    minimize(crashsim::CrashSchedule failing, unsigned budget = 32);

  private:
    crashsim::CrashSchedule base_;
};

} // namespace wsp::fleet
