#include "fleet/fleet_sweep.h"

#include <algorithm>

#include "crashsim/crash_explorer.h"
#include "util/logging.h"
#include "util/rng.h"

namespace wsp::fleet {

namespace {

/** Mix of puts/gets/erases the sweep's client driver issues. */
constexpr double kPutFraction = 0.6;

RecoveryPolicy
policyOf(const crashsim::CrashSchedule &schedule)
{
    switch (schedule.fleetPolicy) {
      case 1:
        return RecoveryPolicy::BackendRefill;
      case 2:
        return RecoveryPolicy::DegradedTier;
      default:
        return RecoveryPolicy::WspLocal;
    }
}

void
accumulate(StormOutcome *total, const StormOutcome &storm)
{
    total->victims += storm.victims;
    total->wspRecoveries += storm.wspRecoveries;
    total->salvageBoots += storm.salvageBoots;
    total->backendRefills += storm.backendRefills;
    total->digestsExchanged += storm.digestsExchanged;
    total->repairStreamedBytes += storm.repairStreamedBytes;
    total->shardsRepaired += storm.shardsRepaired;
    total->timeToFullCapacity =
        std::max(total->timeToFullCapacity, storm.timeToFullCapacity);
    total->fullCapacityAt =
        std::max(total->fullCapacityAt, storm.fullCapacityAt);
}

} // namespace

std::vector<std::string>
noReplicaDivergence(const Fleet &fleet)
{
    std::vector<std::string> violations = fleet.checkReplicaConvergence();
    for (std::string &violation : fleet.checkDigests())
        violations.push_back(std::move(violation));
    if (fleet.recoveryPending())
        violations.push_back("recovery events still pending at check");
    for (uint32_t id = 0; id < fleet.nodeCount(); ++id) {
        const FleetNode &node = fleet.node(id);
        if (node.state() != NodeState::Decommissioned && !node.up())
            violations.push_back("node " + std::to_string(id) +
                                 " never certified up (state " +
                                 nodeStateName(node.state()) + ")");
    }
    return violations;
}

crashsim::CrashSchedule
FleetSweep::defaultSchedule()
{
    crashsim::CrashSchedule schedule;
    schedule.fleetNodes = 3;
    schedule.fleetReplication = 3;
    schedule.fleetKillMask = 0; // every node: the correlated outage
    schedule.fleetPolicy = 0;
    schedule.ops = 48;
    schedule.shards = 8;
    schedule.salvage = true;
    schedule.outage = fromSeconds(1.0);
    return schedule;
}

FleetConfig
FleetSweep::configFor(const crashsim::CrashSchedule &schedule)
{
    FleetConfig config;
    config.nodes = schedule.fleetNodes == 0 ? 3 : schedule.fleetNodes;
    config.replication =
        std::max(1u, std::min(schedule.fleetReplication, config.nodes));
    config.seed = schedule.seed;
    config.policy = policyOf(schedule);
    config.shardsPerNode = std::max(1u, schedule.shards);
    config.keyUniverse = 256;
    config.killWindow = schedule.window;
    // Small modelled footprint keeps recovery timelines (and thus the
    // interleaved sampled traffic) short; the bench raises it to the
    // paper's 256 GiB per server.
    config.memoryPerServer = 4ull * kGiB;
    return config;
}

FleetCrashResult
FleetSweep::runSchedule(const crashsim::CrashSchedule &schedule)
{
    FleetCrashResult result;
    result.schedule = schedule;

    Fleet fleet(configFor(schedule));
    // Pre-storm traffic seeds acked state the kills must not lose.
    fleet.runTraffic(schedule.ops, kPutFraction);

    const unsigned cycles = std::max(1u, schedule.trainCycles);
    for (unsigned cycle = 0; cycle < cycles; ++cycle) {
        const StormOutcome storm =
            fleet.runStorm(schedule.fleetKillMask, schedule.outage,
                           schedule.window, kPutFraction);
        accumulate(&result.storm, storm);
        // Between cycles the fleet serves normally for a while, so
        // the next kill lands on re-dirtied stores.
        fleet.runTraffic(schedule.ops / 4 + 1, kPutFraction);
    }

    fleet.settle();
    result.violations = noReplicaDivergence(fleet);
    result.stats = fleet.stats();
    return result;
}

std::vector<Tick>
FleetSweep::enumerateCrashPoints(size_t max_points)
{
    // Fleet nodes are crashsim-sized chassis running the same sharded
    // store, so the save pipeline's distinguishable instants come
    // from the single-machine explorer on an equivalent schedule.
    crashsim::CrashSchedule single;
    single.seed = base_.seed;
    single.ops = base_.ops;
    single.shards = std::max(1u, base_.shards);
    single.salvage = true;
    crashsim::CrashExplorer explorer(single);
    return explorer.enumerateCrashPoints(max_points);
}

FleetSweepReport
FleetSweep::sweepEnumerated(bool stop_on_first_violation,
                            size_t max_points)
{
    FleetSweepReport report;
    for (Tick window : enumerateCrashPoints(max_points)) {
        crashsim::CrashSchedule schedule = base_;
        schedule.window = window;
        FleetCrashResult result = runSchedule(schedule);
        ++report.points;
        report.wspRecoveries += result.storm.wspRecoveries;
        report.salvageBoots += result.storm.salvageBoots;
        report.backendRefills += result.storm.backendRefills;
        if (!result.held()) {
            report.failures.push_back(std::move(result));
            if (stop_on_first_violation)
                break;
        }
    }
    return report;
}

FleetSweepReport
FleetSweep::fuzz(unsigned runs, uint64_t seed)
{
    FleetSweepReport report;
    Rng rng(seed);
    for (unsigned run = 0; run < runs; ++run) {
        crashsim::CrashSchedule schedule = base_;
        schedule.seed = rng();
        schedule.fleetNodes = 3 + static_cast<unsigned>(rng.next(3));
        schedule.fleetReplication =
            2 + static_cast<unsigned>(rng.next(2));
        // Mostly partial-subset kills; keep some full-fleet storms.
        schedule.fleetKillMask =
            rng.chance(0.3) ? 0
                            : rng() & ((1ull << schedule.fleetNodes) - 1);
        schedule.fleetPolicy = static_cast<int>(rng.next(3));
        schedule.window =
            fromMicros(rng.uniform(500.0, 40.0 * 1000.0));
        schedule.outage = fromSeconds(rng.uniform(0.5, 3.0));
        schedule.trainCycles = 1 + static_cast<unsigned>(rng.next(2));
        schedule.ops = 24 + static_cast<unsigned>(rng.next(48));

        FleetCrashResult result = runSchedule(schedule);
        ++report.points;
        report.wspRecoveries += result.storm.wspRecoveries;
        report.salvageBoots += result.storm.salvageBoots;
        report.backendRefills += result.storm.backendRefills;
        if (!result.held())
            report.failures.push_back(std::move(result));
    }
    return report;
}

crashsim::CrashSchedule
FleetSweep::minimize(crashsim::CrashSchedule failing, unsigned budget)
{
    if (runSchedule(failing).held())
        return failing;

    unsigned spent = 0;
    const auto try_accept =
        [&](crashsim::CrashSchedule candidate) -> bool {
        if (spent >= budget)
            return false;
        ++spent;
        if (runSchedule(candidate).held())
            return false;
        failing = candidate;
        return true;
    };

    // Shrink the fleet first (smaller repros dominate debuggability),
    // then the sabotage, then the workload and the timing.
    for (bool progress = true; progress && spent < budget;) {
        progress = false;
        if (failing.fleetNodes > 3) {
            auto candidate = failing;
            candidate.fleetNodes = 3;
            candidate.fleetKillMask &= (1ull << 3) - 1;
            progress |= try_accept(candidate);
        }
        if (failing.fleetReplication > 2) {
            auto candidate = failing;
            --candidate.fleetReplication;
            progress |= try_accept(candidate);
        }
        if (failing.trainCycles > 1) {
            auto candidate = failing;
            candidate.trainCycles = 1;
            progress |= try_accept(candidate);
        }
        if (failing.fleetKillMask == 0 ||
            __builtin_popcountll(failing.fleetKillMask) > 1) {
            // Try a single victim: the lowest node of the mask (or
            // node 0 when the mask meant "everyone").
            auto candidate = failing;
            candidate.fleetKillMask =
                failing.fleetKillMask == 0
                    ? 1ull
                    : failing.fleetKillMask & -failing.fleetKillMask;
            progress |= try_accept(candidate);
        }
        if (failing.fleetPolicy != 0) {
            auto candidate = failing;
            candidate.fleetPolicy = 0;
            progress |= try_accept(candidate);
        }
        if (failing.ops > 8) {
            auto candidate = failing;
            candidate.ops /= 2;
            progress |= try_accept(candidate);
        }
        if (failing.outage > fromSeconds(1.0)) {
            auto candidate = failing;
            candidate.outage = fromSeconds(1.0);
            progress |= try_accept(candidate);
        }
    }
    return failing;
}

} // namespace wsp::fleet
