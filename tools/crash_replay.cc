/**
 * @file
 * Re-execute a crash schedule written by tools/crash_sweep,
 * tools/fleet_sweep or CrashSchedule::writeFile. A schedule with
 * fleet_nodes > 0 runs the replicated fleet's outage train and is
 * judged by NoReplicaDivergence; any other runs one machine against
 * the crash invariants. Both runs are bit-for-bit deterministic, so a
 * minimized failing schedule reproduces its violation exactly.
 *
 * Exit codes: 0 = invariants held, 2 = violation reproduced,
 * 1 = unreadable/malformed schedule file.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "crashsim/crash_explorer.h"
#include "fleet/fleet_sweep.h"

namespace {

using wsp::crashsim::CrashSchedule;

/** Run a fleet schedule's outage train; print the storm. */
std::vector<std::string>
replayFleet(const CrashSchedule &schedule)
{
    const wsp::fleet::FleetCrashResult result =
        wsp::fleet::FleetSweep::runSchedule(schedule);
    const wsp::fleet::StormOutcome &storm = result.storm;
    std::printf("storm: victims=%u wsp=%u salvage=%u refill=%u "
                "shardsRepaired=%u ackedWrites=%llu rejectedWrites=%llu\n",
                storm.victims, storm.wspRecoveries, storm.salvageBoots,
                storm.backendRefills, storm.shardsRepaired,
                static_cast<unsigned long long>(result.stats.ackedWrites),
                static_cast<unsigned long long>(
                    result.stats.rejectedWrites));
    return result.violations;
}

/** Run a single-machine schedule; print the restore. */
std::vector<std::string>
replayMachine(const CrashSchedule &schedule)
{
    const wsp::crashsim::CrashPointResult result =
        wsp::crashsim::CrashExplorer::runSchedule(schedule);
    std::printf("restore: usedWsp=%d flashValid=%d markerValid=%d "
                "checksumOk=%d backend=%d appliedOps=%llu\n",
                result.restore.usedWsp ? 1 : 0,
                result.restore.flashValid ? 1 : 0,
                result.restore.markerValid ? 1 : 0,
                result.restore.checksumOk ? 1 : 0,
                result.backendRan ? 1 : 0,
                static_cast<unsigned long long>(result.appliedOps));
    return result.violations;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: crash_replay <schedule-file>\n");
        return 1;
    }

    const auto schedule = CrashSchedule::readFile(argv[1]);
    if (!schedule) {
        std::fprintf(stderr,
                     "crash_replay: cannot parse schedule '%s'\n",
                     argv[1]);
        return 1;
    }

    std::printf("replaying: %s\n", schedule->summary().c_str());
    const bool fleet = schedule->fleetNodes > 0;
    const std::vector<std::string> violations =
        fleet ? replayFleet(*schedule) : replayMachine(*schedule);
    if (violations.empty()) {
        std::printf("%s\n", fleet ? "NoReplicaDivergence held"
                                  : "all invariants held");
        return 0;
    }
    for (const std::string &violation : violations)
        std::printf("VIOLATION: %s\n", violation.c_str());
    return 2;
}
