/**
 * @file
 * Fleet crash-sweep driver.
 *
 * Sweeps the replicated fleet through correlated outage-train storms:
 * every enumerated kill instant of the node save pipeline (and
 * optionally fuzzed random schedules — masks, policies, fleet sizes)
 * must leave the fleet convergent under the NoReplicaDivergence
 * checker, with no acknowledged write lost. A failing schedule is
 * minimized and written as a replay file (the fleet fields serialize
 * through the standard crash-schedule format) that tools/crash_replay
 * re-runs through the fleet.
 *
 * Exit codes: 0 = every run held, 3 = violations found, 1 = bad
 * usage or internal error.
 */

#include <cstdio>
#include <string>

#include "fleet/fleet_sweep.h"
#include "parse_uint.h"

using namespace wsp;
using namespace wsp::fleet;
using wsp::tools::parseCount;
using wsp::tools::parseUint;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: fleet_sweep [options]\n"
        "  --nodes=N          fleet size, 1..64 (default 3)\n"
        "  --replication=R    replica factor (default 3)\n"
        "  --kill-mask=M      victim subset bitmask (0 = every node)\n"
        "  --policy=P         0 wsp-local, 1 backend-refill,\n"
        "                     2 degraded-tier (default 0)\n"
        "  --points=N         cap enumerated kill instants (default 24)\n"
        "  --fuzz=N           add N fuzzed random fleet schedules\n"
        "  --train-cycles=N   storms per run (default 1)\n"
        "  --ops=N            pre-storm client writes (default 48)\n"
        "  --seed=N           base seed\n"
        "  --replay-out=PATH  write the minimized failing schedule\n");
}

void
printFailure(const FleetCrashResult &failure)
{
    std::printf("FAIL %s\n", failure.schedule.summary().c_str());
    for (const std::string &violation : failure.violations)
        std::printf("  %s\n", violation.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    crashsim::CrashSchedule base = FleetSweep::defaultSchedule();
    unsigned points = 24;
    unsigned fuzz_runs = 0;
    std::string replay_out;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        // A value that does not fit its field prints usage rather
        // than running (and replay-filing) a different sweep.
        bool ok = true;
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg.rfind("--nodes=", 0) == 0) {
            // 0 would write a single-machine replay file; a fleet
            // holds at most 64 nodes (kill masks are 64-bit).
            ok = parseCount(arg.c_str() + 8, &base.fleetNodes) &&
                 base.fleetNodes >= 1 && base.fleetNodes <= 64;
        } else if (arg.rfind("--replication=", 0) == 0) {
            ok = parseCount(arg.c_str() + 14, &base.fleetReplication) &&
                 base.fleetReplication >= 1;
        } else if (arg.rfind("--kill-mask=", 0) == 0) {
            ok = parseUint(arg.c_str() + 12, &base.fleetKillMask);
        } else if (arg.rfind("--policy=", 0) == 0) {
            uint64_t policy = 0;
            ok = parseUint(arg.c_str() + 9, &policy) && policy <= 2;
            base.fleetPolicy = static_cast<int>(policy);
        } else if (arg.rfind("--points=", 0) == 0) {
            ok = parseCount(arg.c_str() + 9, &points) && points >= 1;
        } else if (arg.rfind("--fuzz=", 0) == 0) {
            ok = parseCount(arg.c_str() + 7, &fuzz_runs);
        } else if (arg.rfind("--train-cycles=", 0) == 0) {
            ok = parseCount(arg.c_str() + 15, &base.trainCycles) &&
                 base.trainCycles >= 1;
        } else if (arg.rfind("--ops=", 0) == 0) {
            ok = parseCount(arg.c_str() + 6, &base.ops);
        } else if (arg.rfind("--seed=", 0) == 0) {
            ok = parseUint(arg.c_str() + 7, &base.seed);
        } else if (arg.rfind("--replay-out=", 0) == 0) {
            replay_out = arg.substr(13);
        } else {
            ok = false;
        }
        if (!ok) {
            usage();
            return 1;
        }
    }

    FleetSweep sweep(base);
    std::printf("fleet sweep: %s\n", base.summary().c_str());

    FleetSweepReport report = sweep.sweepEnumerated(false, points);
    std::printf("enumerated: %zu kill instants, %zu wsp / %zu salvage "
                "/ %zu refill recoveries, %zu failures\n",
                report.points, report.wspRecoveries,
                report.salvageBoots, report.backendRefills,
                report.failures.size());

    if (fuzz_runs > 0) {
        FleetSweepReport fuzzed = sweep.fuzz(fuzz_runs, base.seed);
        std::printf("fuzz: %zu schedules, %zu failures\n",
                    fuzzed.points, fuzzed.failures.size());
        for (auto &failure : fuzzed.failures)
            report.failures.push_back(std::move(failure));
    }

    if (report.failures.empty()) {
        std::printf("NoReplicaDivergence held at every point\n");
        return 0;
    }

    for (const FleetCrashResult &failure : report.failures)
        printFailure(failure);

    const crashsim::CrashSchedule minimized =
        FleetSweep::minimize(report.failures.front().schedule);
    std::printf("minimized: %s\n", minimized.summary().c_str());
    if (!replay_out.empty()) {
        if (!minimized.writeFile(replay_out))
            return 1;
        std::printf("replay file written to %s\n", replay_out.c_str());
    }
    return 3;
}
