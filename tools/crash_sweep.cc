/**
 * @file
 * Crash-point sweep driver.
 *
 * Enumerates every distinguishable power-failure instant of the
 * standard crash scenario, proves recovery at each one, optionally
 * fuzzes beyond the enumerable points and sweeps the pheap
 * disciplines. With --broken-marker the deliberately broken
 * marker-before-flush save order is used instead; the sweep is then
 * expected to catch it, minimize the failing schedule, and (with
 * --replay-out) write a replay file for tools/crash_replay.
 *
 * Exit codes: 0 = every invariant held, 3 = violations found,
 * 1 = bad usage or internal error.
 */

#include <cstdio>
#include <string>

#include "crashsim/crash_explorer.h"
#include "crashsim/pheap_crash.h"
#include "parse_uint.h"

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: crash_sweep [options]\n"
        "  --broken-marker     use the marker-before-flush save order\n"
        "  --fuzz=N            add N fuzzed random schedules\n"
        "  --points=N          cap enumerated crash points (default 160)\n"
        "  --pheap             also sweep the pheap disciplines\n"
        "  --pheap-txns=N      transactions per pheap sweep (default 6)\n"
        "  --replay-out=PATH   write the minimized failing schedule\n"
        "  --image-out=PATH    write the surviving NVRAM image of the\n"
        "                      first failing schedule (or of the base\n"
        "                      schedule when everything held); the\n"
        "                      file is decodable by tools/wsp_inspect\n"
        "  --no-black-box      disable the NVRAM flight recorder\n"
        "  --salvage           register KV salvage regions + recovery\n"
        "  --media-faults=N    inject N silent flash faults per run\n"
        "  --media-fault-seed=N  seed of the fault placement\n"
        "  --media-fault-kind=K  0=bit-flip 1=bad-block 2=torn-write\n"
        "  --degrade-tier=K    force degraded saves cut at tier K\n"
        "  --drop-save-cmds=N  drop the next N NVDIMM commands\n"
        "  --trust-directory   planted bug: skip restore-side CRCs\n"
        "  --train-cycles=N    outage-train cycles per run (default 1)\n"
        "  --no-incremental    force full saves (delta engine off)\n"
        "  --lazy-restore      lazy page-in restores on boot\n"
        "  --condition=NAME    correctness condition to enforce:\n"
        "                      all (default), durable-lin, buffered,\n"
        "                      detectable\n"
        "  --ack-delay-us=N    respond N microseconds after each op\n"
        "                      applies (must stay below op spacing)\n"
        "  --ack-before-apply  planted bug: acknowledge each op before\n"
        "                      its mutation runs (violates durable\n"
        "                      linearizability; buffered forgives it)\n"
        "  --ops=N             operations in the KV workload\n"
        "  --fail-delay-us=N   AC failure N microseconds into the run\n"
        "  --incremental-equivalence  also compare full-vs-delta flash\n"
        "                      images at every enumerated window\n"
        "  --seed=N            base RNG seed\n"
        "  --stop-on-first     stop the sweep at the first violation\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace wsp::crashsim;
    using wsp::tools::parseCount;
    using wsp::tools::parseUint;

    CrashSchedule base;
    unsigned fuzz_runs = 0;
    uint64_t max_points = 160;
    int pheap_txns = 6;
    bool sweep_pheap = false;
    bool stop_on_first = false;
    bool equivalence = false;
    std::string replay_out;
    std::string image_out;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--broken-marker") {
            base.saveOrder = wsp::SaveOrder::MarkerBeforeFlush;
        } else if (arg.rfind("--fuzz=", 0) == 0) {
            if (!parseCount(arg.c_str() + 7, &fuzz_runs)) {
                usage();
                return 1;
            }
        } else if (arg.rfind("--points=", 0) == 0) {
            if (!parseUint(arg.c_str() + 9, &max_points) ||
                max_points == 0) {
                usage();
                return 1;
            }
        } else if (arg == "--pheap") {
            sweep_pheap = true;
        } else if (arg.rfind("--pheap-txns=", 0) == 0) {
            if (!parseCount(arg.c_str() + 13, &pheap_txns)) {
                usage();
                return 1;
            }
        } else if (arg.rfind("--replay-out=", 0) == 0) {
            replay_out = arg.substr(13);
        } else if (arg.rfind("--image-out=", 0) == 0) {
            image_out = arg.substr(12);
        } else if (arg == "--no-black-box") {
            base.blackBox = false;
        } else if (arg == "--salvage") {
            base.salvage = true;
        } else if (arg.rfind("--media-faults=", 0) == 0) {
            if (!parseCount(arg.c_str() + 15, &base.mediaFaults)) {
                usage();
                return 1;
            }
        } else if (arg.rfind("--media-fault-seed=", 0) == 0) {
            if (!parseUint(arg.c_str() + 19, &base.mediaFaultSeed)) {
                usage();
                return 1;
            }
        } else if (arg.rfind("--media-fault-kind=", 0) == 0) {
            uint64_t kind = 0;
            if (!parseUint(arg.c_str() + 19, &kind) || kind > 2) {
                usage();
                return 1;
            }
            base.mediaFaultKind = static_cast<int>(kind);
        } else if (arg.rfind("--degrade-tier=", 0) == 0) {
            uint64_t tier = 0;
            if (!parseUint(arg.c_str() + 15, &tier) || tier > 1) {
                usage();
                return 1;
            }
            base.degradeTier = static_cast<int>(tier);
        } else if (arg.rfind("--drop-save-cmds=", 0) == 0) {
            if (!parseCount(arg.c_str() + 17, &base.dropSaveCommands)) {
                usage();
                return 1;
            }
        } else if (arg == "--trust-directory") {
            base.trustDirectory = true;
        } else if (arg.rfind("--train-cycles=", 0) == 0) {
            if (!parseCount(arg.c_str() + 15, &base.trainCycles) ||
                base.trainCycles == 0) {
                usage();
                return 1;
            }
        } else if (arg == "--no-incremental") {
            base.incrementalSave = false;
        } else if (arg == "--lazy-restore") {
            base.lazyRestore = true;
        } else if (arg.rfind("--condition=", 0) == 0) {
            const auto mode = conditionModeFromName(arg.substr(12));
            if (!mode) {
                usage();
                return 1;
            }
            base.condition = *mode;
        } else if (arg.rfind("--ack-delay-us=", 0) == 0) {
            uint64_t us = 0;
            if (!parseUint(arg.c_str() + 15, &us)) {
                usage();
                return 1;
            }
            base.ackDelay = wsp::fromMicros(static_cast<double>(us));
        } else if (arg == "--ack-before-apply") {
            base.ackBeforeApply = true;
        } else if (arg.rfind("--ops=", 0) == 0) {
            if (!parseCount(arg.c_str() + 6, &base.ops) || base.ops == 0) {
                usage();
                return 1;
            }
        } else if (arg.rfind("--fail-delay-us=", 0) == 0) {
            uint64_t us = 0;
            if (!parseUint(arg.c_str() + 16, &us)) {
                usage();
                return 1;
            }
            base.failDelay = wsp::fromMicros(static_cast<double>(us));
        } else if (arg == "--incremental-equivalence") {
            equivalence = true;
        } else if (arg.rfind("--seed=", 0) == 0) {
            if (!parseUint(arg.c_str() + 7, &base.seed)) {
                usage();
                return 1;
            }
        } else if (arg == "--stop-on-first") {
            stop_on_first = true;
        } else {
            usage();
            return 1;
        }
    }

    if (base.ackDelay >= base.opSpacing) {
        std::fprintf(stderr,
                     "--ack-delay-us must stay below the op spacing "
                     "(%.0f us)\n",
                     wsp::toMicros(base.opSpacing));
        return 1;
    }

    CrashExplorer explorer(base);
    bool violated = false;

    SweepReport sweep = explorer.sweepEnumerated(
        stop_on_first, static_cast<size_t>(max_points));
    std::printf("enumerated sweep: %zu points, %zu WSP recoveries, "
                "%zu fallbacks, %zu failing\n",
                sweep.points, sweep.wspRecoveries, sweep.fallbacks,
                sweep.failures.size());
    for (const CrashPointResult &failure : sweep.failures) {
        std::printf("  FAIL %s\n", failure.schedule.summary().c_str());
        for (const std::string &violation : failure.violations)
            std::printf("       %s\n", violation.c_str());
        if (!failure.timeline.empty()) {
            std::printf("       black-box timeline:\n");
            for (const std::string &line : failure.timeline)
                std::printf("         %s\n", line.c_str());
        }
    }
    violated |= !sweep.allHeld();

    if (fuzz_runs > 0 && !(violated && stop_on_first)) {
        SweepReport fuzzed = explorer.fuzz(fuzz_runs, base.seed ^ 0xf0f0ull);
        std::printf("fuzz: %zu runs, %zu WSP recoveries, %zu "
                    "fallbacks, %zu failing\n",
                    fuzzed.points, fuzzed.wspRecoveries,
                    fuzzed.fallbacks, fuzzed.failures.size());
        for (CrashPointResult &failure : fuzzed.failures) {
            std::printf("  FAIL %s\n",
                        failure.schedule.summary().c_str());
            if (!failure.timeline.empty()) {
                std::printf("       black-box timeline:\n");
                for (const std::string &line : failure.timeline)
                    std::printf("         %s\n", line.c_str());
            }
            sweep.failures.push_back(std::move(failure));
        }
        violated |= !fuzzed.allHeld();
    }

    if (equivalence && !(violated && stop_on_first)) {
        CrashExplorer::EquivalenceReport eq =
            explorer.incrementalEquivalenceSweep(
                static_cast<size_t>(max_points));
        std::printf("incremental equivalence: %zu windows, %zu with "
                    "both images complete, %zu mismatching\n",
                    eq.points, eq.bothComplete,
                    eq.mismatchWindows.size());
        for (wsp::Tick window : eq.mismatchWindows)
            std::printf("  FAIL full-vs-delta images differ at "
                        "window %.3f ms\n", wsp::toMillis(window));
        violated |= !eq.allEqual();
    }

    if (sweep_pheap && !(violated && stop_on_first)) {
        const std::string scratch = "/tmp";
        for (PheapDiscipline discipline : allPheapDisciplines()) {
            PheapSweepReport report = sweepPheapCrashPoints(
                discipline, base.seed, pheap_txns, scratch);
            std::printf("pheap %s: %zu crash points, %zu recoveries, "
                        "%zu violations\n",
                        pheapDisciplineName(discipline),
                        report.crashPoints, report.recoveries,
                        report.violations.size());
            for (const std::string &violation : report.violations)
                std::printf("  FAIL %s\n", violation.c_str());
            violated |= !report.allHeld();
        }
    }

    if (!image_out.empty()) {
        // Deterministic re-run of the most interesting schedule, with
        // the surviving image lifted out for offline forensics.
        CrashSchedule to_capture =
            sweep.failures.empty() ? base
                                   : sweep.failures.front().schedule;
        wsp::NvramImage image;
        CrashExplorer::runSchedule(to_capture, &image);
        if (!image.writeFile(image_out)) {
            std::fprintf(stderr, "cannot write image to '%s'\n",
                         image_out.c_str());
            return 1;
        }
        std::printf("nvram image: %s\n  %s\n", image_out.c_str(),
                    to_capture.summary().c_str());
    }

    if (!violated) {
        std::printf("all invariants held\n");
        return 0;
    }

    if (!sweep.failures.empty() && !replay_out.empty()) {
        std::printf("minimizing first failing schedule...\n");
        const CrashSchedule minimized =
            CrashExplorer::minimize(sweep.failures.front().schedule);
        if (!minimized.writeFile(replay_out))
            return 1;
        std::printf("replay file: %s\n  %s\n", replay_out.c_str(),
                    minimized.summary().c_str());
    }
    return 3;
}
