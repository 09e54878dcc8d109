/**
 * @file
 * Black-box flight-recorder overhead on the parallel save path.
 *
 * The recorder's bargain is one flushed cache line per recorded
 * event; this bench prices it. The same workload — dirty caches,
 * parallel flush-on-fail save, outage, restore — runs on a machine
 * with no recorder and on one with its NVRAM-backed recorder, and the
 * wall-clock cost of each is compared. Acceptance is the budget: the
 * recorder at the default ring size costs at most 5% over
 * recorder-off on the save path. Simulated save time must not move at
 * all — recording charges host time, never the residual-energy
 * window.
 *
 * The overhead lands in the --metrics-out snapshot as the gauge
 * bench.flight_recorder.overhead_pct.
 */

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/system.h"
#include "trace/flight_recorder.h"
#include "trace/stat_registry.h"

using namespace wsp;

namespace {

struct ModePoint
{
    bool recorder = false;     ///< the machine built a flight recorder
    double wallSeconds = 0.0;  ///< median host seconds per sample
    double simSaveMs = 0.0;    ///< simulated save duration (last cycle)
    uint64_t eventsEmitted = 0;
    bool completed = true;
};

/** One sample: @p cycles dirty-fill + crash + restore rounds. */
ModePoint
sample(bool recorder, unsigned cycles, uint64_t dirty_bytes,
       uint64_t seed)
{
    SystemConfig config;
    config.devices.clear();
    config.nvdimm.capacityBytes = 16 * kMiB;
    config.nvdimmCount = 2;
    config.seed = seed;
    config.wsp.parallelFlush = true;
    config.wsp.flightRecorder = recorder;
    WspSystem system(config);
    system.start();

    const trace::FlightRecorder *black_box = system.wsp().flightRecorder();
    const uint64_t emitted_before =
        black_box != nullptr ? black_box->totalEmitted() : 0;
    Rng rng(seed);
    ModePoint point;
    point.recorder = black_box != nullptr;

    bench::Stopwatch watch;
    for (unsigned cycle = 0; cycle < cycles; ++cycle) {
        system.machine().fillCachesDirty(dirty_bytes, rng);
        const auto outcome = system.powerFailAndRestore(
            fromMillis(1.0), fromSeconds(2.0));
        if (!outcome.save.has_value() || !outcome.save->completed) {
            point.completed = false;
            return point;
        }
        point.simSaveMs = toMillis(outcome.save->duration());
    }
    point.wallSeconds = watch.seconds();
    point.eventsEmitted =
        black_box != nullptr ? black_box->totalEmitted() - emitted_before
                             : 0;
    return point;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::init("flight_recorder_overhead", argc, argv);
    const uint64_t seed = bench::rngSeed(2026);
    const unsigned cycles = bench::fullRuns() ? 24 : 8;
    const uint64_t dirty_bytes = 4 * kMiB;
    // Wall-clock deltas in the few-percent range drown in host
    // jitter unless each mode is priced by its floor: interference
    // only ever adds time, so min-of-N isolates the work itself.
    const unsigned samples = std::max(5u, bench::repeat());

    const std::vector<bool> modes = {false, true};

    Table table("Flight-recorder overhead: " +
                std::to_string(cycles) + " save/restore cycles, "
                "parallel flush, default ring");
    table.setHeader({"mode", "wall (s)", "sim save (ms)", "events",
                     "overhead"});

    auto &stats = trace::StatRegistry::instance();
    // Interleave the modes round-robin so a load spike on the host
    // hits both alike instead of biasing whichever block it landed
    // in; each mode keeps its floor across the rounds.
    std::vector<ModePoint> points(modes.size());
    for (unsigned round = 0; round < samples; ++round) {
        for (size_t i = 0; i < modes.size(); ++i) {
            ModePoint point =
                sample(modes[i], cycles, dirty_bytes, seed);
            if (round == 0 ||
                point.wallSeconds < points[i].wallSeconds)
                points[i] = point;
        }
    }
    for (size_t i = 0; i < modes.size(); ++i) {
        const ModePoint &point = points[i];
        const char *mode = modes[i] ? "nvram" : "off";
        const double overhead_pct =
            points.front().wallSeconds > 0.0
                ? 100.0 * (point.wallSeconds -
                           points.front().wallSeconds) /
                      points.front().wallSeconds
                : 0.0;
        table.addRow({mode, formatDouble(point.wallSeconds, 4),
                      formatDouble(point.simSaveMs, 3),
                      std::to_string(point.eventsEmitted),
                      modes[i] ? formatDouble(overhead_pct, 2) + "%"
                               : "baseline"});
        const std::string prefix =
            std::string("bench.flight_recorder.") + mode;
        stats.gauge(prefix + "_wall_s").set(point.wallSeconds);
        stats.gauge(prefix + "_events")
            .set(static_cast<double>(point.eventsEmitted));
    }
    table.print();

    const ModePoint &off = points[0];
    const ModePoint &nvram = points[1];
    const double overhead_pct =
        off.wallSeconds > 0.0
            ? 100.0 * (nvram.wallSeconds - off.wallSeconds) /
                  off.wallSeconds
            : 0.0;
    stats.gauge("bench.flight_recorder.overhead_pct")
        .set(overhead_pct);
    std::printf("\nnvram-backed overhead vs off: %.2f%%\n",
                overhead_pct);

    ShapeCheck check("Flight-recorder overhead");
    for (const ModePoint &point : points)
        check.expectTrue("save completed", point.completed);
    check.expectTrue("recorder off builds no recorder",
                     !off.recorder && nvram.recorder);
    check.expectTrue("nvram mode records the lifecycle",
                     nvram.eventsEmitted > 0);
    // Recording costs host time only: the simulated save duration —
    // the residual-energy window the paper budgets — must not move.
    check.expectTrue("simulated save time unperturbed",
                     nvram.simSaveMs <= off.simSaveMs * 1.01 + 1e-9 &&
                         off.simSaveMs <= nvram.simSaveMs * 1.01 + 1e-9);
    // The issue's acceptance budget. The small absolute slack keeps
    // scheduler noise on a sub-second sample from flaking the gate.
    check.expectTrue(
        "nvram-backed overhead within 5%",
        nvram.wallSeconds <= off.wallSeconds * 1.05 + 0.010);
    return bench::finish(check);
}
