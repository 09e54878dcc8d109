/**
 * @file
 * Figure 8: context save and cache flush times vs dirty bytes.
 *
 * Paper: on four platforms (Intel C5528 2x8MB L3, Intel X5650 12MB
 * L3, AMD 4180 6MB L3, Intel D510 1MB L2) the total state save time —
 * processor contexts plus wbinvd — stays under 5 ms, under 3 ms on
 * the two testbeds, and shows little dependence on the number of
 * dirty cache lines (an artifact of wbinvd walking the whole cache).
 * Dirty bytes sweep 128 B to 16 MB; 32 runs per point.
 */

#include <cmath>
#include <vector>

#include "bench/bench_util.h"
#include "core/save_routine.h"
#include "core/system.h"

using namespace wsp;

namespace {

/** Save time with @p dirty_bytes dirtied across the machine, in ms. */
double
measure(const PlatformSpec &spec, uint64_t dirty_bytes, uint64_t seed)
{
    SystemConfig config;
    config.platform = spec;
    config.devices.clear();
    config.nvdimm.capacityBytes = 64 * kMiB;
    config.nvdimmCount = 2;
    config.seed = seed;
    WspSystem system(config);
    system.start();

    // Spread the dirty bytes across the socket caches, clamping to
    // what each cache can hold.
    Rng rng(seed);
    const uint64_t per_socket =
        std::min(dirty_bytes / spec.sockets, spec.cachePerSocket);
    if (per_socket > 0)
        system.machine().fillCachesDirty(per_socket, rng);

    auto outcome = system.powerFailAndRestore(fromMillis(1.0),
                                              fromSeconds(30.0));
    if (!outcome.save.has_value())
        return -1.0;
    return toMillis(outcome.save->duration());
}

} // namespace

int
main(int argc, char **argv)
{
    bench::init("fig8_save_time", argc, argv);
    const std::vector<uint64_t> dirty_sizes = {
        128,       512,        2 * kKiB,  8 * kKiB, 32 * kKiB,
        128 * kKiB, 512 * kKiB, 2 * kMiB, 4 * kMiB, 8 * kMiB,
        16 * kMiB};
    const int runs = bench::fullRuns() ? 32 : 8;

    const auto platforms = allPlatforms();
    std::vector<Series> series;
    std::vector<Histogram> dists;
    Table table("Figure 8 data: state save time (ms) vs dirty bytes");
    std::vector<std::string> header = {"dirty bytes"};
    for (const auto &spec : platforms) {
        header.push_back(spec.name);
        series.push_back(Series{spec.name, {}, {}});
        dists.emplace_back();
    }
    table.setHeader(header);

    const uint64_t base_seed = bench::rngSeed(1000);
    for (uint64_t bytes : dirty_sizes) {
        std::vector<std::string> row = {formatBytes(bytes)};
        for (size_t p = 0; p < platforms.size(); ++p) {
            RunningStat stat;
            for (int run = 0; run < runs; ++run) {
                const double ms =
                    measure(platforms[p], bytes,
                            base_seed + static_cast<uint64_t>(run));
                stat.add(ms);
                dists[p].add(fromMillis(ms));
            }
            series[p].add(std::log2(static_cast<double>(bytes)),
                          stat.mean());
            row.push_back(formatDouble(stat.mean(), 3));
        }
        table.addRow(row);
    }
    table.print();
    std::printf("\n");

    // Save-time distribution across every dirty size and run: the
    // tail matters, since one slow save can blow the residual window.
    for (size_t p = 0; p < platforms.size(); ++p) {
        std::printf("%-18s save time p50 %.3f ms  p95 %.3f ms  "
                    "p99 %.3f ms\n",
                    platforms[p].name.c_str(),
                    dists[p].percentile(50) * 1e-6,
                    dists[p].percentile(95) * 1e-6,
                    dists[p].percentile(99) * 1e-6);
    }
    std::printf("\n");

    AsciiChart chart("Figure 8. Context save and cache flush times",
                     "log2(dirty bytes)", "state save time (ms)");
    for (const Series &s : series)
        chart.addSeries(s);
    chart.print();

    ShapeCheck check("Figure 8 (state save time)");
    for (size_t p = 0; p < platforms.size(); ++p) {
        const double lo = series[p].minY();
        const double hi = series[p].maxY();
        check.expectBetween(platforms[p].name + ": save under 5 ms", hi,
                            0.0, 5.0);
        check.expectTrue(platforms[p].name +
                             ": little dependence on dirty bytes "
                             "(max/min < 1.2)",
                         hi / lo < 1.2);
    }
    // Testbed claim: both under 3 ms.
    check.expectBetween("Intel C5528 testbed under 3 ms",
                        series[0].maxY(), 0.0, 3.0);
    check.expectBetween("AMD 4180 testbed under 3 ms", series[2].maxY(),
                        0.0, 3.0);
    // Ordering by cache size: X5650 (12MB) slowest, D510 (1MB) fastest.
    check.expectGreater("X5650 slowest (largest cache)",
                        series[1].maxY(), series[0].maxY());
    check.expectGreater("D510 fastest (smallest cache)",
                        series[2].minY(), series[3].maxY());
    return bench::finish(check);
}
