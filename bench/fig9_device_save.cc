/**
 * @file
 * Figure 9: device state save time (the ACPI strawman).
 *
 * Paper: putting all devices into D3 on the save path takes ~5.3-6.6
 * seconds on both testbeds (means of 5 runs), busy or idle, dominated
 * by the GPU, the disk, and the NIC — far beyond any residual energy
 * window, which is why device state must be recovered on the restore
 * path instead.
 */

#include "bench/bench_util.h"
#include "devices/device_manager.h"
#include "power/load_model.h"
#include "util/stats.h"

using namespace wsp;

namespace {

/** One suspend-all measurement, in seconds. */
double
measure(const std::vector<DeviceConfig> &set, bool busy, uint64_t seed)
{
    EventQueue queue;
    DeviceManager manager(queue);
    Rng rng(seed);
    for (const DeviceConfig &config : set)
        manager.addDevice(config, rng.fork(config.name.size()));
    if (busy) {
        manager.startBusyAll();
        queue.runUntil(fromMillis(50.0));
    }
    Tick total = 0;
    manager.suspendAll([&](Tick t) { total = t; });
    queue.run();
    return toSeconds(total);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::init("fig9_device_save", argc, argv);
    struct Config
    {
        const char *testbed;
        std::vector<DeviceConfig> set;
        LoadClass load;
        double paperSeconds;
    };
    const std::vector<Config> configs = {
        {"AMD", deviceSetAmd(), LoadClass::Busy, 5.6},
        {"AMD", deviceSetAmd(), LoadClass::Idle, 5.3},
        {"Intel", deviceSetIntel(), LoadClass::Busy, 6.6},
        {"Intel", deviceSetIntel(), LoadClass::Idle, 6.3},
    };

    Table table("Figure 9. Device state save time (means of 5 runs)");
    table.setHeader({"testbed", "load", "save time", "(stddev)",
                     "paper approx."});

    ShapeCheck check("Figure 9 (device state save time)");
    double amd_busy = 0.0;
    double amd_idle = 0.0;
    double intel_busy = 0.0;
    double intel_idle = 0.0;
    Histogram dist; // all suspend-all samples, ns
    for (const Config &config : configs) {
        RunningStat stat;
        for (uint64_t run = 0; run < 5; ++run) {
            const double s = measure(config.set,
                                     config.load == LoadClass::Busy,
                                     run * 13 + 7);
            stat.add(s);
            dist.add(fromSeconds(s));
        }
        table.addRow({config.testbed, loadClassName(config.load),
                      formatDouble(stat.mean(), 2) + " s",
                      formatDouble(stat.stddev(), 3),
                      formatDouble(config.paperSeconds, 1) + " s"});
        check.expectBetween(
            std::string(config.testbed) + " " +
                loadClassName(config.load) + " in the 4.5-7 s band",
            stat.mean(), 4.5, 7.0);
        if (config.load == LoadClass::Busy) {
            (config.testbed[0] == 'A' ? amd_busy : intel_busy) =
                stat.mean();
        } else {
            (config.testbed[0] == 'A' ? amd_idle : intel_idle) =
                stat.mean();
        }
    }
    table.print();

    std::printf("\nsuspend-all distribution: p50 %.2f s  p95 %.2f s  "
                "p99 %.2f s\n",
                dist.percentile(50) * 1e-9, dist.percentile(95) * 1e-9,
                dist.percentile(99) * 1e-9);
    std::printf("\nEven idle saves take seconds: per-driver D3 "
                "timeouts dominate, not queue drain.\n");
    check.expectGreater("Intel slower than AMD (GPU/disk/NIC heavier)",
                        intel_idle, amd_idle);
    check.expectGreater("busy >= idle (AMD)", amd_busy, amd_idle - 0.05);
    check.expectGreater("busy >= idle (Intel)", intel_busy,
                        intel_idle - 0.05);
    check.expectGreater("device save dwarfs the largest residual "
                        "window (~0.4 s)",
                        amd_idle, 10 * 0.4);
    return bench::finish(check);
}
