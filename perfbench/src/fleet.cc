/**
 * @file
 * fleet-storm: repeated correlated storms on a replicated fleet.
 *
 * 12 nodes, R = 3, WSP-local recovery, shaped like the fleet sweep's
 * schedule (FleetSweep::configFor). Set-up builds the fleet, serves 400
 * sampled client requests and rides out one warm-up storm. Each
 * measured cycle then serves client traffic, kills every node mid-save
 * (Fleet::runStorm, which interleaves traffic with recovery until every
 * victim is certified Up) and settles. After every cycle
 * noReplicaDivergence must come back empty: no acked write lost, every
 * Up replica in agreement. Work is storms per second and latency is
 * the host time of one cycle, both scaled by hostScale().
 */

#include <map>
#include <memory>

#include "bench.h"
#include "fleet/fleet.h"
#include "fleet/fleet_sweep.h"
#include "spans.h"
#include "trace/stat_registry.h"

namespace perfbench {

namespace {

using wsp::fleet::Fleet;
using wsp::fleet::FleetSweep;
using wsp::fleet::StormOutcome;

constexpr unsigned kNodes = 12;
constexpr unsigned kReplication = 3;
constexpr unsigned kPreTraffic = 400;
constexpr unsigned kCycleTraffic = kPreTraffic / 4 + 1;
constexpr double kPutFraction = 0.6;
constexpr int kSetups = 5;
constexpr size_t kCyclesPerSlice = 4;

/** What the storm cycles saw. */
struct Cycles
{
    uint64_t storms = 0;
    uint64_t diverged = 0;
    double cycleS = 0.0;
    double scaledS = 0.0;        ///< cycle time scaled by hostScale()
    std::vector<double> cycleUs; ///< scaled per-cycle times
    std::vector<StormOutcome> outcomes;
};

/**
 * Whole storm cycles until @p budget seconds have passed. With
 * @p normalize, every kCyclesPerSlice cycles are followed by
 * hostScale() and their times scaled by it.
 */
void
stormCycles(Fleet &fleet, const wsp::crashsim::CrashSchedule &schedule,
            double budget, bool normalize, Cycles *cycles)
{
    std::vector<double> slice;
    const auto closeSlice = [&]() {
        const double scale = normalize ? hostScale() : 1.0;
        for (double us : slice) {
            cycles->cycleUs.push_back(us * scale);
            cycles->scaledS += us * scale * 1e-6;
        }
        slice.clear();
    };
    const double until = nowSeconds() + budget;
    do {
        const int64_t start = nowNs();
        {
            Span span("fleet.Fleet::runTraffic");
            fleet.runTraffic(kCycleTraffic, kPutFraction);
        }
        {
            Span span("fleet.Fleet::runStorm");
            cycles->outcomes.push_back(fleet.runStorm(
                schedule.fleetKillMask, schedule.outage, schedule.window,
                kPutFraction));
        }
        {
            Span span("fleet.Fleet::settle");
            fleet.settle();
        }
        const double us = static_cast<double>(nowNs() - start) * 1e-3;
        slice.push_back(us);
        cycles->cycleS += us * 1e-6;
        ++cycles->storms;

        Span span("fleet.noReplicaDivergence");
        const std::vector<std::string> violations =
            wsp::fleet::noReplicaDivergence(fleet);
        if (!violations.empty()) {
            ++cycles->diverged;
            std::fprintf(stderr, "storm %llu diverged:\n",
                         static_cast<unsigned long long>(cycles->storms));
            for (const std::string &violation : violations)
                std::fprintf(stderr, "  %s\n", violation.c_str());
        }
        if (slice.size() == kCyclesPerSlice)
            closeSlice();
    } while (nowSeconds() < until);
    if (!slice.empty())
        closeSlice();
}

template <typename Field>
double
medianOf(const std::vector<StormOutcome> &outcomes, Field field)
{
    std::vector<double> values;
    for (const StormOutcome &outcome : outcomes)
        values.push_back(field(outcome));
    return median(values);
}

} // namespace

Result
runFleetStorm(const Options &options)
{
    wsp::crashsim::CrashSchedule schedule = FleetSweep::defaultSchedule();
    schedule.fleetNodes = kNodes;
    schedule.fleetReplication = kReplication;
    schedule.fleetKillMask = 0; // every node
    schedule.fleetPolicy = 0;   // WSP-local
    schedule.ops = kPreTraffic;
    schedule.seed = mixSeed(options.seed, 4);
    const wsp::fleet::FleetConfig config = FleetSweep::configFor(schedule);

    Result result;
    std::vector<double> setups;
    std::unique_ptr<Fleet> fleet;
    for (int i = 0; i < kSetups; ++i) {
        fleet.reset();
        const double start = nowSeconds();
        fleet = std::make_unique<Fleet>(config);
        fleet->runTraffic(kPreTraffic, kPutFraction);
        fleet->runStorm(schedule.fleetKillMask, schedule.outage,
                        schedule.window, kPutFraction);
        fleet->settle();
        setups.push_back((nowSeconds() - start) * hostScale());
    }
    if (!wsp::fleet::noReplicaDivergence(*fleet).empty())
        result.fail("warm-up storm diverged");

    Tracer &tracer = Tracer::instance();
    Cycles plain;
    stormCycles(*fleet, schedule,
                options.trace ? options.seconds * 0.5 : options.seconds,
                !options.trace, &plain);
    const double peakRss = peakRssMiB();
    result.attempted = plain.storms;
    result.failed = plain.diverged;

    if (!options.trace) {
        if (result.failed > 0)
            result.fail("storms diverged");
        std::printf("fleet-storm: %u nodes, R=%u, %llu storms in %.2f s\n",
                    kNodes, kReplication,
                    static_cast<unsigned long long>(plain.storms),
                    plain.cycleS);
        result.add("work_per_s",
                   static_cast<double>(plain.storms) / plain.scaledS, "1/s");
        result.add("p50_us", quantile(plain.cycleUs, 0.5), "us");
        result.add("setup_s", median(setups), "s");
        result.add("peak_rss_mib", peakRss, "MiB");
        return result;
    }

    // Recovery and repair counts come from the stat registry: a
    // StormOutcome's counters are deltas against the previous storm's
    // totals, which read 0 when back-to-back storms recover alike.
    auto &stats = wsp::trace::StatRegistry::instance();
    const char *const kCounters[] = {
        "fleet.repairs_certified", "fleet.repair_streamed_bytes",
        "fleet.wsp_recoveries", "fleet.salvage_boots",
        "fleet.backend_refills"};
    std::map<std::string, uint64_t> countersBefore;
    for (const char *name : kCounters)
        countersBefore[name] = stats.counter(name).value();
    const wsp::fleet::RequestStats before = fleet->stats();
    Cycles traced;
    tracer.setEnabled(true);
    {
        Span root("fleet-storm");
        stormCycles(*fleet, schedule, options.seconds * 0.5, false, &traced);
    }
    tracer.setEnabled(false);
    const wsp::fleet::RequestStats &after = fleet->stats();
    result.attempted += traced.storms;
    result.failed += traced.diverged;
    if (result.failed > 0)
        result.fail("storms diverged");

    tracer.printTable(stdout, "fleet-storm", "fleet-storm");
    const double storms = static_cast<double>(traced.storms);
    const double requests =
        static_cast<double>(after.requests - before.requests);
    result.add("fleet.traffic_ms",
               tracer.totalMs("fleet.Fleet::runTraffic") / storms, "ms");
    result.add("fleet.storm_ms",
               tracer.totalMs("fleet.Fleet::runStorm") / storms, "ms");
    result.add("fleet.settle_ms",
               tracer.totalMs("fleet.Fleet::settle") / storms, "ms");
    result.add("fleet.retries_per_kreq",
               static_cast<double>(after.retries - before.retries) * 1e3 /
                   requests,
               "1/kreq");
    result.add("fleet.timeouts_per_kreq",
               static_cast<double>(after.timeouts - before.timeouts) * 1e3 /
                   requests,
               "1/kreq");
    result.add("fleet.reject_frac",
               static_cast<double>(after.failed - before.failed) / requests,
               "frac");
    const auto counterPerStorm = [&](const char *name) {
        return static_cast<double>(stats.counter(name).value() -
                                   countersBefore.at(name)) /
               storms;
    };
    result.add("fleet.repairs_per_storm",
               counterPerStorm("fleet.repairs_certified"), "count");
    result.add("fleet.repair_kib_per_storm",
               counterPerStorm("fleet.repair_streamed_bytes") / 1024.0, "KiB");
    result.add("fleet.wsp_recoveries",
               counterPerStorm("fleet.wsp_recoveries"), "count");
    result.add("fleet.salvage_boots", counterPerStorm("fleet.salvage_boots"),
               "count");
    result.add("fleet.backend_refills",
               counterPerStorm("fleet.backend_refills"), "count");
    result.add("fleet.power_restored_s",
               medianOf(traced.outcomes,
                        [](const StormOutcome &o) {
                            return wsp::toSeconds(o.powerRestored - o.start);
                        }),
               "s");
    result.add("fleet.catchup_s",
               medianOf(traced.outcomes,
                        [](const StormOutcome &o) {
                            return wsp::toSeconds(o.timeToFullCapacity);
                        }),
               "s");
    result.add("fleet.ttfc_sim_s",
               medianOf(traced.outcomes,
                        [](const StormOutcome &o) {
                            return wsp::toSeconds(o.fullCapacityAt - o.start);
                        }),
               "s");
    result.add("tail.p99_us", quantile(traced.cycleUs, 0.99), "us");
    result.add("trace.overhead_frac",
               (traced.cycleS / storms) /
                       (plain.cycleS / static_cast<double>(plain.storms)) -
                   1.0,
               "frac");
    result.add("trace.coverage_frac", tracer.coverage("fleet-storm"),
               "frac");
    return result;
}

} // namespace perfbench
