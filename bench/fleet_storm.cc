/**
 * @file
 * Fleet recovery storm: client tail latency and time-to-full-capacity
 * for WSP-local recovery vs backend refill vs the degraded read-only
 * tier (paper sections 1-2 motivation plus the section 6 replica
 * tradeoff, at fleet scale).
 *
 * A replicated serving fleet (rendezvous placement, quorum writes,
 * 256 GiB modelled state per node) takes a correlated outage that
 * kills every node mid-save. Each recovery policy then brings the
 * fleet back while sampled client traffic keeps hammering it:
 *
 *  - wsp-local: every node restores its own NVDIMMs in parallel and
 *    anti-entropy streams only the missed updates,
 *  - backend-refill: every node discards NVRAM and refills its full
 *    state over the shared back end (the storm regime — bandwidth
 *    divides across victims),
 *  - degraded-tier: WSP restore, but nodes serve stale reads from a
 *    read-only tier while repair certifies them.
 *
 * Gates: WSP-local must reach full capacity at least 5x faster than
 * the refill storm, no acknowledged write may be client-visibly lost
 * under any policy, and the degraded tier must actually serve reads
 * during the storm.
 */

#include "bench/bench_util.h"
#include "fleet/fleet.h"
#include "fleet/fleet_sweep.h"

using namespace wsp;
using namespace wsp::fleet;

namespace {

struct PolicyOutcome
{
    StormOutcome storm;
    RequestStats stats;
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
    size_t violations = 0;
};

PolicyOutcome
runPolicy(RecoveryPolicy policy, unsigned nodes, unsigned replication,
          uint64_t seed, unsigned pre_traffic)
{
    FleetConfig config;
    config.nodes = nodes;
    config.replication = replication;
    config.seed = seed;
    config.policy = policy;
    config.keyUniverse = 512;
    // The paper's serving tier: 256 GiB of modelled state per node on
    // a shared 2 GB/s back end.
    config.memoryPerServer = 256ull * kGiB;
    config.trafficSpacing = fromMillis(50.0);

    Fleet fleet(config);
    fleet.runTraffic(pre_traffic, 0.6);

    PolicyOutcome outcome;
    outcome.storm =
        fleet.runStorm(/*mask=*/0, fromSeconds(2.0), fleet.config().killWindow,
                       0.5);
    fleet.runTraffic(pre_traffic / 4 + 1, 0.5);
    fleet.settle();

    outcome.stats = fleet.stats();
    const Histogram latency = fleet.fleetLatency(); // ns
    outcome.p50 = latency.percentile(50) * 1e-6;
    outcome.p95 = latency.percentile(95) * 1e-6;
    outcome.p99 = latency.percentile(99) * 1e-6;
    outcome.violations = noReplicaDivergence(fleet).size();
    return outcome;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::init("fleet_storm", argc, argv);
    const bool full = bench::fullRuns();
    const unsigned nodes = full ? 12 : 6;
    const unsigned replication = 3;
    const unsigned pre_traffic = full ? 400 : 150;
    const uint64_t seed = bench::rngSeed(0x53544f524dull); // "STORM"

    Table table("Fleet storm: " + std::to_string(nodes) + " nodes, R=" +
                std::to_string(replication) +
                ", 256 GiB/node, correlated kill of every node");
    table.setHeader({"policy", "time to full capacity", "p50 (ms)",
                     "p99 (ms)", "degraded reads", "acked lost"});

    PolicyOutcome results[3];
    const RecoveryPolicy policies[3] = {RecoveryPolicy::WspLocal,
                                        RecoveryPolicy::BackendRefill,
                                        RecoveryPolicy::DegradedTier};
    for (int i = 0; i < 3; ++i) {
        results[i] = runPolicy(policies[i], nodes, replication, seed,
                               pre_traffic);
        table.addRow(
            {recoveryPolicyName(policies[i]),
             formatTime(results[i].storm.timeToFullCapacity),
             formatDouble(results[i].p50, 3),
             formatDouble(results[i].p99, 3),
             std::to_string(results[i].stats.degradedReads),
             std::to_string(results[i].violations)});
    }
    table.print();

    const PolicyOutcome &wsp_local = results[0];
    const PolicyOutcome &refill = results[1];
    const PolicyOutcome &degraded = results[2];
    const double wsp_s = toSeconds(wsp_local.storm.timeToFullCapacity);
    const double refill_s = toSeconds(refill.storm.timeToFullCapacity);
    std::printf("WSP-local reaches full capacity %.1fx faster than the "
                "backend-refill storm\n\n",
                wsp_s > 0 ? refill_s / wsp_s : 0.0);

    ShapeCheck check("Fleet recovery storm");
    check.expectGreater("WSP-local >= 5x faster to full capacity",
                        wsp_s > 0 ? refill_s / wsp_s : 0.0, 5.0);
    check.expectBetween("no acked write lost under wsp-local",
                        static_cast<double>(wsp_local.violations), 0.0,
                        0.0);
    check.expectBetween("no acked write lost under backend-refill",
                        static_cast<double>(refill.violations), 0.0, 0.0);
    check.expectBetween("no acked write lost under degraded-tier",
                        static_cast<double>(degraded.violations), 0.0,
                        0.0);
    check.expectGreater("every victim recovered via WSP restore",
                        static_cast<double>(
                            wsp_local.storm.wspRecoveries +
                            wsp_local.storm.salvageBoots) +
                            0.5,
                        static_cast<double>(nodes));
    check.expectGreater("degraded tier served reads during the storm",
                        static_cast<double>(
                            degraded.stats.degradedReads) +
                            0.5,
                        0.5);
    check.expectGreater("clients saw tail latency during the storm",
                        results[0].p99 + results[1].p99, 0.0);
    return bench::finish(check);
}
