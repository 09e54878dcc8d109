/**
 * @file
 * Fleet battery: rendezvous-placement properties, the node lifecycle
 * FSM with real mid-save kills, quorum reads/writes with retry and
 * backoff, anti-entropy repair, the degraded read-only tier, the
 * analytic-vs-simulated differential, and the NoReplicaDivergence
 * sweep over enumerated outage-train crash points.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "apps/cluster.h"
#include "fleet/fleet.h"
#include "fleet/fleet_sweep.h"
#include "fleet/rendezvous.h"
#include "test_seed.h"

using namespace wsp;
using namespace wsp::fleet;
using wsp::testing::testSeed;

// Rendezvous placement ------------------------------------------------

TEST(Rendezvous, ReplicaSetBasics)
{
    RendezvousHash ring;
    for (uint32_t id = 0; id < 8; ++id)
        ring.addNode(id);
    ring.addNode(3); // idempotent
    EXPECT_EQ(ring.nodes().size(), 8u);

    const auto set = ring.replicaSet(42, 3);
    ASSERT_EQ(set.size(), 3u);
    EXPECT_EQ(std::set<uint32_t>(set.begin(), set.end()).size(), 3u);
    EXPECT_EQ(ring.primary(42), set[0]);
    // Deterministic across instances.
    RendezvousHash other;
    for (uint32_t id = 0; id < 8; ++id)
        other.addNode(id);
    EXPECT_EQ(other.replicaSet(42, 3), set);
    // Asking for more replicas than nodes returns them all.
    EXPECT_EQ(ring.replicaSet(7, 100).size(), 8u);
}

TEST(Rendezvous, ScoresSpreadPrimariesEvenly)
{
    RendezvousHash ring;
    const unsigned nodes = 8;
    for (uint32_t id = 0; id < nodes; ++id)
        ring.addNode(id);
    std::vector<unsigned> owned(nodes, 0);
    const unsigned keys = 4000;
    for (uint64_t key = 1; key <= keys; ++key)
        ++owned[ring.primary(key)];
    for (unsigned count : owned) {
        EXPECT_GT(count, keys / nodes / 2);
        EXPECT_LT(count, keys / nodes * 2);
    }
}

// Satellite 2: on join/leave only ~K/N keys move and replica sets are
// minimally disrupted. 10 seeds, re-seedable via WSP_TEST_SEED.
TEST(Rendezvous, MinimalDisruptionOnLeaveAndJoin)
{
    for (unsigned round = 0; round < 10; ++round) {
        const uint64_t seed = testSeed(0xd15201 + round);
        Rng rng(seed);
        const unsigned nodes = 6 + static_cast<unsigned>(rng.next(6));
        const unsigned r = 2 + static_cast<unsigned>(rng.next(2));
        const unsigned keys = 2000;
        const uint32_t victim =
            static_cast<uint32_t>(rng.next(nodes));

        RendezvousHash ring;
        for (uint32_t id = 0; id < nodes; ++id)
            ring.addNode(id);

        std::vector<std::vector<uint32_t>> before;
        before.reserve(keys);
        for (uint64_t key = 1; key <= keys; ++key)
            before.push_back(ring.replicaSet(key, r));

        // Leave: exactly the keys that listed the victim change, and
        // they gain exactly one new member; everything else is
        // untouched.
        ring.removeNode(victim);
        unsigned moved = 0;
        for (uint64_t key = 1; key <= keys; ++key) {
            const auto &old_set = before[key - 1];
            const auto new_set = ring.replicaSet(key, r);
            const bool had_victim =
                std::find(old_set.begin(), old_set.end(), victim) !=
                old_set.end();
            if (!had_victim) {
                EXPECT_EQ(new_set, old_set)
                    << "seed " << seed << " key " << key;
                continue;
            }
            ++moved;
            unsigned gained = 0;
            for (uint32_t node : new_set) {
                if (std::find(old_set.begin(), old_set.end(), node) ==
                    old_set.end())
                    ++gained;
                EXPECT_NE(node, victim);
            }
            EXPECT_EQ(gained, 1u) << "seed " << seed << " key " << key;
        }
        // ~r*K/N keys listed the victim; allow a wide statistical band.
        const double expected =
            static_cast<double>(r) * keys / nodes;
        EXPECT_GT(moved, expected * 0.5) << "seed " << seed;
        EXPECT_LT(moved, expected * 1.7) << "seed " << seed;

        // Join (the node returns): placement is memoryless, so every
        // replica set snaps back to exactly the original.
        ring.addNode(victim);
        for (uint64_t key = 1; key <= keys; ++key)
            EXPECT_EQ(ring.replicaSet(key, r), before[key - 1])
                << "seed " << seed << " key " << key;
    }
}

// Node lifecycle ------------------------------------------------------

TEST(FleetNode, CrashCaptureRebootKeepsState)
{
    FleetNodeConfig config;
    config.id = 0;
    config.seed = testSeed(0xf1ee70);
    FleetNode node(config);
    node.bootFresh();
    EXPECT_EQ(node.state(), NodeState::Up);
    EXPECT_TRUE(node.put(7, 70));
    EXPECT_TRUE(node.put(9, 90));

    // A wide window lets flush-on-fail complete: WSP restore.
    node.crash(fromMillis(80.0));
    EXPECT_EQ(node.state(), NodeState::Dark);
    EXPECT_FALSE(node.serving());

    const RestoreReport report = node.reboot();
    EXPECT_TRUE(report.usedWsp);
    EXPECT_EQ(node.state(), NodeState::Restoring);
    uint64_t value = 0;
    EXPECT_TRUE(node.get(7, &value));
    EXPECT_EQ(value, 70u);
    EXPECT_TRUE(node.get(9, &value));
    EXPECT_EQ(value, 90u);
    EXPECT_EQ(node.wspRecoveries(), 1u);
}

TEST(FleetNode, ColdRefillRebuildsFromSource)
{
    FleetNodeConfig config;
    config.id = 1;
    config.seed = testSeed(0xf1ee71);
    FleetNode node(config);
    node.setRefillSource([&](unsigned shard) {
        std::vector<std::pair<uint64_t, uint64_t>> pairs;
        for (uint64_t key = 1; key <= 32; ++key)
            if (node.shardOf(key) == shard)
                pairs.emplace_back(key, key * 11);
        return pairs;
    });
    node.bootFresh();
    node.put(1, 999); // will be discarded with the NVRAM image
    node.crash(fromMillis(80.0));

    node.rebootColdRefill();
    EXPECT_EQ(node.backendRefills(), 1u);
    uint64_t value = 0;
    EXPECT_TRUE(node.get(1, &value));
    EXPECT_EQ(value, 11u); // the backend's value, not the lost write
    EXPECT_TRUE(node.get(32, &value));
    EXPECT_EQ(value, 32u * 11);
}

// Fleet client plane --------------------------------------------------

TEST(Fleet, QuorumWritesReadsAndConvergence)
{
    FleetConfig config;
    config.nodes = 5;
    config.replication = 3;
    config.seed = testSeed(0xf1ee72);
    Fleet fleet(config);
    EXPECT_EQ(fleet.writeQuorum(), 2u); // majority of R=3

    for (uint64_t key = 1; key <= 40; ++key)
        EXPECT_TRUE(fleet.clientPut(key, key * 3));
    uint64_t value = 0;
    EXPECT_TRUE(fleet.clientGet(17, &value));
    EXPECT_EQ(value, 51u);
    EXPECT_TRUE(fleet.clientErase(17));
    EXPECT_FALSE(fleet.clientGet(17, &value));

    EXPECT_TRUE(fleet.checkReplicaConvergence().empty());
    EXPECT_EQ(fleet.stats().ackedWrites, 41u);
    // A miss is a successful read of an absent key, not a failure.
    EXPECT_EQ(fleet.stats().failed, 0u);
}

TEST(Fleet, WritesRejectedWithoutQuorumAndNotApplied)
{
    FleetConfig config;
    config.nodes = 3;
    config.replication = 3;
    config.seed = testSeed(0xf1ee73);
    Fleet fleet(config);
    ASSERT_TRUE(fleet.clientPut(5, 50));

    // Kill a majority with a long outage: writes cannot reach quorum
    // within the retry budget and must be rejected without mutating
    // any replica.
    fleet.killSubset(0b011, fromSeconds(30.0), fromMillis(80.0));
    EXPECT_FALSE(fleet.node(0).up());
    EXPECT_FALSE(fleet.node(1).up());
    EXPECT_FALSE(fleet.clientPut(5, 999));
    EXPECT_EQ(fleet.stats().rejectedWrites, 1u);
    EXPECT_GT(fleet.stats().retries, 0u);

    fleet.settle();
    EXPECT_TRUE(fleet.checkReplicaConvergence().empty());
    uint64_t value = 0;
    EXPECT_TRUE(fleet.clientGet(5, &value));
    EXPECT_EQ(value, 50u); // the rejected write never landed
}

// Storms and recovery policies ---------------------------------------

TEST(Fleet, StormWspLocalRecoversEveryVictim)
{
    FleetConfig config;
    config.nodes = 4;
    config.replication = 3;
    config.seed = testSeed(0xf1ee74);
    Fleet fleet(config);
    fleet.runTraffic(80, 0.7);
    const uint64_t acked_before = fleet.ackedWrites();
    ASSERT_GT(acked_before, 0u);

    const StormOutcome storm =
        fleet.runStorm(/*mask=*/0, fromSeconds(2.0), fromMillis(80.0));
    EXPECT_EQ(storm.victims, 4u);
    EXPECT_EQ(storm.wspRecoveries, 4u); // wide window: full saves
    EXPECT_EQ(storm.backendRefills, 0u);
    EXPECT_GT(storm.digestsExchanged, 0u);
    EXPECT_GT(storm.timeToFullCapacity, 0u);
    for (uint32_t id = 0; id < 4; ++id)
        EXPECT_TRUE(fleet.node(id).up()) << id;
    EXPECT_TRUE(noReplicaDivergence(fleet).empty());

    // The capacity timeline dips to zero (correlated kill-all) and
    // returns to one.
    const Series &capacity = fleet.capacityTimeline();
    EXPECT_EQ(capacity.minY(), 0.0);
    EXPECT_EQ(capacity.ys.back(), 1.0);
}

TEST(Fleet, BackToBackStormsEachReportTheirOwnCounts)
{
    // Each storm restarts the fleet's storm counters, so its outcome
    // must count that storm alone — not the difference against the
    // storm before it (which read 0 for a repeat and wrapped around
    // for a smaller one).
    FleetConfig config;
    config.nodes = 5;
    config.replication = 3;
    config.seed = testSeed(0xf1ee7d);
    Fleet fleet(config);
    fleet.runTraffic(60, 0.7);

    for (int storm_index = 0; storm_index < 2; ++storm_index) {
        const StormOutcome storm =
            fleet.runStorm(/*mask=*/0, fromSeconds(2.0), fromMillis(80.0));
        EXPECT_EQ(storm.victims, 5u) << "storm " << storm_index;
        EXPECT_EQ(storm.wspRecoveries, 5u) << "storm " << storm_index;
        EXPECT_GT(storm.digestsExchanged, 0u) << "storm " << storm_index;
        fleet.runTraffic(30, 0.7);
    }
    const StormOutcome smaller =
        fleet.runStorm(/*mask=*/0b00110, fromSeconds(2.0), fromMillis(80.0));
    EXPECT_EQ(smaller.victims, 2u);
    EXPECT_EQ(smaller.wspRecoveries, 2u);
    EXPECT_EQ(smaller.backendRefills, 0u);
    EXPECT_TRUE(noReplicaDivergence(fleet).empty());
}

TEST(Fleet, MidSaveKillSubsetStaysConvergent)
{
    FleetConfig config;
    config.nodes = 5;
    config.replication = 3;
    config.seed = testSeed(0xf1ee75);
    // A 2 ms window tears the save mid-flight: victims come back via
    // salvage or cold refill, never a clean whole-image resume.
    Fleet fleet(config);
    fleet.runTraffic(60, 0.7);

    const StormOutcome storm =
        fleet.runStorm(/*mask=*/0b01010, fromSeconds(1.0),
                       fromMillis(2.0));
    EXPECT_EQ(storm.victims, 2u);
    EXPECT_EQ(storm.wspRecoveries +
                  storm.salvageBoots + storm.backendRefills,
              2u);
    EXPECT_TRUE(noReplicaDivergence(fleet).empty());
    // Survivors kept serving: every pre-storm acked write is intact.
    EXPECT_GT(fleet.ackedWrites(), 0u);
}

TEST(Fleet, BackendRefillPolicyDiscardsNvramButLosesNothing)
{
    FleetConfig config;
    config.nodes = 4;
    config.replication = 3;
    config.policy = RecoveryPolicy::BackendRefill;
    config.seed = testSeed(0xf1ee76);
    Fleet fleet(config);
    fleet.runTraffic(60, 0.7);

    const StormOutcome storm =
        fleet.runStorm(/*mask=*/0, fromSeconds(2.0), fromMillis(80.0));
    EXPECT_EQ(storm.backendRefills, 4u);
    EXPECT_EQ(storm.wspRecoveries, 0u);
    EXPECT_TRUE(noReplicaDivergence(fleet).empty());
}

TEST(Fleet, DegradedTierServesReadsDuringRepair)
{
    FleetConfig config;
    config.nodes = 3;
    config.replication = 3;
    config.policy = RecoveryPolicy::DegradedTier;
    config.seed = testSeed(0xf1ee77);
    // Big modelled state stretches the repair window so sampled reads
    // land while every node is still in the read-only tier.
    config.memoryPerServer = 256ull * kGiB;
    Fleet fleet(config);
    fleet.runTraffic(50, 1.0); // writes only: seed acked state

    const StormOutcome storm = fleet.runStorm(
        /*mask=*/0, fromSeconds(2.0), fromMillis(80.0), /*puts=*/0.0);
    EXPECT_EQ(storm.victims, 3u);
    EXPECT_GT(fleet.stats().degradedReads, 0u);
    EXPECT_TRUE(noReplicaDivergence(fleet).empty());
}

TEST(Fleet, OutageTrainRepeatedStormsStayConvergent)
{
    FleetConfig config;
    config.nodes = 3;
    config.replication = 2;
    config.seed = testSeed(0xf1ee78);
    Fleet fleet(config);
    for (unsigned cycle = 0; cycle < 3; ++cycle) {
        fleet.runTraffic(30, 0.7);
        fleet.runStorm(/*mask=*/1ull << (cycle % 3), fromSeconds(1.0),
                       cycle == 1 ? fromMillis(2.0) : fromMillis(80.0));
        EXPECT_TRUE(noReplicaDivergence(fleet).empty()) << cycle;
    }
}

// Rebalance -----------------------------------------------------------

TEST(Fleet, DecommissionRebalancesOntoSurvivors)
{
    FleetConfig config;
    config.nodes = 5;
    config.replication = 3;
    config.seed = testSeed(0xf1ee79);
    Fleet fleet(config);
    for (uint64_t key = 1; key <= 120; ++key)
        ASSERT_TRUE(fleet.clientPut(key, key));

    const RebalanceReport report = fleet.decommission(2);
    EXPECT_GT(report.keysMoved, 0u);
    EXPECT_EQ(report.bytesMoved, report.keysMoved * 16);
    EXPECT_GT(report.duration, 0u);
    EXPECT_EQ(fleet.node(2).state(), NodeState::Decommissioned);

    // Every key now resolves to surviving nodes only, fully caught up.
    for (uint64_t key = 1; key <= 120; ++key)
        for (uint32_t id : fleet.replicaSet(key))
            EXPECT_NE(id, 2u);
    EXPECT_TRUE(noReplicaDivergence(fleet).empty());
    uint64_t value = 0;
    EXPECT_TRUE(fleet.clientGet(60, &value));
    EXPECT_EQ(value, 60u);
}

// Satellite 1: differential against the analytic model ---------------

TEST(Fleet, DifferentialAgreesWithAnalyticClusterModel)
{
    FleetConfig config;
    config.nodes = 4;
    config.replication = 3;
    config.seed = testSeed(0xf1ee7a);
    config.memoryPerServer = 256ull * kGiB;
    Fleet fleet(config);

    // The closed-form model and the fleet's modelled plane must agree
    // exactly: same formulas, same inputs.
    const apps::StormReport analytic =
        apps::correlatedOutage(fleet.analytic());
    EXPECT_EQ(fleet.modeledRefill(config.nodes),
              analytic.backendRecovery);
    EXPECT_NEAR(toSeconds(fleet.modeledWspRecovery(config.nodes)),
                toSeconds(analytic.wspRecovery),
                1e-6);

    // And the *simulated* storm must land on the analytic WSP
    // recovery time within tolerance: the only extras are the
    // anti-entropy stream of the genuinely missed updates (tiny) and
    // event rounding.
    fleet.runTraffic(60, 0.7);
    const StormOutcome storm =
        fleet.runStorm(/*mask=*/0, fromSeconds(2.0), fromMillis(80.0));
    ASSERT_EQ(storm.wspRecoveries, 4u);
    const double simulated = toSeconds(storm.timeToFullCapacity);
    const double predicted = toSeconds(analytic.wspRecovery);
    EXPECT_NEAR(simulated, predicted, 0.05 * predicted + 1.0)
        << "simulated fleet drifted from the closed-form model";

    // The refill policy on the same fleet must likewise land on the
    // analytic storm estimate — and preserve the paper's regime gap.
    FleetConfig refill_config = config;
    refill_config.policy = RecoveryPolicy::BackendRefill;
    Fleet refill(refill_config);
    refill.runTraffic(60, 0.7);
    const StormOutcome refill_storm =
        refill.runStorm(/*mask=*/0, fromSeconds(2.0), fromMillis(80.0));
    const double refill_simulated =
        toSeconds(refill_storm.timeToFullCapacity);
    const double refill_predicted = toSeconds(analytic.backendRecovery);
    EXPECT_NEAR(refill_simulated, refill_predicted,
                0.05 * refill_predicted + 1.0);
    EXPECT_GT(refill_simulated, 5.0 * simulated);
}

// Satellite: schedule round-trip of the fleet fields -----------------

TEST(Fleet, CrashScheduleFleetFieldsRoundTrip)
{
    crashsim::CrashSchedule schedule = FleetSweep::defaultSchedule();
    schedule.fleetNodes = 7;
    schedule.fleetReplication = 2;
    schedule.fleetKillMask = 0b1010101;
    schedule.fleetPolicy = 2;

    const auto parsed =
        crashsim::CrashSchedule::parse(schedule.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->fleetNodes, 7u);
    EXPECT_EQ(parsed->fleetReplication, 2u);
    EXPECT_EQ(parsed->fleetKillMask, 0b1010101ull);
    EXPECT_EQ(parsed->fleetPolicy, 2);
    EXPECT_NE(schedule.summary().find("fleet=7/r2"), std::string::npos);

    // Validation: replication 0 on a fleet schedule is rejected.
    crashsim::CrashSchedule bad = schedule;
    bad.fleetReplication = 0;
    EXPECT_FALSE(
        crashsim::CrashSchedule::parse(bad.serialize()).has_value());
}

// Tentpole acceptance: the NoReplicaDivergence sweep ------------------

TEST(FleetSweep, EnumeratedOutageTrainSweepHolds)
{
    // Every distinguishable kill instant of the save pipeline —
    // including mid-save tears that force salvage or cold boots —
    // must leave the fleet convergent with no acked write lost.
    crashsim::CrashSchedule base = FleetSweep::defaultSchedule();
    base.seed = testSeed(0xf1ee7b);
    FleetSweep sweep(base);
    const FleetSweepReport report =
        sweep.sweepEnumerated(false, /*max_points=*/10);
    EXPECT_EQ(report.points, 10u);
    for (const auto &failure : report.failures)
        for (const auto &violation : failure.violations)
            ADD_FAILURE() << failure.schedule.summary() << ": "
                          << violation;
    EXPECT_TRUE(report.allHeld());
    // The sweep must exercise both recovery regimes: early tears fall
    // back, late instants resume via WSP.
    EXPECT_GT(report.wspRecoveries, 0u);
    EXPECT_GT(report.salvageBoots + report.backendRefills, 0u);
}

TEST(FleetSweep, FuzzedSchedulesHold)
{
    crashsim::CrashSchedule base = FleetSweep::defaultSchedule();
    base.ops = 32;
    FleetSweep sweep(base);
    const FleetSweepReport report =
        sweep.fuzz(/*runs=*/5, testSeed(0xf1ee7c));
    EXPECT_EQ(report.points, 5u);
    for (const auto &failure : report.failures)
        for (const auto &violation : failure.violations)
            ADD_FAILURE() << failure.schedule.summary() << ": "
                          << violation;
    EXPECT_TRUE(report.allHeld());
}
