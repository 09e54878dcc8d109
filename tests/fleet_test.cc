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
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "apps/cluster.h"
#include "fleet/fleet.h"
#include "fleet/fleet_sweep.h"
#include "fleet/rendezvous.h"
#include "test_seed.h"
#include "trace/stat_registry.h"

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

TEST(FleetNode, EveryBootPathLeavesAChassisThatResumesItsNextCycle)
{
    // A node power-cycles one chassis for its whole life, so whatever
    // the last boot did — a cold boot after a torn save, a WSP resume,
    // a refill onto blank DIMMs — the next kill must save the store
    // and the next reboot resume it from the NVDIMMs alone.
    FleetNodeConfig config;
    config.id = 2;
    config.seed = testSeed(0xf1ee72);
    FleetNode node(config);
    unsigned source_reads = 0;
    node.setRefillSource([&](unsigned shard) {
        ++source_reads;
        std::vector<std::pair<uint64_t, uint64_t>> pairs;
        for (uint64_t key = 1; key <= 32; ++key)
            if (node.shardOf(key) == shard)
                pairs.emplace_back(key, key * 11);
        return pairs;
    });
    node.bootFresh();
    uint64_t value = 0;

    // A 2 ms window tears the save: the boot finds no valid marker
    // and the store comes back from the source.
    node.crash(fromMillis(2.0));
    EXPECT_FALSE(node.reboot().usedWsp);
    EXPECT_EQ(node.backendRefills(), 1u);
    EXPECT_EQ(source_reads, node.shards());
    ASSERT_TRUE(node.put(40, 400));
    node.crash(fromMillis(80.0));
    EXPECT_TRUE(node.reboot().usedWsp);
    EXPECT_TRUE(node.get(40, &value));
    EXPECT_EQ(value, 400u);

    // Blank DIMMs: the write above is gone, the source's keys are back.
    node.crash(fromMillis(80.0));
    node.rebootColdRefill();
    EXPECT_FALSE(node.lastRestore().usedWsp);
    EXPECT_FALSE(node.lastRestore().flashValid);
    EXPECT_EQ(node.backendRefills(), 2u);
    EXPECT_FALSE(node.get(40));
    ASSERT_TRUE(node.put(41, 410));
    node.crash(fromMillis(80.0));
    EXPECT_TRUE(node.reboot().usedWsp);
    EXPECT_EQ(node.wspRecoveries(), 2u);
    EXPECT_TRUE(node.get(41, &value));
    EXPECT_EQ(value, 410u);
    EXPECT_TRUE(node.get(32, &value));
    EXPECT_EQ(value, 32u * 11);
    // Only the two cold boots read the source.
    EXPECT_EQ(source_reads, 2 * node.shards());
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

TEST(Fleet, WriteQuorumIsAMajorityOfTheEffectiveReplication)
{
    for (unsigned nodes = 1; nodes <= 6; ++nodes) {
        for (unsigned replication = 1; replication <= 5; ++replication) {
            SCOPED_TRACE("nodes=" + std::to_string(nodes) +
                         " replication=" + std::to_string(replication));
            FleetConfig config;
            config.nodes = nodes;
            config.replication = replication;
            config.shardsPerNode = 1;
            config.perShardCapacity = 16;
            const Fleet fleet(config);
            const unsigned r = fleet.replication();
            EXPECT_EQ(r, std::min(replication, nodes));
            // The smallest count that is more than half of r.
            const unsigned q = fleet.writeQuorum();
            EXPECT_GT(2 * q, r);
            EXPECT_LE(2 * (q - 1), r);
        }
    }
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
}

TEST(Fleet, LatencyCountsEveryRequestWithoutClamping)
{
    FleetConfig config;
    config.nodes = 4;
    config.replication = 3;
    config.seed = testSeed(0xf1ee7e);
    Fleet fleet(config);
    fleet.runTraffic(80, 0.7);
    fleet.runStorm(/*mask=*/0, fromSeconds(2.0), fromMillis(80.0));
    fleet.runTraffic(20, 0.7);

    // Every request is recorded once, under its key's primary, and the
    // per-node histograms merge to the fleet-wide one.
    const Histogram fleetWide = fleet.fleetLatency();
    EXPECT_EQ(fleetWide.total(), fleet.stats().requests);
    Histogram merged;
    for (uint32_t id = 0; id < fleet.nodeCount(); ++id)
        merged.merge(fleet.nodeLatency(id));
    EXPECT_EQ(merged.total(), fleetWide.total());
    for (double p : {0.0, 50.0, 90.0, 99.0, 100.0})
        EXPECT_EQ(merged.percentile(p), fleetWide.percentile(p)) << p;

    // While the whole fleet is dark, a read that exhausts its six
    // attempts pays 6 x 3 replicas x 2 ms of timeouts plus at least
    // 0.5 + 1 + 2 + 4 + 8 + 16 = 31.5 ms of backoff: 67.5 ms, above
    // the 50 ms top that a ranged histogram would have clamped to.
    ASSERT_GT(fleet.stats().failed, 0u);
    EXPECT_GE(fleetWide.percentile(100.0), 67.5e6);
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

TEST(Fleet, DecommissioningADarkVictimRetiresItFromTheStorm)
{
    // Decommission cancels a recovering victim's events, so the victim
    // must also leave the storm's count of nodes still recovering.
    // Otherwise the storm never ends: the next kill joins it and
    // reports its start, and modelled refill and stale-fetch times see
    // one recovery too many.
    const auto run = [](bool while_dark) {
        FleetConfig config;
        config.nodes = 5;
        config.replication = 3;
        config.seed = testSeed(0xf1ee7e);
        Fleet fleet(config);
        fleet.runTraffic(60, 0.7);
        fleet.killSubset(0b00110, fromSeconds(2.0), fromMillis(80.0));
        if (while_dark) {
            EXPECT_EQ(fleet.node(2).state(), NodeState::Dark);
            fleet.decommission(2);
        }
        fleet.settle();
        if (!while_dark)
            fleet.decommission(2);
        fleet.runTraffic(30, 0.7);
        const Tick kill_at = fleet.now();
        const StormOutcome storm = fleet.runStorm(
            /*mask=*/0b00001, fromSeconds(2.0), fromMillis(80.0));
        EXPECT_EQ(storm.start, kill_at) << "while_dark=" << while_dark;
        EXPECT_TRUE(noReplicaDivergence(fleet).empty());
        return storm;
    };
    const StormOutcome dark = run(true);
    const StormOutcome settled = run(false);
    // Same storm on both fleets. Its instants are compared from the
    // kill: the fleet that lost node 2 while dark settles a few ns
    // later, because node 1's repair streams the keys it gained from
    // node 2 instead of receiving them from the rebalance.
    EXPECT_EQ(dark.powerRestored - dark.start,
              settled.powerRestored - settled.start);
    EXPECT_EQ(dark.fullCapacityAt - dark.start,
              settled.fullCapacityAt - settled.start);
    EXPECT_EQ(dark.timeToFullCapacity, settled.timeToFullCapacity);
    EXPECT_EQ(dark.victims, 1u);
    EXPECT_EQ(dark.victims, settled.victims);
    EXPECT_EQ(dark.wspRecoveries, settled.wspRecoveries);
    EXPECT_EQ(dark.salvageBoots, settled.salvageBoots);
    EXPECT_EQ(dark.backendRefills, settled.backendRefills);
    EXPECT_EQ(dark.digestsExchanged, settled.digestsExchanged);
    EXPECT_EQ(dark.repairStreamedBytes, settled.repairStreamedBytes);
    EXPECT_EQ(dark.shardsRepaired, settled.shardsRepaired);
}

TEST(Fleet, ReKillingARecoveringVictimLetsTheStormEnd)
{
    // A victim killed again while it is still recovering is already
    // counted among the storm's recovering nodes, and the re-kill
    // cancels the RepairDone that would have retired that count.
    // Counting it a second time kept the storm running after settle():
    // the next kill joined the dead storm and reported its start.
    FleetConfig config;
    config.nodes = 5;
    config.replication = 3;
    config.seed = testSeed(1);
    Fleet fleet(config);
    fleet.runTraffic(30);
    fleet.killSubset(0b00001, fromSeconds(2.0), fromMillis(80.0));
    fleet.advanceBy(fromSeconds(2.5));
    ASSERT_EQ(fleet.node(0).state(), NodeState::Restoring);
    EXPECT_EQ(fleet.killSubset(0b00001, fromSeconds(2.0), fromMillis(80.0)),
              1u);
    fleet.settle();
    ASSERT_TRUE(fleet.node(0).up());

    fleet.runTraffic(10);
    const Tick kill_at = fleet.now();
    const StormOutcome storm =
        fleet.runStorm(0b00010, fromSeconds(2.0), fromMillis(80.0));
    EXPECT_EQ(storm.start, kill_at);
    EXPECT_EQ(storm.victims, 1u);
    EXPECT_EQ(storm.wspRecoveries, 1u);
    EXPECT_TRUE(fleet.node(1).up());
    EXPECT_TRUE(noReplicaDivergence(fleet).empty());
}

TEST(Fleet, RepairRemovesAnAckedEraseADarkReplicaMissed)
{
    FleetConfig config;
    config.nodes = 5;
    config.replication = 3;
    config.seed = testSeed(0xf1ee7f);
    // No sampled requests during the storm: the erase below is the one
    // update the victim misses.
    config.trafficSpacing = fromSeconds(1000.0);
    Fleet fleet(config);
    for (uint64_t key = 1; key <= 40; ++key)
        ASSERT_TRUE(fleet.clientPut(key, key * 7));

    const uint64_t key = 17;
    const uint32_t victim = fleet.replicaSet(key)[1];
    fleet.killSubset(1ull << victim, fromSeconds(2.0), fromMillis(80.0));
    ASSERT_TRUE(fleet.clientErase(key)); // two Up replicas ack it

    // The victim is already dark, so this storm joins the running one
    // and only stretches the outage: no new victims.
    const StormOutcome storm = fleet.runStorm(
        1ull << victim, fromSeconds(2.0), fromMillis(80.0));
    EXPECT_EQ(storm.victims, 0u);
    ASSERT_TRUE(fleet.node(victim).up());
    EXPECT_EQ(fleet.node(victim).lastRestore().usedWsp, true);
    EXPECT_FALSE(fleet.node(victim).get(key));
    EXPECT_EQ(storm.repairStreamedBytes, 16u); // the one erase
    EXPECT_EQ(storm.shardsRepaired, 1u);
    EXPECT_TRUE(noReplicaDivergence(fleet).empty());
}

// Repair outputs, pinned ----------------------------------------------
//
// Exact storm outcomes, client stats and replica contents of fixed-seed
// scenarios whose repairs stream bytes (partial kills with traffic
// while the victims are dark, a torn save, backend refill, a storm
// after a decommission) or serve the degraded tier. A repair that
// streams a different pair, in a different order, or charges different
// bytes changes them.

namespace {

std::string
describe(const StormOutcome &storm)
{
    char line[320];
    std::snprintf(
        line, sizeof(line),
        "start=%llu restored=%llu full=%llu ttfc=%llu victims=%u wsp=%u "
        "salvage=%u refill=%u digests=%llu streamed=%llu shards=%u",
        static_cast<unsigned long long>(storm.start),
        static_cast<unsigned long long>(storm.powerRestored),
        static_cast<unsigned long long>(storm.fullCapacityAt),
        static_cast<unsigned long long>(storm.timeToFullCapacity),
        storm.victims, storm.wspRecoveries, storm.salvageBoots,
        storm.backendRefills,
        static_cast<unsigned long long>(storm.digestsExchanged),
        static_cast<unsigned long long>(storm.repairStreamedBytes),
        storm.shardsRepaired);
    return line;
}

/** Client stats, then (count:checksum) of each serving node over the
 *  key universe ('-' for a node that is not serving). */
std::string
describe(const Fleet &fleet)
{
    const RequestStats &stats = fleet.stats();
    char line[256];
    std::snprintf(
        line, sizeof(line),
        "now=%llu requests=%llu ok=%llu failed=%llu retries=%llu "
        "timeouts=%llu degraded=%llu rejected=%llu acked=%llu |",
        static_cast<unsigned long long>(fleet.now()),
        static_cast<unsigned long long>(stats.requests),
        static_cast<unsigned long long>(stats.succeeded),
        static_cast<unsigned long long>(stats.failed),
        static_cast<unsigned long long>(stats.retries),
        static_cast<unsigned long long>(stats.timeouts),
        static_cast<unsigned long long>(stats.degradedReads),
        static_cast<unsigned long long>(stats.rejectedWrites),
        static_cast<unsigned long long>(stats.ackedWrites));
    std::string text = line;
    for (uint32_t id = 0; id < fleet.nodeCount(); ++id) {
        const FleetNode &node = fleet.node(id);
        if (!node.serving()) {
            text += " -";
            continue;
        }
        uint64_t count = 0;
        uint64_t sum = 0;
        for (uint64_t key = 1; key <= fleet.config().keyUniverse; ++key) {
            uint64_t value = 0;
            if (node.get(key, &value)) {
                ++count;
                sum += key * 0x9e3779b97f4a7c15ull + value;
            }
        }
        std::snprintf(line, sizeof(line), " %llu:%016llx",
                      static_cast<unsigned long long>(count),
                      static_cast<unsigned long long>(sum));
        text += line;
    }
    return text;
}

FleetConfig
pinnedConfig(unsigned nodes)
{
    FleetConfig config;
    config.nodes = nodes;
    config.replication = 3;
    config.seed = 1; // pinned values: deliberately not testSeed()
    return config;
}

} // namespace

TEST(FleetPinned, PartialKillsWithTrafficWhileDark)
{
    Fleet fleet(pinnedConfig(5));
    fleet.runTraffic(60, 0.7);
    EXPECT_EQ(describe(fleet.runStorm(0b00110, fromSeconds(2.0),
                                      fromMillis(80.0), 0.7)),
              "start=1200000000 restored=3200000000 full=17147052470 "
              "ttfc=13947052470 victims=2 wsp=2 salvage=0 refill=0 "
              "digests=104 streamed=2336 shards=16");
    fleet.runTraffic(40, 0.7);
    EXPECT_EQ(describe(fleet.runStorm(0b11001, fromSeconds(3.0),
                                      fromMillis(80.0), 0.6)),
              "start=17947052470 restored=20947052470 full=34894104185 "
              "ttfc=13947051715 victims=3 wsp=3 salvage=0 refill=0 "
              "digests=120 streamed=848 shards=24");
    EXPECT_EQ(describe(fleet),
              "now=34894142354 requests=908 ok=631 failed=277 retries=1667 "
              "timeouts=1872 degraded=0 rejected=271 acked=389 | "
              "160:a587a64a0d4074b8 158:d4b952d5e3eadbae "
              "144:3866a640bc240095 154:2f2a082f7e38b625 "
              "149:99ff2085ed5db887");
    EXPECT_TRUE(noReplicaDivergence(fleet).empty());
}

TEST(FleetPinned, TornSaveStorm)
{
    Fleet fleet(pinnedConfig(5));
    fleet.runTraffic(60, 0.7);
    EXPECT_EQ(describe(fleet.runStorm(0b01010, fromSeconds(1.0),
                                      fromMillis(2.0))),
              "start=1200000000 restored=2200000000 full=10789935053 "
              "ttfc=8589935053 victims=2 wsp=0 salvage=0 refill=2 "
              "digests=104 streamed=1136 shards=16");
    EXPECT_EQ(describe(fleet),
              "now=10789935053 requests=377 ok=323 failed=54 retries=324 "
              "timeouts=399 degraded=0 rejected=54 acked=176 | "
              "90:b34fb64bc602b6ad 62:17af34a405317b8e "
              "92:9bfef207d1e7164a 61:05239e5275b31133 "
              "79:0d6bab45e984f123");
    EXPECT_TRUE(noReplicaDivergence(fleet).empty());
}

TEST(FleetPinned, DegradedTier)
{
    FleetConfig config = pinnedConfig(3);
    config.policy = RecoveryPolicy::DegradedTier;
    config.memoryPerServer = 256ull * kGiB;
    Fleet fleet(config);
    fleet.runTraffic(50, 1.0);
    EXPECT_EQ(describe(fleet.runStorm(0, fromSeconds(2.0), fromMillis(80.0),
                                      0.3)),
              "start=1000000000 restored=3000000000 full=17488217350 "
              "ttfc=14488217350 victims=3 wsp=3 salvage=0 refill=0 "
              "digests=24 streamed=0 shards=0");
    EXPECT_EQ(describe(fleet),
              "now=17488217350 requests=233 ok=55 failed=178 retries=1072 "
              "timeouts=2196 degraded=5 rejected=85 acked=50 | "
              "46:efa9a21b022207b7 46:efa9a21b022207b7 "
              "46:efa9a21b022207b7");
    EXPECT_TRUE(noReplicaDivergence(fleet).empty());
}

TEST(FleetPinned, BackendRefill)
{
    FleetConfig config = pinnedConfig(4);
    config.policy = RecoveryPolicy::BackendRefill;
    Fleet fleet(config);
    fleet.runTraffic(60, 0.7);
    EXPECT_EQ(describe(fleet.runStorm(0b0101, fromSeconds(2.0),
                                      fromMillis(80.0))),
              "start=1200000000 restored=3200000000 full=11789934963 "
              "ttfc=8589934963 victims=2 wsp=0 salvage=0 refill=2 "
              "digests=72 streamed=768 shards=16");
    EXPECT_EQ(describe(fleet),
              "now=11803953122 requests=343 ok=260 failed=83 retries=498 "
              "timeouts=580 degraded=0 rejected=83 acked=129 | "
              "66:21f9c08e0c5a9512 86:e3dd0e83f13a2703 "
              "53:583580333e1d0ccb 86:726952b9ee1fc518");
    EXPECT_TRUE(noReplicaDivergence(fleet).empty());
}

TEST(FleetPinned, StormAfterDecommission)
{
    Fleet fleet(pinnedConfig(5));
    fleet.runTraffic(80, 0.7);
    EXPECT_EQ(fleet.decommission(2).keysMoved, 34u);
    fleet.runTraffic(20, 0.7);
    EXPECT_EQ(describe(fleet.runStorm(0b00011, fromSeconds(2.0),
                                      fromMillis(80.0), 0.7)),
              "start=2000000000 restored=4000000000 full=17947052112 "
              "ttfc=13947052112 victims=2 wsp=2 salvage=0 refill=0 "
              "digests=72 streamed=1568 shards=16");
    EXPECT_EQ(describe(fleet),
              "now=17947052112 requests=482 ok=342 failed=140 retries=840 "
              "timeouts=918 degraded=0 rejected=140 acked=214 | "
              "98:8662eee6e5d3800d 94:2a5b2a3c7f511306 - "
              "142:c23914277c978d91 131:895154ccc9e63578");
    EXPECT_TRUE(noReplicaDivergence(fleet).empty());
}

// Maintained digests -------------------------------------------------
//
// Repair compares each live node's per-mask shard digests, and the
// acked history's, without reading the shards they summarize. Each test
// steps storms with advanceBy, serving sampled traffic between steps,
// and holds checkDigests() (a rescan of every live shard and of the
// acked history) empty after every step.

namespace {

void
expectDigestsExact(const Fleet &fleet, const char *what)
{
    for (const std::string &violation : fleet.checkDigests())
        ADD_FAILURE() << what << " at t=" << toSeconds(fleet.now())
                      << " s: " << violation;
}

/** Serve @p requests sampled requests, advance @p step, check. */
void
stepChecked(Fleet &fleet, Tick step, unsigned requests, const char *what)
{
    fleet.runTraffic(requests, 0.6);
    fleet.advanceBy(step);
    expectDigestsExact(fleet, what);
}

/** Step until no recovery event is pending. */
void
stepUntilSettled(Fleet &fleet, Tick step, unsigned requests,
                 const char *what)
{
    for (unsigned guard = 0; fleet.recoveryPending() && guard < 2000;
         ++guard)
        stepChecked(fleet, step, requests, what);
    EXPECT_FALSE(fleet.recoveryPending()) << what;
}

/** Step until node @p id reaches @p state (or give up). */
void
stepUntilState(Fleet &fleet, uint32_t id, NodeState state, Tick step,
               const char *what)
{
    for (unsigned guard = 0;
         fleet.node(id).state() != state && guard < 2000; ++guard)
        stepChecked(fleet, step, 1, what);
}

uint64_t
repairShardReads()
{
    return trace::StatRegistry::instance()
        .counter("fleet.repair_shard_reads")
        .value();
}

} // namespace

TEST(FleetDigests, WspLocalStormsHoldAtEveryStep)
{
    FleetConfig config;
    config.nodes = 5;
    config.replication = 3;
    config.seed = testSeed(0xd16e01);
    Fleet fleet(config);
    expectDigestsExact(fleet, "fresh fleet");
    fleet.runTraffic(60, 0.7);
    expectDigestsExact(fleet, "before the storms");

    // Partial kills keep a write quorum up, so the victims miss acked
    // writes while dark and repair streams them; the 2 ms window tears
    // the save, so those victims come back by salvage or a cold boot.
    struct Storm
    {
        uint64_t mask;
        Tick window;
    };
    for (const Storm storm : {Storm{0b00110, fromMillis(80.0)},
                              Storm{0b11001, fromMillis(80.0)},
                              Storm{0b01010, fromMillis(2.0)},
                              Storm{0, fromMillis(80.0)}}) {
        const uint64_t reads_before = repairShardReads();
        const unsigned victims =
            fleet.killSubset(storm.mask, fromSeconds(2.0), storm.window);
        stepUntilSettled(fleet, fromMillis(250.0), 3, "wsp-local");
        // Each victim reads each of its shards once, when its restore
        // is done; the certification pass reads none of them.
        EXPECT_EQ(repairShardReads() - reads_before,
                  uint64_t{victims} * config.shardsPerNode);
        EXPECT_TRUE(noReplicaDivergence(fleet).empty());
    }
}

TEST(FleetDigests, DegradedTierHoldsAtEveryStep)
{
    FleetConfig config;
    config.nodes = 4;
    config.replication = 3;
    config.policy = RecoveryPolicy::DegradedTier;
    config.seed = testSeed(0xd16e02);
    // Big modelled state stretches the stale fetch, so steps land while
    // the victims serve from the read-only tier.
    config.memoryPerServer = 256ull * kGiB;
    Fleet fleet(config);
    fleet.runTraffic(60, 0.7);

    fleet.killSubset(0b0011, fromSeconds(2.0), fromMillis(80.0));
    stepUntilState(fleet, 0, NodeState::DegradedReadOnly, fromMillis(100.0),
                   "degraded-tier");
    ASSERT_EQ(fleet.node(0).state(), NodeState::DegradedReadOnly);
    stepUntilSettled(fleet, fromMillis(100.0), 2, "degraded-tier");
    EXPECT_TRUE(noReplicaDivergence(fleet).empty());
}

TEST(FleetDigests, BackendRefillHoldsAtEveryStep)
{
    FleetConfig config;
    config.nodes = 4;
    config.replication = 3;
    config.policy = RecoveryPolicy::BackendRefill;
    config.seed = testSeed(0xd16e03);
    Fleet fleet(config);
    fleet.runTraffic(60, 0.7);

    for (const uint64_t mask : {0b0101ull, 0ull}) {
        fleet.killSubset(mask, fromSeconds(2.0), fromMillis(80.0));
        stepUntilSettled(fleet, fromMillis(250.0), 3, "backend-refill");
        EXPECT_TRUE(noReplicaDivergence(fleet).empty());
    }
}

TEST(FleetDigests, ReKilledCatchingUpVictimHolds)
{
    FleetConfig config;
    config.nodes = 5;
    config.replication = 3;
    config.seed = testSeed(0xd16e04);
    // A long stale fetch keeps the victim catching up for ~0.5 s.
    config.memoryPerServer = 256ull * kGiB;
    Fleet fleet(config);
    fleet.runTraffic(60, 0.7);

    fleet.killSubset(0b00001, fromSeconds(2.0), fromMillis(80.0));
    stepUntilState(fleet, 0, NodeState::CatchingUp, fromMillis(50.0),
                   "first recovery");
    ASSERT_EQ(fleet.node(0).state(), NodeState::CatchingUp);
    // Killed while catching up: its digests are stale from here on
    // and must be rebuilt before its next repair trusts them.
    EXPECT_EQ(fleet.killSubset(0b00001, fromSeconds(2.0), fromMillis(80.0)),
              1u);
    expectDigestsExact(fleet, "after the re-kill");
    stepUntilSettled(fleet, fromMillis(250.0), 3, "second recovery");
    EXPECT_TRUE(fleet.node(0).up());
    EXPECT_TRUE(noReplicaDivergence(fleet).empty());
}

TEST(FleetDigests, DecommissionMidRunHolds)
{
    FleetConfig config;
    config.nodes = 6;
    config.replication = 3;
    config.seed = testSeed(0xd16e05);
    config.memoryPerServer = 256ull * kGiB;
    Fleet fleet(config);
    fleet.runTraffic(80, 0.7);

    fleet.killSubset(0b000111, fromSeconds(2.0), fromMillis(80.0));
    stepChecked(fleet, fromMillis(500.0), 2, "victims dark");
    // A dark victim is lost for good...
    ASSERT_EQ(fleet.node(2).state(), NodeState::Dark);
    fleet.decommission(2);
    expectDigestsExact(fleet, "after losing a dark victim");
    // ...and then an Up node while the other victims catch up: its keys
    // move onto new masks, some of them onto the catching-up nodes.
    stepUntilState(fleet, 0, NodeState::CatchingUp, fromMillis(50.0),
                   "victims recovering");
    ASSERT_EQ(fleet.node(0).state(), NodeState::CatchingUp);
    EXPECT_GT(fleet.decommission(5).keysMoved, 0u);
    expectDigestsExact(fleet, "after losing an up node");
    stepUntilSettled(fleet, fromMillis(250.0), 3, "after the rebalances");
    EXPECT_TRUE(noReplicaDivergence(fleet).empty());

    // A later storm on the shrunk ring repairs against the new masks.
    fleet.killSubset(0b011000, fromSeconds(2.0), fromMillis(80.0));
    stepUntilSettled(fleet, fromMillis(250.0), 3, "storm after");
    EXPECT_TRUE(noReplicaDivergence(fleet).empty());
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
