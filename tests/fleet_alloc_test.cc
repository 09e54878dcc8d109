/**
 * @file
 * Host heap allocations of one storm victim's kill and reboot.
 *
 * A fleet storm kills every node mid-save and power-cycles its chassis
 * in place; the bookkeeping around that model (statistic lookups,
 * record buffers, report copies, save verification) used to allocate
 * about 400 times per victim. This binary replaces the global operator
 * new, as bench/sim_engine does, and pins a ceiling on the allocations
 * of one warmed node's FleetNode::crash and reboot. It counts and times
 * nothing else, so the verdict is deterministic.
 * It is built only without sanitizers, whose runtimes own operator
 * new.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "fleet/fleet_sweep.h"
#include "fleet/node.h"

namespace {

/** Every global operator new call since the program started. */
std::atomic<uint64_t> gHeapAllocations{0};

uint64_t
heapAllocations()
{
    return gHeapAllocations.load(std::memory_order_relaxed);
}

} // namespace

void *
operator new(std::size_t size)
{
    gHeapAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *block = std::malloc(size == 0 ? 1 : size))
        return block;
    throw std::bad_alloc();
}

void
operator delete(void *block) noexcept
{
    std::free(block);
}

void
operator delete(void *block, std::size_t) noexcept
{
    std::free(block);
}

namespace wsp::fleet {
namespace {

// Both ceilings are the counts themselves, 40 for the kill and 20 for
// the reboot, so any allocation added to a victim's path fails here.
constexpr uint64_t kKillBudget = 40;
constexpr uint64_t kRebootBudget = 20;

TEST(FleetAllocations, WarmedStormVictimStaysWithinBudget)
{
    // Shaped like a fleet-storm victim: the sweep's node geometry and
    // kill window, a store holding a share of the key universe.
    const crashsim::CrashSchedule schedule = FleetSweep::defaultSchedule();
    const FleetConfig fleet = FleetSweep::configFor(schedule);
    FleetNodeConfig config;
    config.id = 3;
    config.seed = 0xa110c;
    config.shards = fleet.shardsPerNode;
    config.perShardCapacity = fleet.perShardCapacity;
    config.killWindow = fleet.killWindow;
    FleetNode node(config);

    std::vector<std::pair<uint64_t, uint64_t>> acked;
    for (uint64_t key = 1; key <= 64; ++key)
        acked.emplace_back(key * 7, key * 13);
    node.setRefillSource([&](unsigned shard) {
        std::vector<std::pair<uint64_t, uint64_t>> pairs;
        for (const auto &[key, value] : acked)
            if (node.shardOf(key) == shard)
                pairs.emplace_back(key, value);
        return pairs;
    });
    node.bootFresh();
    for (const auto &[key, value] : acked)
        ASSERT_TRUE(node.put(key, value));

    // One storm warms the process: statistics resolve their handles
    // on first use.
    node.crash(config.killWindow);
    ASSERT_TRUE(node.reboot().usedWsp);
    for (uint64_t key = 1; key <= 16; ++key)
        ASSERT_TRUE(node.put(key * 7, key));

    const uint64_t before_kill = heapAllocations();
    node.crash(config.killWindow);
    const uint64_t kill = heapAllocations() - before_kill;
    const uint64_t before_reboot = heapAllocations();
    const bool used_wsp = node.reboot().usedWsp;
    const uint64_t reboot = heapAllocations() - before_reboot;

    EXPECT_TRUE(used_wsp);
    EXPECT_LE(kill, kKillBudget);
    EXPECT_LE(reboot, kRebootBudget);
    RecordProperty("kill_allocations", static_cast<int>(kill));
    RecordProperty("reboot_allocations", static_cast<int>(reboot));
}

} // namespace
} // namespace wsp::fleet
