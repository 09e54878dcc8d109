/**
 * @file
 * One node of the replicated fleet: a real WspSystem + sharded KV
 * store, a lifecycle FSM, and mid-save kill / in-place power-cycle
 * machinery.
 *
 * The fleet runs two planes over each node:
 *
 *  - The *correctness plane* is fully simulated: a crashsim-sized
 *    WspSystem (2 x 4 MiB NVDIMMs, exact residual windows) holds a
 *    real ShardedKvStore behind the write-back cache. A node keeps
 *    that one chassis for its whole life, as a real server does. A
 *    kill is a genuine AC failure mid-save that leaves the chassis
 *    dark; when power returns the same chassis boots, and the boot
 *    path decides whole resume / salvage / cold boot exactly as the
 *    single-machine crash harness does. Replica agreement is checked
 *    against these real surviving bytes.
 *
 *  - The *capacity plane* is modelled: each node stands for a server
 *    with FleetConfig::memoryPerServer bytes, and recovery durations
 *    on the fleet timeline come from the same formulas as the
 *    analytic apps::correlatedOutage model, so the differential test
 *    can hold the two against each other.
 *
 * Lifecycle FSM (driven by the Fleet):
 *
 *   Up -> Saving -> Dark -> Restoring -> CatchingUp -> Up
 *                                     \-> DegradedReadOnly -> Up
 *
 * A node is *live* (receives replication writes) in Up, CatchingUp,
 * and DegradedReadOnly; it serves client reads in Up and — under the
 * degraded-tier policy — DegradedReadOnly; only Up replicas count
 * toward write quorums and act as anti-entropy sources.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "apps/kv_store.h"
#include "core/system.h"

namespace wsp::fleet {

/** Lifecycle states of a fleet node. */
enum class NodeState : uint8_t
{
    Up = 0,           ///< serving reads and writes, quorum member
    Saving,           ///< flush-on-fail running on residual energy
    Dark,             ///< power out; DIMMs hold the image
    Restoring,        ///< booting (WSP restore or backend refill)
    CatchingUp,       ///< live but syncing; no client traffic yet
    DegradedReadOnly, ///< stale tier: serves reads, awaits repair
    Decommissioned,   ///< permanent loss; keys rebalanced away
};

/** Human-readable state name. */
const char *nodeStateName(NodeState state);

/** How a killed node comes back (paper section 6 replica tradeoff). */
enum class RecoveryPolicy : uint8_t
{
    WspLocal = 0,     ///< restore from local NVDIMMs, then catch up
    BackendRefill = 1, ///< discard NVRAM, re-instantiate from backend
    DegradedTier = 2, ///< WSP restore, serve stale reads until repair
};

/** Human-readable policy name. */
const char *recoveryPolicyName(RecoveryPolicy policy);

/** Construction parameters of one node. */
struct FleetNodeConfig
{
    uint32_t id = 0;
    uint64_t seed = 0;
    unsigned shards = 8;             ///< power of two
    uint64_t perShardCapacity = 256; ///< slots per shard
    Tick killWindow = fromMillis(33.0);
};

/** One replicated-fleet node. */
class FleetNode
{
  public:
    explicit FleetNode(FleetNodeConfig config);
    ~FleetNode();

    uint32_t id() const { return config_.id; }
    NodeState state() const { return state_; }
    void setState(NodeState state) { state_ = state; }

    /** Live nodes receive replication writes. */
    bool live() const
    {
        return state_ == NodeState::Up || state_ == NodeState::CatchingUp ||
               state_ == NodeState::DegradedReadOnly;
    }

    /** Only Up nodes count toward quorums / source anti-entropy. */
    bool up() const { return state_ == NodeState::Up; }

    unsigned shards() const { return config_.shards; }

    /** The shard index of @p key (pure function; aligned fleet-wide). */
    unsigned shardOf(uint64_t key) const;

    /**
     * Commission the node: build its chassis (the only one it will
     * have), cold-start it with a fresh (empty) store, and register
     * the salvage regions and the region-recovery hook, which the
     * controller keeps across every later power cycle. State becomes
     * Up.
     */
    void bootFresh();

    /**
     * Kill the node mid-save: recalibrate the PSU to an exact
     * @p window residual window, fail the AC input, and let any
     * module still saving conclude on its ultracapacitor. The store
     * view is dropped; the chassis stays, dark, with whatever its
     * DIMMs saved. State becomes Dark.
     */
    void crash(Tick window);

    /**
     * Per-shard refill source, supplied by the fleet: the acked
     * (key, value) pairs this node must hold for shard @p shard —
     * what a real node would fetch from the backend's checkpoint+log.
     */
    using ShardSource =
        std::function<std::vector<std::pair<uint64_t, uint64_t>>(
            unsigned shard)>;
    void setRefillSource(ShardSource source)
    {
        refill_ = std::move(source);
    }

    /**
     * Power returns: boot the dark chassis through the full boot path
     * (WspSystem::bootToCompletion). Backend recovery (image unusable)
     * and per-region salvage recovery both rebuild from the refill
     * source. Returns the restore report; the caller moves the FSM
     * onward.
     */
    const RestoreReport &reboot();

    /**
     * Socket *blank* DIMMs into the dark chassis, cold-boot it and
     * rebuild everything from the refill source — the
     * re-instantiation arm of the paper's replica tradeoff
     * (BackendRefill policy discards the NVRAM image on purpose).
     */
    void rebootColdRefill();

    /** Tear the node down for good (permanent loss). */
    void decommission();

    /** True while a chassis is powered and the store is attached. */
    bool serving() const { return system_ != nullptr && store_.has_value(); }

    // Store operations (valid only while serving()) ------------------

    bool put(uint64_t key, uint64_t value);
    bool erase(uint64_t key);
    bool get(uint64_t key, uint64_t *value_out = nullptr) const;

    /**
     * Read-only view of shard @p shard's store, which anti-entropy
     * scans for digests and repair. Mutations still go through
     * put()/erase(); the view dies at the next kill.
     */
    const apps::KvStore &shardStore(unsigned shard) const;

    /** The last boot's restore report (meaningful after reboot()). */
    const RestoreReport &lastRestore() const { return lastRestore_; }

    /** Lifetime counters for the fleet's recovery bookkeeping. */
    unsigned wspRecoveries() const { return wspRecoveries_; }
    unsigned salvageBoots() const { return salvageBoots_; }
    unsigned backendRefills() const { return backendRefills_; }

  private:
    SystemConfig systemConfig() const;
    void registerRegions();
    void createStore();
    void attachOrRefill(bool force_refill);
    void rebuildShard(unsigned shard);

    FleetNodeConfig config_;
    NodeState state_ = NodeState::Dark;
    std::unique_ptr<WspSystem> system_;
    std::optional<apps::ShardedKvStore> store_;
    ShardSource refill_;
    RestoreReport lastRestore_;
    unsigned wspRecoveries_ = 0;
    unsigned salvageBoots_ = 0;
    unsigned backendRefills_ = 0;
};

} // namespace wsp::fleet
