/**
 * @file
 * The replicated serving fleet: N WSP nodes behind rendezvous-hashed
 * placement with replication factor R, a quorum client driver, a
 * correlated-failure fault plane, and anti-entropy repair.
 *
 * The paper's Facebook-2010 motivation (hundreds of main-memory
 * servers refilling terabytes from a shared backend for hours, vs WSP
 * nodes recovering locally in parallel) as a simulated fleet instead
 * of the closed-form apps::correlatedOutage estimate. The fleet keeps
 * both honest — its modelled recovery timeline uses the exact same
 * formulas, so the differential test can hold simulator and closed
 * form against each other — while replica *contents* are fully real:
 * every node is a WspSystem whose store lives behind a write-back
 * cache, kills are genuine mid-save power losses that leave the node's
 * chassis dark, and recovery boots that same chassis through the whole
 * restore / salvage / cold-boot machinery.
 *
 * Consistency contract (what NoReplicaDivergence asserts):
 *
 *  - A client write is acknowledged only when at least writeQuorum()
 *    replicas (a majority of the effective replication factor) are
 *    Up; it is then applied atomically to every *live* replica (Up,
 *    CatchingUp, DegradedReadOnly) and logged to the modelled
 *    backend. Otherwise it is rejected with no mutation.
 *  - Acked writes therefore survive any kill: live replicas carry
 *    them (and flush-on-fail persists them), and the backend log
 *    covers cold boots.
 *  - A node that was Dark missed updates; anti-entropy repair
 *    (per-shard digest exchange against Up peers, streaming only the
 *    divergent shards, backend as the authority of last resort when
 *    no Up peer shares a key) certifies convergence before the node
 *    re-enters Up.
 *
 * Maintained digests (incremental anti-entropy, as in Dynamo): the
 * fleet keeps, for every node, shard and replica mask that contains
 * the node, an additive digest (a hash sum plus a count) of the pairs
 * of that shard placed on that mask, and the same per shard and mask
 * for the acked history (model_). Every store write the fleet makes
 * goes through one helper that moves the digest by the difference, so
 * a live node's digests always equal a rescan of its store; rendezvous
 * placement fixes each key's mask until the ring changes, and
 * decommission rebuilds them all. Repair therefore reads no peer's
 * shard, and certifies a shard without reading it when the digests
 * agree. checkDigests() holds the invariant against a rescan.
 */

#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/backend_store.h"
#include "apps/cluster.h"
#include "fleet/node.h"
#include "fleet/rendezvous.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"

namespace wsp::fleet {

/** Everything needed to assemble and drive a fleet. */
struct FleetConfig
{
    unsigned nodes = 5;
    unsigned replication = 3;

    uint64_t seed = 0x464c454554ull; // "FLEET"

    /** Per-node store geometry. */
    unsigned shardsPerNode = 8;
    uint64_t perShardCapacity = 256;

    /** Client keys are drawn from [1, keyUniverse]. */
    uint64_t keyUniverse = 512;

    RecoveryPolicy policy = RecoveryPolicy::WspLocal;

    /** Default residual window of a kill (overridable per storm). */
    Tick killWindow = fromMillis(33.0);

    // Capacity/time plane (mirrors apps::ClusterConfig) --------------

    /** Bytes of state each node stands for on the modelled timeline.
     *  Tests keep this small; the bench uses the paper's 256 GiB. */
    uint64_t memoryPerServer = 4ull * kGiB;
    apps::BackendConfig backend;
    Tick wspBootOverhead = fromSeconds(10.0);
    double staleFraction = 0.001;

    /** Replica-to-replica anti-entropy stream bandwidth (10 GbE). */
    double antiEntropyBandwidth = 1.25e9;

    // Client-traffic model -------------------------------------------

    /** Spacing of the *sampled* requests actually executed. */
    Tick trafficSpacing = fromMillis(20.0);

    /** Mean of the exponential per-contact service time. */
    Tick serviceMean = fromMicros(200.0);

    /** Client-side timeout per dead-replica contact. */
    Tick requestTimeout = fromMillis(2.0);

    /** Capped exponential backoff between retry rounds. */
    Tick backoffBase = fromMillis(1.0);
    Tick backoffCap = fromMillis(50.0);
    unsigned maxAttempts = 6;
};

/** Client-visible outcome counters. */
struct RequestStats
{
    uint64_t requests = 0;
    uint64_t succeeded = 0;
    uint64_t failed = 0;
    uint64_t retries = 0;
    uint64_t timeouts = 0;       ///< dead-replica contacts paid for
    uint64_t degradedReads = 0;  ///< served by the read-only tier
    uint64_t rejectedWrites = 0; ///< quorum unreachable, not acked
    uint64_t ackedWrites = 0;
};

/** What one correlated outage (storm) did to the fleet. */
struct StormOutcome
{
    Tick start = 0;         ///< kill instant
    Tick powerRestored = 0; ///< victims' AC back
    Tick fullCapacityAt = 0;

    /** Last victim certified Up, measured from power restore. */
    Tick timeToFullCapacity = 0;

    unsigned victims = 0;
    unsigned wspRecoveries = 0;
    unsigned salvageBoots = 0;
    unsigned backendRefills = 0;

    /** Anti-entropy accounting. */
    uint64_t digestsExchanged = 0;
    uint64_t repairStreamedBytes = 0;
    unsigned shardsRepaired = 0;
};

/** Rendezvous-driven rebalance after a permanent node loss. */
struct RebalanceReport
{
    uint64_t keysMoved = 0;
    uint64_t bytesMoved = 0;
    Tick duration = 0; ///< modelled copy time at antiEntropyBandwidth
};

/** A replicated WSP serving fleet on one logical timeline. */
class Fleet
{
  public:
    explicit Fleet(FleetConfig config);
    ~Fleet();

    const FleetConfig &config() const { return config_; }
    Tick now() const { return now_; }

    /** Effective replication factor: min(replication, nodes). */
    unsigned replication() const { return effectiveR_; }
    /** Up replicas a write needs: a majority of replication(). */
    unsigned writeQuorum() const { return writeQuorum_; }

    /** Read-only: only the fleet writes a member node's store. */
    const FleetNode &node(uint32_t id) const { return *nodes_.at(id); }
    unsigned nodeCount() const
    {
        return static_cast<unsigned>(nodes_.size());
    }

    /** HRW replica set of @p key, best-first. */
    std::vector<uint32_t> replicaSet(uint64_t key) const
    {
        return ring_.replicaSet(key, effectiveR_);
    }

    // Client plane ---------------------------------------------------

    /** Quorum write; retries with capped backoff. False = rejected. */
    bool clientPut(uint64_t key, uint64_t value);
    bool clientErase(uint64_t key);

    /** Read from the replica set (first Up — or degraded — answer). */
    bool clientGet(uint64_t key, uint64_t *value_out = nullptr);

    /** Issue @p requests sampled client requests at trafficSpacing. */
    void runTraffic(unsigned requests, double put_fraction = 0.5);

    // Timeline -------------------------------------------------------

    /** Advance fleet time, processing due recovery events. */
    void advanceTo(Tick t);
    void advanceBy(Tick d) { advanceTo(now_ + d); }

    /** True while recovery events are pending. */
    bool recoveryPending() const { return !agenda_.empty(); }

    /** Advance past every pending recovery event (no traffic). */
    void settle();

    // Fault plane ----------------------------------------------------

    /**
     * Kill the node subset selected by @p mask (bit i = node i;
     * 0 = every node) mid-save with residual window @p window, and
     * schedule their recoveries for @p outage later under the
     * configured policy. Returns the number of victims.
     */
    unsigned killSubset(uint64_t mask, Tick outage, Tick window);

    /**
     * One full storm: kill, then run sampled client traffic
     * interleaved with the recovery timeline until every victim is
     * certified Up again.
     */
    StormOutcome runStorm(uint64_t mask, Tick outage, Tick window,
                          double put_fraction = 0.5);

    /** Permanent loss: drop the node and rebalance its keys. */
    RebalanceReport decommission(uint32_t id);

    // Checks and reporting -------------------------------------------

    /**
     * The NoReplicaDivergence core: every acked write must be present
     * (with its acked value) on every Up replica of its key, and
     * acked erases must be absent — i.e. Up replica sets agree with
     * the acknowledged history and hence with each other. Returns
     * human-readable violations; empty = converged.
     */
    std::vector<std::string> checkReplicaConvergence() const;

    /**
     * Rescan every live node's shards and the acked history, and
     * report each (node, shard) or authority shard whose maintained
     * per-mask digests differ from the rescan. Empty = the digests
     * repair trusts are exact.
     */
    std::vector<std::string> checkDigests() const;

    const RequestStats &stats() const { return stats_; }
    uint64_t ackedWrites() const { return stats_.ackedWrites; }

    /** Per-node client latency (ns) and the fleet-wide merge. */
    const Histogram &nodeLatency(uint32_t id) const
    {
        return latency_.at(id);
    }
    Histogram fleetLatency() const;

    // Modelled-time plane (shared with apps::correlatedOutage) -------

    /** The analytic cluster this fleet corresponds to. */
    apps::ClusterConfig analytic() const;

    /** Modelled WSP-local recovery (boot + restore + stale fetch). */
    Tick modeledWspRecovery(unsigned concurrent) const;

    /** Modelled full backend refill under @p concurrent streams. */
    Tick modeledRefill(unsigned concurrent) const;

  private:
    enum class EventKind : uint8_t
    {
        PowerRestored,
        RestoreDone,
        RepairDone,
    };
    struct Event
    {
        EventKind kind;
        uint32_t node;
        uint64_t epoch; ///< stale after the node is re-killed
    };
    struct RepairResult
    {
        uint64_t streamed = 0;
        unsigned shards = 0;
        uint64_t digests = 0;
        unsigned shardReads = 0; ///< shard scans of the target
    };

    /**
     * Order-independent digest of a set of (key, value) pairs — the
     * anti-entropy exchange unit: a sum of per-pair hashes plus a
     * count. Scan order (which differs between a node that wrote keys
     * in one order and a peer that replayed them in another) does not
     * matter, a write moves it by the difference, and digests of
     * disjoint sets add.
     */
    struct Digest
    {
        uint64_t sum = 0;
        uint64_t count = 0;

        static uint64_t hash(uint64_t key, uint64_t value)
        {
            uint64_t h = key * 0x9e3779b97f4a7c15ull ^ value;
            h ^= h >> 33;
            h *= 0xff51afd7ed558ccdull;
            h ^= h >> 33;
            return h;
        }
        void add(uint64_t key, uint64_t value)
        {
            sum += hash(key, value);
            ++count;
        }
        void remove(uint64_t key, uint64_t value)
        {
            sum -= hash(key, value);
            --count;
        }
        Digest &operator+=(const Digest &other)
        {
            sum += other.sum;
            count += other.count;
            return *this;
        }
        bool operator==(const Digest &) const = default;
    };
    using Pair = std::pair<uint64_t, uint64_t>;

    /** Replica set of @p key as a node mask (bit i = node i): the
     *  cached entry for a touched key, computed for any other. */
    uint64_t placementOf(uint64_t key) const;
    /** The id of @p key's replica mask (placementOf, interned). */
    uint32_t placementIdOf(uint64_t key);
    /** The id of @p mask, assigned (with zeroed digests) when new. */
    uint32_t internMask(uint64_t mask);
    /** Shard of @p key; the same on every node. */
    unsigned shardOf(uint64_t key) const
    {
        return nodes_.front()->shardOf(key);
    }

    /** Call @p fn(key, value, mask id) for every acked pair,
     *  ascending by key. */
    template <typename Fn>
    void forEachAcked(Fn &&fn) const;

    /** Digest owners: every node, then the acked history (model_). */
    uint32_t owners() const { return config_.nodes + 1; }
    uint32_t ackedOwner() const { return config_.nodes; }
    /** @p owner's digest of @p shard's pairs placed on mask @p mask_id. */
    Digest &digestOf(uint32_t owner, unsigned shard, uint32_t mask_id)
    {
        return digests_[shard][mask_id * owners() + owner];
    }
    const Digest &digestOf(uint32_t owner, unsigned shard,
                           uint32_t mask_id) const
    {
        return digests_[shard][mask_id * owners() + owner];
    }
    Tick serviceDraw();
    Tick backoff(unsigned attempt);
    void recordLatency(const std::vector<uint32_t> &replicas, Tick latency);
    void processEvent(Tick when, const Event &event);
    void trafficUntil(Tick t, double put_fraction);
    void oneRequest(double put_fraction);
    bool applyWrite(uint64_t key, uint64_t value, bool is_erase);

    /**
     * The one way the fleet changes a member's store: put (or erase)
     * @p key on @p node and move the node's digest of the key's shard
     * and mask (@p mask_id) by the difference. The replaced value is
     * read with FleetNode::get first.
     */
    void writeReplica(FleetNode &node, uint64_t key, uint64_t value,
                      bool is_erase, uint32_t mask_id);

    /**
     * Read @p node's shard @p shard once: append the pairs placed on
     * the node to @p held (when given) and, with @p recount, rebuild
     * the node's digests of the shard from them.
     */
    void readShard(const FleetNode &node, unsigned shard,
                   std::vector<Pair> *held, bool recount);

    /** Rebuild every serving node's digests and the acked history's. */
    void recountDigests();

    /**
     * Anti-entropy for @p node. With @p rescan (at RestoreDone) the
     * node's digests are first rebuilt from one read of each shard;
     * otherwise they are taken as maintained. A shard whose digests
     * agree with every Up peer's and with the acked history is
     * certified without a further read; any other is diffed against
     * the acked values and streamed.
     */
    RepairResult repairNode(FleetNode &node, bool rescan);
    Tick modeledBootAndRestore() const;
    Tick modeledStaleFetch(unsigned concurrent) const;

    FleetConfig config_;
    unsigned effectiveR_ = 1;
    unsigned writeQuorum_ = 1;
    Rng rng_;

    std::vector<std::unique_ptr<FleetNode>> nodes_;
    RendezvousHash ring_;

    /** Acked state — what the modelled backend log vouches for. */
    std::map<uint64_t, uint64_t> model_;

    /**
     * Every key an acked write or erase ever touched, with the id of
     * its replica mask under the current ring — computed once per key,
     * and again for every key when the ring changes (decommission). A
     * superset of model_'s keys.
     */
    std::map<uint64_t, uint32_t> touched_;

    /** Every replica mask placement has produced, by id. */
    std::vector<uint64_t> masks_;
    std::unordered_map<uint64_t, uint32_t> maskIds_;
    /** masksOf_[node]: ids of the masks that contain the node. */
    std::vector<std::vector<uint32_t>> masksOf_;

    /**
     * Maintained digests, one table per shard with every owner's
     * digests of one mask side by side (digestOf): a node's entry
     * covers the pairs of its shard whose replica mask is the id's
     * (only masks that contain the node are ever filled), and the
     * acked history's the same for model_. Valid for every live node
     * and for model_ (checkDigests).
     */
    std::vector<std::vector<Digest>> digests_;

    Tick now_ = 0;
    std::multimap<Tick, Event> agenda_;
    std::vector<uint64_t> epoch_;

    /** Active-storm bookkeeping (concurrency, completion). */
    struct StormState
    {
        bool active = false;
        Tick start = 0;
        Tick powerRestored = 0;
        unsigned victims = 0;
        unsigned remaining = 0;
        Tick lastReady = 0;
        unsigned wspRecoveries = 0;
        unsigned salvageBoots = 0;
        unsigned backendRefills = 0;
        uint64_t digests = 0;
        uint64_t streamed = 0;
        unsigned shardsRepaired = 0;
    } storm_;

    /** Victims of the current storm are still recovering. */
    bool stormRunning() const { return storm_.active && storm_.remaining > 0; }

    /** Counters the next killSubset() continues from: the running
     *  storm's, or all zero when it will start a new storm. */
    StormState stormBaseline() const;

    /** Outcome of the storm since @p before; ends the storm. */
    StormOutcome closeStorm(const StormState &before);

    RequestStats stats_;
    std::vector<Histogram> latency_;
    uint64_t opCounter_ = 0;
};

} // namespace wsp::fleet
