#include "fleet/fleet.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "trace/stat_registry.h"
#include "util/logging.h"

namespace wsp::fleet {

namespace {

/** Bytes one streamed (key, value) pair stands for on the wire. */
constexpr uint64_t kPairBytes = 16;

/** Live shards a repair pass had to read. */
trace::Counter &
repairShardReadsCounter()
{
    static trace::Counter &counter =
        trace::StatRegistry::instance().counter("fleet.repair_shard_reads");
    return counter;
}

} // namespace

Fleet::Fleet(FleetConfig config)
    : config_(config), rng_(config.seed)
{
    WSP_CHECKF(config_.nodes >= 1 && config_.nodes <= 64,
               "fleet size must be 1..64 (kill masks are 64-bit)");
    effectiveR_ = std::max(1u, std::min(config_.replication, config_.nodes));
    writeQuorum_ = effectiveR_ / 2 + 1;

    for (uint32_t id = 0; id < config_.nodes; ++id) {
        FleetNodeConfig node_config;
        node_config.id = id;
        node_config.seed = Rng(config_.seed).stream(id + 1)();
        node_config.shards = config_.shardsPerNode;
        node_config.perShardCapacity = config_.perShardCapacity;
        node_config.killWindow = config_.killWindow;
        auto node = std::make_unique<FleetNode>(node_config);
        node->setRefillSource([this, id](unsigned shard) {
            // The backend's checkpoint+log view of this node: every
            // acked pair that hashes to the shard and whose replica
            // set (under the *current* ring) includes the node.
            std::vector<std::pair<uint64_t, uint64_t>> pairs;
            for (const auto &[key, value] : model_)
                if (nodes_[id]->shardOf(key) == shard &&
                    ((placementOf(key) >> id) & 1))
                    pairs.emplace_back(key, value);
            return pairs;
        });
        node->bootFresh();
        nodes_.push_back(std::move(node));
        ring_.addNode(id);
        latency_.emplace_back();
        epoch_.push_back(0);
    }
    masksOf_.resize(config_.nodes);
    digests_.resize(config_.shardsPerNode);
}

Fleet::~Fleet() = default;

uint64_t
Fleet::placementOf(uint64_t key) const
{
    const auto it = touched_.find(key);
    return it != touched_.end() ? masks_[it->second]
                                : ring_.replicaMask(key, effectiveR_);
}

uint32_t
Fleet::placementIdOf(uint64_t key)
{
    const auto it = touched_.find(key);
    return it != touched_.end()
               ? it->second
               : internMask(ring_.replicaMask(key, effectiveR_));
}

template <typename Fn>
void
Fleet::forEachAcked(Fn &&fn) const
{
    // touched_ holds every model_ key in the same order, so it walks
    // alongside with the masks.
    auto placed = touched_.begin();
    for (const auto &[key, value] : model_) {
        while (placed != touched_.end() && placed->first < key)
            ++placed;
        WSP_CHECK(placed != touched_.end() && placed->first == key);
        fn(key, value, placed->second);
    }
}

uint32_t
Fleet::internMask(uint64_t mask)
{
    const auto [it, added] =
        maskIds_.try_emplace(mask, static_cast<uint32_t>(masks_.size()));
    if (!added)
        return it->second;
    masks_.push_back(mask);
    for (uint64_t owners = mask; owners != 0; owners &= owners - 1)
        masksOf_[std::countr_zero(owners)].push_back(it->second);
    for (std::vector<Digest> &digests : digests_)
        digests.resize(masks_.size() * owners());
    return it->second;
}

Tick
Fleet::serviceDraw()
{
    // Exponential service time around the configured mean.
    double u = rng_.uniform();
    while (u >= 1.0)
        u = rng_.uniform();
    return std::max<Tick>(
        1, fromSeconds(-toSeconds(config_.serviceMean) *
                       std::log(1.0 - u)));
}

Tick
Fleet::backoff(unsigned attempt)
{
    // Capped exponential backoff with +/-50% jitter so a storm's
    // retries do not re-synchronize into a thundering herd.
    Tick base = config_.backoffBase;
    for (unsigned i = 0; i < attempt && base < config_.backoffCap; ++i)
        base *= 2;
    base = std::min(base, config_.backoffCap);
    return base / 2 + rng_.next(base / 2 + 1);
}

void
Fleet::recordLatency(const std::vector<uint32_t> &replicas, Tick latency)
{
    // Attribute to the key's primary (the head of its replica set) so
    // per-node histograms show which owners ran hot; the fleet-wide
    // view is their merge.
    if (replicas.empty())
        return;
    latency_[replicas.front()].add(latency);
}

// Client plane -------------------------------------------------------

bool
Fleet::applyWrite(uint64_t key, uint64_t value, bool is_erase)
{
    WSP_CHECKF(key != 0, "key 0 is reserved by the store");
    ++stats_.requests;
    const auto replicas = ring_.replicaSet(key, effectiveR_);
    Tick latency = 0;
    const Tick start = now_;

    for (unsigned attempt = 0; attempt < config_.maxAttempts; ++attempt) {
        unsigned up = 0;
        for (uint32_t id : replicas)
            up += nodes_[id]->up() ? 1 : 0;

        if (up >= writeQuorum_) {
            // Fan out to the Up quorum in parallel; the ack waits for
            // the slowest member.
            Tick round = 0;
            for (uint32_t id : replicas)
                if (nodes_[id]->up())
                    round = std::max(round, serviceDraw());
            latency += round;
            const auto [placed, first] = touched_.try_emplace(key, 0);
            if (first)
                placed->second =
                    internMask(ring_.replicaMask(key, effectiveR_));
            const uint32_t mask_id = placed->second;
            // Apply to *every* live replica (catching-up and degraded
            // nodes included) so live replicas never diverge and
            // repair only has to cover each node's dark window.
            for (uint32_t id : replicas) {
                if (!nodes_[id]->live() || !nodes_[id]->serving())
                    continue;
                writeReplica(*nodes_[id], key, value, is_erase, mask_id);
            }
            Digest &acked = digestOf(ackedOwner(), shardOf(key), mask_id);
            if (is_erase) {
                const auto it = model_.find(key);
                if (it != model_.end()) {
                    acked.remove(key, it->second);
                    model_.erase(it);
                }
            } else {
                const auto [it, inserted] = model_.try_emplace(key, value);
                if (!inserted) {
                    acked.remove(key, it->second);
                    it->second = value;
                }
                acked.add(key, value);
            }
            ++stats_.succeeded;
            ++stats_.ackedWrites;
            recordLatency(replicas, latency);
            return true;
        }

        // Quorum unreachable: the client burns its timeout on the
        // dead majority, backs off, and retries — recoveries may
        // complete while it waits.
        latency += config_.requestTimeout + backoff(attempt);
        ++stats_.timeouts;
        ++stats_.retries;
        advanceTo(start + latency);
    }

    ++stats_.failed;
    ++stats_.rejectedWrites;
    recordLatency(replicas, latency);
    return false;
}

bool
Fleet::clientPut(uint64_t key, uint64_t value)
{
    return applyWrite(key, value, false);
}

bool
Fleet::clientErase(uint64_t key)
{
    return applyWrite(key, 0, true);
}

bool
Fleet::clientGet(uint64_t key, uint64_t *value_out)
{
    WSP_CHECKF(key != 0, "key 0 is reserved by the store");
    ++stats_.requests;
    const auto replicas = ring_.replicaSet(key, effectiveR_);
    Tick latency = 0;
    const Tick start = now_;

    for (unsigned attempt = 0; attempt < config_.maxAttempts; ++attempt) {
        for (uint32_t id : replicas) {
            FleetNode &node = *nodes_[id];
            const bool degraded_ok =
                config_.policy == RecoveryPolicy::DegradedTier &&
                node.state() == NodeState::DegradedReadOnly &&
                node.serving();
            if (node.up() || degraded_ok) {
                latency += serviceDraw();
                if (degraded_ok)
                    ++stats_.degradedReads;
                ++stats_.succeeded;
                recordLatency(replicas, latency);
                const bool found = node.get(key, value_out);
                return found;
            }
            // Dead or syncing replica: pay the contact timeout and
            // fall through to the next member of the set.
            latency += config_.requestTimeout;
            ++stats_.timeouts;
        }
        latency += backoff(attempt);
        ++stats_.retries;
        advanceTo(start + latency);
    }

    ++stats_.failed;
    recordLatency(replicas, latency);
    return false;
}

void
Fleet::oneRequest(double put_fraction)
{
    const uint64_t key = rng_.next(config_.keyUniverse) + 1;
    const double draw = rng_.uniform();
    if (draw < put_fraction) {
        clientPut(key, ++opCounter_);
    } else if (draw < put_fraction + (1.0 - put_fraction) * 0.8) {
        clientGet(key);
    } else {
        clientErase(key);
    }
}

void
Fleet::trafficUntil(Tick t, double put_fraction)
{
    while (now_ + config_.trafficSpacing <= t) {
        now_ += config_.trafficSpacing;
        oneRequest(put_fraction);
    }
}

void
Fleet::runTraffic(unsigned requests, double put_fraction)
{
    for (unsigned i = 0; i < requests; ++i) {
        now_ += config_.trafficSpacing;
        // Process any recovery event the spacing stepped over.
        advanceTo(now_);
        oneRequest(put_fraction);
    }
}

// Timeline -----------------------------------------------------------

void
Fleet::advanceTo(Tick t)
{
    while (!agenda_.empty() && agenda_.begin()->first <= t) {
        const auto it = agenda_.begin();
        const Tick when = it->first;
        const Event event = it->second;
        agenda_.erase(it);
        now_ = std::max(now_, when);
        processEvent(when, event);
    }
    now_ = std::max(now_, t);
}

void
Fleet::settle()
{
    while (!agenda_.empty())
        advanceTo(agenda_.begin()->first);
}

// Modelled-time plane ------------------------------------------------

apps::ClusterConfig
Fleet::analytic() const
{
    apps::ClusterConfig cluster;
    cluster.servers = config_.nodes;
    cluster.memoryPerServer = config_.memoryPerServer;
    cluster.backend = config_.backend;
    cluster.nvdimm.capacityBytes = config_.memoryPerServer;
    cluster.nvdimm.flashChannels = 0; // auto: one per GiB
    cluster.wspBootOverhead = config_.wspBootOverhead;
    cluster.staleFraction = config_.staleFraction;
    return cluster;
}

Tick
Fleet::modeledBootAndRestore() const
{
    // Same module math as apps::correlatedOutage: flash restore runs
    // one channel per GiB in parallel.
    const apps::ClusterConfig cluster = analytic();
    NvdimmConfig module = cluster.nvdimm;
    module.capacityBytes = std::max<uint64_t>(module.capacityBytes, 1);
    const double restore_bw =
        module.channelRestoreBw *
        std::max(1u, module.flashChannels == 0
                         ? static_cast<unsigned>(
                               (module.capacityBytes + kGiB - 1) / kGiB)
                         : module.flashChannels);
    return config_.wspBootOverhead +
           fromSeconds(static_cast<double>(module.capacityBytes) /
                       restore_bw);
}

Tick
Fleet::modeledStaleFetch(unsigned concurrent) const
{
    apps::BackendStore backend(config_.backend);
    return backend.recoveryTime(
        static_cast<uint64_t>(config_.staleFraction *
                              static_cast<double>(config_.memoryPerServer)),
        std::max(1u, concurrent));
}

Tick
Fleet::modeledWspRecovery(unsigned concurrent) const
{
    return modeledBootAndRestore() + modeledStaleFetch(concurrent);
}

Tick
Fleet::modeledRefill(unsigned concurrent) const
{
    apps::BackendStore backend(config_.backend);
    return backend.recoveryTime(config_.memoryPerServer,
                                std::max(1u, concurrent));
}

// Fault plane --------------------------------------------------------

unsigned
Fleet::killSubset(uint64_t mask, Tick outage, Tick window)
{
    if (config_.nodes < 64)
        mask &= (1ull << config_.nodes) - 1;
    if (mask == 0)
        mask = config_.nodes < 64 ? (1ull << config_.nodes) - 1 : ~0ull;

    // A victim still recovering from the running storm (Restoring,
    // CatchingUp, DegradedReadOnly) is already counted as remaining:
    // the epoch bump below cancels the RepairDone that would have
    // retired that count, and the re-kill's own recovery retires it
    // instead. Counting it again would keep the storm running forever.
    const bool joining = stormRunning();
    std::vector<uint32_t> victims;
    unsigned newly_recovering = 0;
    for (uint32_t id = 0; id < config_.nodes; ++id) {
        if (!(mask & (1ull << id)))
            continue;
        FleetNode &node = *nodes_[id];
        if (node.serving()) {
            victims.push_back(id);
            if (!joining || node.up())
                ++newly_recovering;
        } else if (node.state() == NodeState::Dark) {
            // Already dark: power stays out longer. Its pending
            // PowerRestored event is superseded.
            ++epoch_[id];
            agenda_.insert(
                {now_ + outage,
                 Event{EventKind::PowerRestored, id, epoch_[id]}});
        }
    }

    if (!joining) {
        storm_ = StormState{};
        storm_.active = true;
        storm_.start = now_;
    }
    storm_.powerRestored = now_ + outage;
    storm_.victims += static_cast<unsigned>(victims.size());
    storm_.remaining += newly_recovering;

    for (uint32_t id : victims) {
        nodes_[id]->crash(window);
        ++epoch_[id]; // stale recovery events for this node die here
        agenda_.insert({now_ + outage,
                        Event{EventKind::PowerRestored, id, epoch_[id]}});
    }
    return static_cast<unsigned>(victims.size());
}

void
Fleet::processEvent(Tick when, const Event &event)
{
    FleetNode &node = *nodes_[event.node];
    if (event.epoch != epoch_[event.node])
        return; // the node was re-killed; this timeline is dead

    switch (event.kind) {
      case EventKind::PowerRestored: {
        if (node.state() != NodeState::Dark)
            return;
        const unsigned concurrent = std::max(1u, storm_.remaining);
        Tick duration = 0;
        if (config_.policy == RecoveryPolicy::BackendRefill) {
            node.rebootColdRefill();
            duration = modeledRefill(concurrent);
            ++storm_.backendRefills;
        } else {
            const RestoreReport &report = node.reboot();
            if (report.usedWsp) {
                duration = modeledBootAndRestore();
                ++storm_.wspRecoveries;
            } else if (report.salvageMode) {
                // Intact regions restored locally; the quarantined
                // fraction of the modelled memory refills from the
                // backend alongside the other victims.
                const double quarantined =
                    report.regions.empty()
                        ? 0.0
                        : static_cast<double>(report.regionsQuarantined) /
                              static_cast<double>(report.regions.size());
                apps::BackendStore backend(config_.backend);
                duration =
                    modeledBootAndRestore() +
                    backend.recoveryTime(
                        static_cast<uint64_t>(
                            quarantined *
                            static_cast<double>(config_.memoryPerServer)),
                        concurrent);
                ++storm_.salvageBoots;
            } else {
                duration = modeledRefill(concurrent);
                ++storm_.backendRefills;
            }
        }
        agenda_.insert(
            {when + duration,
             Event{EventKind::RestoreDone, event.node, event.epoch}});
        break;
      }

      case EventKind::RestoreDone: {
        if (node.state() != NodeState::Restoring)
            return;
        // The node rejoins the replication stream now; anti-entropy
        // covers the window it was dark.
        const RepairResult repair = repairNode(node, /*rescan=*/true);
        storm_.digests += repair.digests;
        storm_.streamed += repair.streamed;
        storm_.shardsRepaired += repair.shards;
        static trace::Counter &streamed_bytes =
            trace::StatRegistry::instance().counter(
                "fleet.repair_streamed_bytes");
        streamed_bytes.add(repair.streamed);
        repairShardReadsCounter().add(repair.shardReads);

        Tick duration =
            fromSeconds(static_cast<double>(repair.streamed) /
                        config_.antiEntropyBandwidth);
        const bool wsp_path =
            config_.policy != RecoveryPolicy::BackendRefill &&
            (node.lastRestore().usedWsp || node.lastRestore().salvageMode);
        if (wsp_path)
            duration += modeledStaleFetch(std::max(1u, storm_.remaining));

        if (config_.policy == RecoveryPolicy::DegradedTier && wsp_path) {
            node.setState(NodeState::DegradedReadOnly);
            static trace::Counter &degraded_entries =
                trace::StatRegistry::instance().counter(
                    "fleet.degraded_entries");
            degraded_entries.add();
        } else {
            node.setState(NodeState::CatchingUp);
        }
        agenda_.insert(
            {when + std::max<Tick>(duration, 1),
             Event{EventKind::RepairDone, event.node, event.epoch}});
        break;
      }

      case EventKind::RepairDone: {
        if (node.state() != NodeState::CatchingUp &&
            node.state() != NodeState::DegradedReadOnly)
            return;
        // Certification pass: the node took live writes while it
        // caught up, so this final delta is normally empty.
        const RepairResult repair = repairNode(node, /*rescan=*/false);
        storm_.digests += repair.digests;
        storm_.streamed += repair.streamed;
        storm_.shardsRepaired += repair.shards;
        repairShardReadsCounter().add(repair.shardReads);
        node.setState(NodeState::Up);
        if (storm_.remaining > 0)
            --storm_.remaining;
        storm_.lastReady = std::max(storm_.lastReady, when);
        static trace::Counter &certified =
            trace::StatRegistry::instance().counter(
                "fleet.repairs_certified");
        certified.add();
        break;
      }
    }
}

Fleet::StormState
Fleet::stormBaseline() const
{
    // killSubset() joins a running storm but restarts the counters of
    // a finished one, so only a running storm's totals are the base.
    return stormRunning() ? storm_ : StormState{};
}

StormOutcome
Fleet::closeStorm(const StormState &before)
{
    StormOutcome outcome;
    outcome.start = storm_.start;
    outcome.powerRestored = storm_.powerRestored;
    outcome.fullCapacityAt = storm_.lastReady;
    outcome.timeToFullCapacity =
        storm_.lastReady > storm_.powerRestored
            ? storm_.lastReady - storm_.powerRestored
            : 0;
    outcome.victims = storm_.victims - before.victims;
    outcome.wspRecoveries = storm_.wspRecoveries - before.wspRecoveries;
    outcome.salvageBoots = storm_.salvageBoots - before.salvageBoots;
    outcome.backendRefills =
        storm_.backendRefills - before.backendRefills;
    outcome.digestsExchanged = storm_.digests - before.digests;
    outcome.repairStreamedBytes = storm_.streamed - before.streamed;
    outcome.shardsRepaired =
        storm_.shardsRepaired - before.shardsRepaired;
    storm_.active = false;
    return outcome;
}

StormOutcome
Fleet::runStorm(uint64_t mask, Tick outage, Tick window,
                double put_fraction)
{
    const StormState before = stormBaseline();
    killSubset(mask, outage, window);

    // Drive sampled client traffic between recovery events until the
    // fleet is whole again.
    while (!agenda_.empty()) {
        const Tick next = agenda_.begin()->first;
        trafficUntil(next, put_fraction);
        advanceTo(next);
    }
    return closeStorm(before);
}

// Anti-entropy -------------------------------------------------------

void
Fleet::writeReplica(FleetNode &node, uint64_t key, uint64_t value,
                    bool is_erase, uint32_t mask_id)
{
    uint64_t replaced = 0;
    const bool held = node.get(key, &replaced);
    Digest &digest = digestOf(node.id(), shardOf(key), mask_id);
    if (is_erase) {
        if (held && node.erase(key))
            digest.remove(key, replaced);
        return;
    }
    if (!node.put(key, value))
        return; // shard full: nothing changed
    if (held)
        digest.remove(key, replaced);
    digest.add(key, value);
}

void
Fleet::readShard(const FleetNode &node, unsigned shard,
                 std::vector<Pair> *held, bool recount)
{
    const uint64_t node_bit = 1ull << node.id();
    if (recount)
        for (uint32_t mask_id : masksOf_[node.id()])
            digestOf(node.id(), shard, mask_id) = Digest{};
    node.shardStore(shard).forEach([&](uint64_t key, uint64_t value) {
        const uint32_t mask_id = placementIdOf(key);
        if (!(masks_[mask_id] & node_bit))
            return;
        if (held != nullptr)
            held->emplace_back(key, value);
        if (recount)
            digestOf(node.id(), shard, mask_id).add(key, value);
    });
}

void
Fleet::recountDigests()
{
    for (const auto &node : nodes_)
        if (node->serving())
            for (unsigned shard = 0; shard < node->shards(); ++shard)
                readShard(*node, shard, nullptr, true);
    for (unsigned shard = 0; shard < digests_.size(); ++shard)
        for (uint32_t mask_id = 0; mask_id < masks_.size(); ++mask_id)
            digestOf(ackedOwner(), shard, mask_id) = Digest{};
    forEachAcked([&](uint64_t key, uint64_t value, uint32_t mask_id) {
        digestOf(ackedOwner(), shardOf(key), mask_id).add(key, value);
    });
}

Fleet::RepairResult
Fleet::repairNode(FleetNode &target, bool rescan)
{
    RepairResult result;
    if (!target.serving())
        return result;
    const uint32_t target_id = target.id();
    const uint64_t target_bit = 1ull << target_id;

    std::vector<uint32_t> peers;
    for (const auto &peer : nodes_)
        if (peer->id() != target_id && peer->up() && peer->serving())
            peers.push_back(peer->id());

    // Authority for the target's keys, split by shard in one pass and
    // built only when a shard disagrees: the acked values (the backend
    // log), ascending by key. Up peers carry exactly the acked history
    // for their keys (live replicas never diverge), so peer coverage
    // only decides who the bytes stream from, not what they are.
    std::vector<std::vector<Pair>> authority;
    const auto buildAuthority = [&]() {
        authority.resize(target.shards());
        forEachAcked([&](uint64_t key, uint64_t value, uint32_t mask_id) {
            if (masks_[mask_id] & target_bit)
                authority[shardOf(key)].emplace_back(key, value);
        });
    };

    std::vector<Pair> held;
    std::vector<Digest> mine(nodes_.size());
    std::vector<Digest> theirs(nodes_.size());
    for (unsigned shard = 0; shard < target.shards(); ++shard) {
        held.clear();
        if (rescan) {
            readShard(target, shard, &held, true);
            ++result.shardReads;
        }

        // Digest exchange: compare the target against every Up peer
        // over the masks both are on, and against the acked history
        // over the target's masks. Every side is maintained, so no
        // shard is read here; if all agree, the shard streams nothing.
        std::fill(mine.begin(), mine.end(), Digest{});
        std::fill(theirs.begin(), theirs.end(), Digest{});
        Digest own;
        Digest acked;
        for (uint32_t mask_id : masksOf_[target_id]) {
            // Every owner's digest of this mask, side by side.
            const Digest *row = &digestOf(0, shard, mask_id);
            own += row[target_id];
            acked += row[ackedOwner()];
            for (uint64_t others = masks_[mask_id] & ~target_bit;
                 others != 0; others &= others - 1) {
                const unsigned peer = std::countr_zero(others);
                mine[peer] += row[target_id];
                theirs[peer] += row[peer];
            }
        }
        bool agree = own == acked;
        for (uint32_t peer : peers) {
            ++result.digests;
            agree = agree && mine[peer] == theirs[peer];
        }
        if (agree)
            continue; // peers matched and so did the backend

        // The target's current pairs by key; a key found twice keeps
        // its first slot in scan order.
        if (!rescan) {
            readShard(target, shard, &held, false);
            ++result.shardReads;
        }
        if (authority.empty())
            buildAuthority();
        std::stable_sort(held.begin(), held.end(),
                         [](const Pair &a, const Pair &b) {
                             return a.first < b.first;
                         });
        held.erase(std::unique(held.begin(), held.end(),
                               [](const Pair &a, const Pair &b) {
                                   return a.first == b.first;
                               }),
                   held.end());
        const auto &want = authority[shard];

        // Stream only this shard's missed updates: puts in ascending
        // key order, then erases in ascending key order (slot
        // placement depends on insertion order).
        uint64_t shard_streamed = 0;
        auto have = held.begin();
        for (const auto &[key, value] : want) {
            while (have != held.end() && have->first < key)
                ++have;
            if (have == held.end() || have->first != key ||
                have->second != value) {
                writeReplica(target, key, value, false, placementIdOf(key));
                shard_streamed += kPairBytes;
            }
        }
        auto acked_pair = want.begin();
        for (const auto &[key, value] : held) {
            while (acked_pair != want.end() && acked_pair->first < key)
                ++acked_pair;
            if (acked_pair == want.end() || acked_pair->first != key) {
                writeReplica(target, key, 0, true, placementIdOf(key));
                shard_streamed += kPairBytes;
            }
        }
        if (shard_streamed > 0) {
            result.streamed += shard_streamed;
            ++result.shards;
        }
    }
    return result;
}

// Rebalance ----------------------------------------------------------

RebalanceReport
Fleet::decommission(uint32_t id)
{
    RebalanceReport report;
    WSP_CHECK(id < nodes_.size());
    WSP_CHECKF(ring_.contains(id), "node %u already decommissioned", id);

    // A victim still recovering leaves its storm here: the epoch bump
    // below cancels the events that would have certified it Up.
    if (stormRunning() && nodes_[id]->state() != NodeState::Up) {
        --storm_.remaining;
        if (storm_.remaining == 0)
            storm_.active = false;
    }

    ring_.removeNode(id);
    ++epoch_[id]; // cancel any in-flight recovery of the lost node
    nodes_[id]->decommission();

    // Rendezvous rebalance: only keys that listed the lost node gain
    // a (single) new replica; every other set is untouched. touched_
    // still holds the old sets; each key's new one replaces it here.
    const uint64_t lost = 1ull << id;
    for (auto &[key, placement] : touched_) {
        const uint64_t old_owners = masks_[placement];
        const uint64_t owners = ring_.replicaMask(key, effectiveR_);
        placement = internMask(owners);
        if (!(old_owners & lost))
            continue;
        const auto acked = model_.find(key);
        if (acked == model_.end())
            continue; // erased: nothing to push
        for (uint64_t gained = owners & ~old_owners; gained != 0;
             gained &= gained - 1) {
            FleetNode &node = *nodes_[std::countr_zero(gained)];
            if (node.live() && node.serving())
                writeReplica(node, key, acked->second, false, placement);
            ++report.keysMoved;
        }
    }
    // Keys changed masks, so every maintained digest is recounted.
    recountDigests();
    report.bytesMoved = report.keysMoved * kPairBytes;
    report.duration = fromSeconds(static_cast<double>(report.bytesMoved) /
                                  config_.antiEntropyBandwidth);
    return report;
}

// Checks -------------------------------------------------------------

std::vector<std::string>
Fleet::checkReplicaConvergence() const
{
    std::vector<std::string> violations;
    for (const auto &entry : touched_) {
        const uint64_t key = entry.first;
        const auto expected = model_.find(key);
        const bool should_exist = expected != model_.end();
        // The replica set comes from the ring again, not from the mask
        // id touched_ keeps for the key, so a wrong id cannot hide.
        for (uint64_t owners = ring_.replicaMask(key, effectiveR_);
             owners != 0; owners &= owners - 1) {
            const auto id = static_cast<uint32_t>(std::countr_zero(owners));
            const FleetNode &node = *nodes_[id];
            if (!node.up() || !node.serving())
                continue;
            uint64_t value = 0;
            const bool found = node.get(key, &value);
            if (found != should_exist) {
                violations.push_back(
                    "key " + std::to_string(key) + " node " +
                    std::to_string(id) +
                    (should_exist ? ": acked write lost"
                                  : ": acked erase resurfaced"));
            } else if (found && value != expected->second) {
                violations.push_back(
                    "key " + std::to_string(key) + " node " +
                    std::to_string(id) + ": stale value " +
                    std::to_string(value) + " != acked " +
                    std::to_string(expected->second));
            }
        }
    }
    return violations;
}

std::vector<std::string>
Fleet::checkDigests() const
{
    std::vector<std::string> violations;
    // The rescan tallies pairs by the id of their placement mask, in
    // flat tables indexed like the maintained ones. The extra last
    // slot collects pairs whose placement no interned mask names: no
    // maintained digest can hold those.
    const auto unnamed = static_cast<uint32_t>(masks_.size());
    const auto tallyInto = [&](Digest *tally, uint64_t key, uint64_t value,
                               uint64_t owner_bit) {
        const uint64_t mask = placementOf(key);
        if (!(mask & owner_bit))
            return;
        const auto known = maskIds_.find(mask);
        const uint32_t id = known != maskIds_.end() ? known->second : unnamed;
        tally[id].add(key, value);
    };
    // Every maintained digest must equal the rescan's, mask by mask.
    const auto matches = [&](const Digest *tally, uint32_t owner,
                             unsigned shard) {
        for (uint32_t id = 0; id < unnamed; ++id)
            if (tally[id] != digestOf(owner, shard, id))
                return false;
        return tally[unnamed] == Digest{};
    };

    std::vector<Digest> tally(unnamed + 1);
    for (const auto &node : nodes_) {
        if (!node->live() || !node->serving())
            continue;
        const uint64_t node_bit = 1ull << node->id();
        for (unsigned shard = 0; shard < node->shards(); ++shard) {
            std::fill(tally.begin(), tally.end(), Digest{});
            node->shardStore(shard).forEach(
                [&](uint64_t key, uint64_t value) {
                    tallyInto(tally.data(), key, value, node_bit);
                });
            if (!matches(tally.data(), node->id(), shard))
                violations.push_back(
                    "node " + std::to_string(node->id()) + " shard " +
                    std::to_string(shard) +
                    ": maintained digests differ from a rescan");
        }
    }

    std::vector<Digest> acked(digests_.size() * (unnamed + 1));
    for (const auto &[key, value] : model_)
        tallyInto(&acked[shardOf(key) * (unnamed + 1)], key, value, ~0ull);
    for (unsigned shard = 0; shard < digests_.size(); ++shard)
        if (!matches(&acked[shard * (unnamed + 1)], ackedOwner(), shard))
            violations.push_back("acked history shard " +
                                 std::to_string(shard) +
                                 ": maintained digests differ from a rescan");
    return violations;
}

Histogram
Fleet::fleetLatency() const
{
    Histogram merged;
    for (const Histogram &h : latency_)
        merged.merge(h);
    return merged;
}

} // namespace wsp::fleet
