#include "fleet/node.h"

#include <cstdio>

#include "core/failure_injector.h"
#include "core/salvage_directory.h"
#include "nvram/sparse_memory.h"
#include "trace/stat_registry.h"
#include "util/logging.h"

namespace wsp::fleet {

namespace {

/** NVRAM base of the node's store (below everything reserved). */
constexpr uint64_t kStoreBase = 0;

/** Boots whose store came back from the refill source. */
trace::Counter &
backendRefillCounter()
{
    static trace::Counter &counter =
        trace::StatRegistry::instance().counter("fleet.backend_refills");
    return counter;
}

} // namespace

const char *
nodeStateName(NodeState state)
{
    switch (state) {
      case NodeState::Up:
        return "up";
      case NodeState::Saving:
        return "saving";
      case NodeState::Dark:
        return "dark";
      case NodeState::Restoring:
        return "restoring";
      case NodeState::CatchingUp:
        return "catching-up";
      case NodeState::DegradedReadOnly:
        return "degraded-read-only";
      case NodeState::Decommissioned:
        return "decommissioned";
    }
    return "?";
}

const char *
recoveryPolicyName(RecoveryPolicy policy)
{
    switch (policy) {
      case RecoveryPolicy::WspLocal:
        return "wsp-local";
      case RecoveryPolicy::BackendRefill:
        return "backend-refill";
      case RecoveryPolicy::DegradedTier:
        return "degraded-tier";
    }
    return "?";
}

FleetNode::FleetNode(FleetNodeConfig config) : config_(config)
{
    WSP_CHECKF(config_.shards >= 1 &&
                   (config_.shards & (config_.shards - 1)) == 0,
               "fleet node shard count must be a power of two");
}

FleetNode::~FleetNode() = default;

unsigned
FleetNode::shardOf(uint64_t key) const
{
    // The store's own mapping, available while the node is dark, so
    // shard indices align across nodes and with the region names.
    return apps::ShardedKvStore::shardOf(key, config_.shards);
}

SystemConfig
FleetNode::systemConfig() const
{
    // Crashsim-sized chassis: small modules so kill/capture/boot
    // cycles stay fast, exact jitter-free residual windows so a storm
    // lands every victim at a chosen instant of its save pipeline.
    SystemConfig config;
    config.seed = config_.seed;
    config.nvdimmCount = 2;
    config.nvdimm.capacityBytes = 4 * kMiB;
    config.nvdimm.flashChannels = 1;
    config.nvdimm.verifySaves = true;
    config.devices.clear();
    config.wsp.firmwareBootLatency = fromMillis(50.0);
    config.wsp.osResumeLatency = fromMillis(1.0);
    config.wsp.hostStackBootLatency = fromMillis(50.0);
    // Nodes run no black box: a ring would dirty NVRAM pages that
    // every incremental save then programs.
    config.wsp.flightRecorder = false;
    return FailureInjector::withExactWindow(std::move(config),
                                            config_.killWindow);
}

void
FleetNode::registerRegions()
{
    const uint64_t stride =
        apps::ShardedKvStore::shardStride(config_.perShardCapacity);
    for (unsigned i = 0; i < config_.shards; ++i) {
        const uint64_t shard_base = kStoreBase + i * stride;
        char name[SalvageDirectory::kMaxNameBytes + 1];
        std::snprintf(name, sizeof(name), "kv%u.meta", i);
        system_->registerSalvageRegion(SalvageRegionSpec{
            name, shard_base, apps::KvStore::kHeaderBytes,
            SaveTier::Metadata});
        std::snprintf(name, sizeof(name), "kv%u.data", i);
        system_->registerSalvageRegion(SalvageRegionSpec{
            name, shard_base + apps::KvStore::kHeaderBytes,
            config_.perShardCapacity * apps::KvStore::kSlotBytes,
            SaveTier::Bulk});
    }
}

void
FleetNode::createStore()
{
    std::vector<CacheModel *> caches(config_.shards, &system_->cache());
    store_.emplace(std::span<CacheModel *const>(caches), kStoreBase,
                   config_.perShardCapacity);
}

void
FleetNode::bootFresh()
{
    system_ = std::make_unique<WspSystem>(systemConfig());
    // Region salvage: a quarantined shard is rebuilt from the refill
    // source while intact siblings keep their surviving bytes.
    system_->setRegionRecovery([this](const RegionOutcome &region) {
        unsigned shard = 0;
        if (std::sscanf(region.name.c_str(), "kv%u.", &shard) == 1 &&
            shard < config_.shards)
            rebuildShard(shard);
    });
    system_->start();
    createStore();
    registerRegions();
    state_ = NodeState::Up;
}

void
FleetNode::crash(Tick window)
{
    WSP_CHECKF(serving(), "node %u crashed while not serving",
               config_.id);
    state_ = NodeState::Saving;
    // Land the hard loss exactly `window` after the (zero-delay)
    // PWR_OK drop of *this* kill, whatever the construction-time
    // window was.
    system_->psu().setResidualWindows(std::max<Tick>(window, 1),
                                      std::max<Tick>(window, 1), 0);
    system_->psu().failInputNow();
    system_->runFor(window + fromMillis(10.0));
    // A module still mid-save runs on its own ultracapacitor; let it
    // conclude (finish or exhaust) before the chassis sits dark.
    unsigned guard = 0;
    while (!system_->nvdimms().allIdle() && guard++ < 1000)
        system_->runFor(fromMillis(10.0));
    WSP_CHECKF(system_->nvdimms().allIdle(),
               "node %u NVDIMMs never settled after the kill",
               config_.id);
    store_.reset();
    state_ = NodeState::Dark;
    static trace::Counter &kills =
        trace::StatRegistry::instance().counter("fleet.kills");
    kills.add();
}

void
FleetNode::rebuildShard(unsigned shard)
{
    WSP_CHECK(refill_ != nullptr);
    // Reformat exactly this shard and replay its keys; sibling shards
    // (whose headers may themselves be casualties mid-restore) are
    // not touched.
    const uint64_t stride =
        apps::ShardedKvStore::shardStride(config_.perShardCapacity);
    apps::KvStore fresh(system_->cache(), kStoreBase + shard * stride,
                        config_.perShardCapacity);
    for (const auto &[key, value] : refill_(shard))
        fresh.put(key, value);
}

void
FleetNode::attachOrRefill(bool force_refill)
{
    std::vector<CacheModel *> caches(config_.shards, &system_->cache());
    if (!force_refill) {
        auto attached = apps::ShardedKvStore::attach(
            std::span<CacheModel *const>(caches), kStoreBase);
        if (attached) {
            store_ = std::move(attached);
            return;
        }
    }
    createStore();
    WSP_CHECK(refill_ != nullptr);
    for (unsigned shard = 0; shard < config_.shards; ++shard)
        for (const auto &[key, value] : refill_(shard))
            store_->put(key, value);
}

const RestoreReport &
FleetNode::reboot()
{
    WSP_CHECKF(system_ != nullptr && !serving(),
               "node %u reboot needs a dark chassis", config_.id);
    bool backend_ran = false;
    lastRestore_ = system_->bootToCompletion([&backend_ran]() {
        backend_ran = true;
    });
    // Cold boot: nothing usable survived, so the whole store comes
    // back from the refill source ("fetch from the storage back
    // end"). Salvage boots re-attach — the region hooks already
    // rebuilt the casualties.
    attachOrRefill(backend_ran);

    if (lastRestore_.usedWsp) {
        static trace::Counter &wsp_recoveries =
            trace::StatRegistry::instance().counter("fleet.wsp_recoveries");
        ++wspRecoveries_;
        wsp_recoveries.add();
    } else if (lastRestore_.salvageMode) {
        static trace::Counter &salvage_boots =
            trace::StatRegistry::instance().counter("fleet.salvage_boots");
        ++salvageBoots_;
        salvage_boots.add();
    } else {
        ++backendRefills_;
        backendRefillCounter().add();
    }
    state_ = NodeState::Restoring;
    return lastRestore_;
}

void
FleetNode::rebootColdRefill()
{
    WSP_CHECKF(system_ != nullptr && !serving(),
               "node %u refill needs a dark chassis", config_.id);
    // The image is discarded on purpose: blank DIMMs hold no valid
    // flash image, so the boot takes the restore routine's cold boot
    // and the store comes back from the refill source alone.
    NvramSpace &memory = system_->memory();
    const SparseMemory blank(memory.module(0).config().capacityBytes);
    for (size_t i = 0; i < memory.moduleCount(); ++i)
        memory.module(i).adoptFlashImage(blank, /*valid=*/false);
    lastRestore_ = system_->bootToCompletion();
    attachOrRefill(true);
    ++backendRefills_;
    backendRefillCounter().add();
    state_ = NodeState::Restoring;
}

void
FleetNode::decommission()
{
    store_.reset();
    system_.reset();
    state_ = NodeState::Decommissioned;
}

bool
FleetNode::put(uint64_t key, uint64_t value)
{
    WSP_CHECK(serving());
    return store_->put(key, value);
}

bool
FleetNode::erase(uint64_t key)
{
    WSP_CHECK(serving());
    return store_->erase(key);
}

bool
FleetNode::get(uint64_t key, uint64_t *value_out) const
{
    WSP_CHECK(serving());
    return store_->get(key, value_out);
}

const apps::KvStore &
FleetNode::shardStore(unsigned shard) const
{
    WSP_CHECK(serving());
    return store_->shard(shard);
}

} // namespace wsp::fleet
