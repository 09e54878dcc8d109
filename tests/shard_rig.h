/**
 * @file
 * Private per-shard machine slices and a sharded store over them, as
 * concurrent serving runs it. Shared by the traffic-plane and
 * concurrency batteries.
 *
 * The cache and sparse-memory models are deliberately simple and not
 * thread-safe, so concurrent serving gives every shard its own copies
 * (event queue, NVDIMM, NVRAM space, write-back cache) and serializes
 * access per shard: the stripe lock of ShardedKvStore, or shard
 * ownership in load::TrafficPlane. Two threads on different shards
 * then share no simulator state at all.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "apps/kv_store.h"
#include "machine/cache.h"
#include "nvram/nvdimm.h"
#include "nvram/nvram_space.h"
#include "sim/event_queue.h"
#include "util/units.h"

namespace wsp::testing {

/**
 * One shard's machine slice. Members are declared in dependency
 * order: the queue feeds the NVDIMM, the space routes to it, the
 * cache writes through to the space.
 */
struct ShardEnvironment
{
    /** A 2 MiB cache over one module of at least @p nvdimm_bytes
     *  (rounded up to a MiB). */
    ShardEnvironment(const std::string &name, uint64_t nvdimm_bytes)
        : dimm(queue, name, moduleConfig(nvdimm_bytes)),
          cache(name + ".cache", 2 * kMiB, CacheTiming{}, space)
    {
        space.addModule(dimm);
    }

    EventQueue queue;
    NvdimmModule dimm;
    NvramSpace space;
    CacheModel cache;

  private:
    static NvdimmConfig
    moduleConfig(uint64_t bytes)
    {
        NvdimmConfig config;
        // Round up to a MiB so tiny stores don't create degenerate
        // modules; flash channels stay on the one-per-GiB auto rule.
        config.capacityBytes = ((bytes + kMiB - 1) / kMiB) * kMiB;
        return config;
    }
};

/**
 * A @p shards-way ShardedKvStore over private shard environments.
 * Every module spans the whole striped region: each shard addresses
 * its slice inside its own space.
 */
struct ShardedRig
{
    ShardedRig(const std::string &tag, unsigned shards, uint64_t per_shard)
    {
        const uint64_t region =
            apps::ShardedKvStore::regionBytes(shards, per_shard);
        std::vector<CacheModel *> caches;
        for (unsigned i = 0; i < shards; ++i) {
            envs.push_back(std::make_unique<ShardEnvironment>(
                tag + std::to_string(i), region));
            caches.push_back(&envs.back()->cache);
        }
        store = std::make_unique<apps::ShardedKvStore>(
            std::span<CacheModel *const>(caches), 0, per_shard);
    }

    std::vector<std::unique_ptr<ShardEnvironment>> envs;
    std::unique_ptr<apps::ShardedKvStore> store;
};

} // namespace wsp::testing
