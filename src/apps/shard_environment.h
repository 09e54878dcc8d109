/**
 * @file
 * One shard's private simulated machine slice.
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
#include <string>

#include "machine/cache.h"
#include "nvram/nvdimm.h"
#include "nvram/nvram_space.h"
#include "sim/event_queue.h"

namespace wsp::apps {

/**
 * Members are declared in dependency order: the queue feeds the
 * NVDIMM, the space routes to it, the cache writes through to the
 * space.
 */
struct ShardEnvironment
{
    /** A 2 MiB cache over one module of at least @p nvdimm_bytes
     *  (rounded up to a MiB). */
    ShardEnvironment(const std::string &name, uint64_t nvdimm_bytes);

    EventQueue queue;
    NvdimmModule dimm;
    NvramSpace space;
    CacheModel cache;
};

} // namespace wsp::apps
