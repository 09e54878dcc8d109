#include "apps/shard_environment.h"

namespace wsp::apps {

namespace {

NvdimmConfig
moduleConfig(uint64_t bytes)
{
    NvdimmConfig config;
    // Round up to a MiB so tiny stores don't create degenerate
    // modules; flash channels stay on the one-per-GiB auto rule.
    config.capacityBytes = ((bytes + kMiB - 1) / kMiB) * kMiB;
    return config;
}

} // namespace

ShardEnvironment::ShardEnvironment(const std::string &name,
                                   uint64_t nvdimm_bytes)
    : dimm(queue, name, moduleConfig(nvdimm_bytes)),
      cache(name + ".cache", 2 * kMiB, CacheTiming{}, space)
{
    space.addModule(dimm);
}

} // namespace wsp::apps
