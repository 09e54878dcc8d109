#include "machine/machine.h"

#include "util/logging.h"

namespace wsp {

PlatformSpec
platformIntelC5528()
{
    PlatformSpec spec;
    spec.name = "Intel C5528";
    spec.sockets = 2;
    spec.coresPerSocket = 4;
    spec.threadsPerCore = 2;
    spec.cachePerSocket = 8 * kMiB;
    // Calibrated to Table 2: wbinvd 2.8 ms, clflush 2.3 ms (16 MiB /
    // 262144 lines -> ~8.8 ns/line), theoretical best 0.79 ms
    // (8 MiB per socket at ~10.6 GiB/s, sockets in parallel).
    spec.cacheTiming.wbinvdFixed = fromMillis(2.73);
    spec.cacheTiming.memoryBwBytesPerSec = 10.6e9;
    spec.cacheTiming.clflushPerLine = 9;
    spec.load = loadIntelTestbed();
    return spec;
}

PlatformSpec
platformIntelX5650()
{
    PlatformSpec spec;
    spec.name = "Intel X5650";
    spec.sockets = 1;
    spec.coresPerSocket = 6;
    spec.threadsPerCore = 2;
    spec.cachePerSocket = 12 * kMiB;
    spec.cacheTiming.wbinvdFixed = fromMillis(3.60);
    spec.cacheTiming.memoryBwBytesPerSec = 12.0e9;
    spec.cacheTiming.clflushPerLine = 9;
    spec.load = SystemLoad{"Intel X5650", 280.0, 160.0};
    return spec;
}

PlatformSpec
platformAmd4180()
{
    PlatformSpec spec;
    spec.name = "AMD 4180";
    spec.sockets = 1;
    spec.coresPerSocket = 6;
    spec.threadsPerCore = 1;
    spec.cachePerSocket = 6 * kMiB;
    // Calibrated to Table 2: wbinvd 1.3 ms, clflush 1.6 ms (6 MiB /
    // 98304 lines -> ~16.3 ns/line), theoretical best 0.65 ms
    // (6 MiB at ~9.7 GiB/s).
    spec.cacheTiming.wbinvdFixed = fromMillis(1.26);
    spec.cacheTiming.memoryBwBytesPerSec = 9.7e9;
    spec.cacheTiming.clflushPerLine = 16;
    spec.load = loadAmdTestbed();
    return spec;
}

PlatformSpec
platformIntelD510()
{
    PlatformSpec spec;
    spec.name = "Intel D510";
    spec.sockets = 1;
    spec.coresPerSocket = 2;
    spec.threadsPerCore = 2;
    spec.cachePerSocket = 1 * kMiB;
    spec.cacheTiming.wbinvdFixed = fromMillis(0.42);
    spec.cacheTiming.memoryBwBytesPerSec = 2.5e9;
    spec.cacheTiming.clflushPerLine = 20;
    spec.load = SystemLoad{"Intel D510", 35.0, 22.0};
    return spec;
}

std::vector<PlatformSpec>
allPlatforms()
{
    return {platformIntelC5528(), platformIntelX5650(), platformAmd4180(),
            platformIntelD510()};
}

MachineModel::MachineModel(EventQueue &queue, PlatformSpec spec,
                           NvramSpace &memory)
    : SimObject(queue, spec.name), spec_(std::move(spec)), memory_(memory),
      interrupts_(queue, spec_.ipiLatency)
{
    WSP_CHECK(spec_.sockets >= 1);
    WSP_CHECK(spec_.coresPerSocket >= 1);
    WSP_CHECK(spec_.threadsPerCore >= 1);

    const unsigned per_socket = spec_.coresPerSocket * spec_.threadsPerCore;
    for (unsigned socket = 0; socket < spec_.sockets; ++socket) {
        caches_.push_back(std::make_unique<CacheModel>(
            spec_.name + "/L" + std::to_string(socket),
            spec_.cachePerSocket, spec_.cacheTiming, memory_));
        for (unsigned i = 0; i < per_socket; ++i) {
            CoreModel core;
            core.id = socket * per_socket + i;
            core.socket = socket;
            core.context.apicId = core.id;
            cores_.push_back(core);
        }
    }
}

CacheModel &
MachineModel::cacheOfCore(unsigned i)
{
    return *caches_.at(cores_.at(i).socket);
}

uint64_t
MachineModel::totalDirtyBytes() const
{
    uint64_t total = 0;
    for (const auto &cache : caches_)
        total += cache->dirtyBytes();
    return total;
}

uint64_t
MachineModel::totalCacheBytes() const
{
    uint64_t total = 0;
    for (const auto &cache : caches_)
        total += cache->capacity();
    return total;
}

void
MachineModel::randomizeContexts(Rng &rng)
{
    for (auto &core : cores_) {
        core.context.randomize(rng);
        core.context.apicId = core.id;
    }
}

void
MachineModel::fillCachesDirty(uint64_t bytes_per_socket, Rng &rng)
{
    // Give each socket a disjoint address region so lines never alias.
    const uint64_t region = memory_.capacity() / caches_.size();
    for (size_t socket = 0; socket < caches_.size(); ++socket) {
        caches_[socket]->fillDirty(static_cast<uint64_t>(socket) * region,
                                   bytes_per_socket, rng);
    }
}

bool
MachineModel::allHalted() const
{
    for (const auto &core : cores_) {
        if (!core.halted)
            return false;
    }
    return true;
}

void
MachineModel::onPowerLost()
{
    powerOn_ = false;
    for (auto &core : cores_) {
        if (!core.halted) {
            // Registers of a still-running core are simply gone.
            core.context = CpuContext{};
            core.context.apicId = core.id;
        }
        core.halted = true;
    }
    for (auto &cache : caches_)
        cache->dropDirty();
}

void
MachineModel::resetForBoot()
{
    powerOn_ = true;
    for (auto &core : cores_) {
        core.halted = false;
        core.context = CpuContext{};
        core.context.apicId = core.id;
    }
}

} // namespace wsp
