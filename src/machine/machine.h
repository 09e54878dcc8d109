/**
 * @file
 * Machine model: sockets, cores, caches, and platform presets.
 *
 * Assembles the hardware the WSP save/restore routines run on. The
 * four platform presets are the processors the paper measured in
 * Fig. 8 and Table 2; their cache sizes are the paper's, and their
 * flush timings are calibrated so the model reproduces the published
 * wbinvd / clflush / theoretical-best numbers.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "machine/cache.h"
#include "machine/cpu_context.h"
#include "machine/interrupts.h"
#include "nvram/nvram_space.h"
#include "power/load_model.h"
#include "sim/sim_object.h"

namespace wsp {

/** Static description of a platform (one paper testbed or CPU). */
struct PlatformSpec
{
    std::string name;
    unsigned sockets = 1;
    unsigned coresPerSocket = 4;
    unsigned threadsPerCore = 1;

    /** Largest cache per socket (the flush-dominating structure). */
    uint64_t cachePerSocket = 8 * kMiB;

    CacheTiming cacheTiming;

    /** Per-processor context save cost (registers to memory). */
    Tick contextSaveLatency = fromMicros(2.0);

    /** IPI fabric latency. */
    Tick ipiLatency = fromMicros(1.0);

    /** Wall power of the platform per load class. */
    SystemLoad load;

    unsigned
    logicalCpus() const
    {
        return sockets * coresPerSocket * threadsPerCore;
    }

    unsigned
    logicalCpusPerSocket() const
    {
        return coresPerSocket * threadsPerCore;
    }
};

/** 2-socket Intel C5528 "Nehalem" testbed: 8 MB L3 per socket. */
PlatformSpec platformIntelC5528();

/** Intel X5650 "Westmere" Xeon: 12 MB L3. */
PlatformSpec platformIntelX5650();

/** AMD 4180 "Opteron" testbed: 6 MB L3. */
PlatformSpec platformAmd4180();

/** Intel D510 "Atom": 1 MB L2. */
PlatformSpec platformIntelD510();

/** All four presets, in the paper's Fig. 8 order. */
std::vector<PlatformSpec> allPlatforms();

/** One logical processor. */
struct CoreModel
{
    unsigned id = 0;
    unsigned socket = 0;
    CpuContext context;
    bool halted = false;
};

/**
 * The assembled machine: cores, one modelled cache per socket, an
 * interrupt fabric, all backed by one NvramSpace.
 */
class MachineModel : public SimObject
{
  public:
    MachineModel(EventQueue &queue, PlatformSpec spec, NvramSpace &memory);

    const PlatformSpec &spec() const { return spec_; }
    NvramSpace &memory() { return memory_; }
    InterruptController &interrupts() { return interrupts_; }

    unsigned coreCount() const { return static_cast<unsigned>(cores_.size()); }
    CoreModel &core(unsigned i) { return cores_.at(i); }
    const CoreModel &core(unsigned i) const { return cores_.at(i); }

    unsigned socketCount() const { return spec_.sockets; }
    CacheModel &socketCache(unsigned socket) { return *caches_.at(socket); }

    /** The cache serving core @p i (its socket's cache). */
    CacheModel &cacheOfCore(unsigned i);

    /** Total dirty bytes across all socket caches. */
    uint64_t totalDirtyBytes() const;

    /** Sum of socket cache capacities. */
    uint64_t totalCacheBytes() const;

    /** Give every core a distinct pseudo-random context. */
    void randomizeContexts(Rng &rng);

    /** Dirty @p bytes_per_socket in every socket cache. */
    void fillCachesDirty(uint64_t bytes_per_socket, Rng &rng);

    /** True when every core is halted. */
    bool allHalted() const;

    /**
     * Model the instant system power dies: running cores lose their
     * registers, caches lose dirty lines that were never written
     * back. This is exactly the state flush-on-fail races to save.
     */
    void onPowerLost();

    /** Clear halted flags and contexts for a fresh boot. */
    void resetForBoot();

    /** False between onPowerLost() and resetForBoot(). */
    bool powerOn() const { return powerOn_; }

  private:
    bool powerOn_ = true;
    PlatformSpec spec_;
    NvramSpace &memory_;
    InterruptController interrupts_;
    std::vector<CoreModel> cores_;
    std::vector<std::unique_ptr<CacheModel>> caches_;
};

} // namespace wsp
