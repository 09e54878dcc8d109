/**
 * @file
 * WspSystem: a fully assembled whole-system-persistence server.
 *
 * This is the library's main entry point. It wires together one of
 * everything the paper's prototype has (Fig. 3): an ATX power supply,
 * the power-monitor microcontroller, a set of NVDIMMs with their
 * controller, the machine (cores + caches), the device set, and the
 * WSP controller — all on a single event queue — and offers scenario
 * helpers that run a complete power-failure/restore cycle.
 *
 * Typical use (see examples/quickstart.cc):
 *
 *   SystemConfig config;             // paper's Intel testbed defaults
 *   WspSystem system(config);
 *   system.start();
 *   ... write application state through system.cache() ...
 *   auto outcome = system.powerFailAndRestore(fromSeconds(1.0),
 *                                             fromSeconds(30.0));
 *   // outcome.restore.usedWsp == true: all state is back.
 */

#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/wsp_controller.h"
#include "devices/device_manager.h"
#include "machine/machine.h"
#include "nvram/controller.h"
#include "nvram/nvram_image.h"
#include "nvram/nvram_space.h"
#include "power/power_monitor.h"
#include "power/psu.h"
#include "util/rng.h"

namespace wsp {

/** Everything needed to assemble a WspSystem. */
struct SystemConfig
{
    PlatformSpec platform = platformIntelC5528();
    PsuPreset psu = psuPresetIntel1050W();
    PowerMonitorConfig monitor;

    unsigned nvdimmCount = 2;
    NvdimmConfig nvdimm; ///< per-module configuration

    /** Device set; empty = none (pure memory experiments). */
    std::vector<DeviceConfig> devices = deviceSetIntel();

    WspConfig wsp;
    LoadClass load = LoadClass::Busy;
    uint64_t seed = 0x5753502d53595331ull;
};

/** Result of a full power-failure / restore scenario. */
struct PowerFailureOutcome
{
    std::optional<SaveReport> save;
    RestoreReport restore;
    Tick outageStart = 0; ///< AC input failure tick
    Tick bootStart = 0;   ///< power-restore tick
};

/** An assembled WSP server on one event queue. */
class WspSystem
{
  public:
    explicit WspSystem(SystemConfig config);

    EventQueue &queue() { return queue_; }
    MachineModel &machine() { return *machine_; }
    AtxPowerSupply &psu() { return *psu_; }
    PowerMonitor &monitor() { return *monitor_; }
    NvdimmController &nvdimms() { return *nvdimmController_; }
    NvramSpace &memory() { return memory_; }
    DeviceManager &devices() { return *devices_; }
    WspController &wsp() { return *wsp_; }
    Rng &rng() { return rng_; }
    const SystemConfig &config() const { return config_; }

    /** The control processor's cache: application loads/stores. */
    CacheModel &cache() { return machine_->cacheOfCore(0); }

    /** Register a region for tiered save and checksummed salvage. */
    void
    registerSalvageRegion(SalvageRegionSpec spec)
    {
        wsp_->registerSalvageRegion(std::move(spec));
    }

    /** Recovery hook invoked per quarantined region on restore. */
    void
    setRegionRecovery(std::function<void(const RegionOutcome &)> hook)
    {
        wsp_->setRegionRecovery(std::move(hook));
    }

    /** Power the system on for the first time (cold start). */
    void start();

    /**
     * Power returns to this chassis: run the full boot path to
     * completion — firmware, NVDIMM restore, marker check, devices,
     * context restore — or back-end recovery (@p backend_recovery)
     * when the image is unusable. The DIMMs are whatever this chassis
     * holds: the ones its own last power loss saved, or an image
     * socketed by bootFromImage. Returns the controller's restore
     * report, valid until the next boot or the destruction of this
     * system.
     */
    const RestoreReport &
    bootToCompletion(std::function<void()> backend_recovery = nullptr);

    /**
     * Run the full scenario: AC fails at @p fail_delay from now, the
     * outage lasts @p outage, then power returns and the same chassis
     * boots (bootToCompletion). Returns after the boot completes.
     *
     * @p backend_recovery runs if WSP recovery is impossible.
     */
    PowerFailureOutcome
    powerFailAndRestore(Tick fail_delay, Tick outage,
                        std::function<void()> backend_recovery = nullptr);

    /** Advance simulated time (runs pending events). */
    void runFor(Tick duration);

    // Crash exploration hooks (src/crashsim) --------------------------

    /**
     * Snapshot the non-volatile state that would survive pulling the
     * DIMMs out of this machine: per-module flash plus validity. Call
     * only once no module is mid save/restore (run the queue past the
     * outage first).
     */
    NvramImage captureNvramImage() const;

    /**
     * Socket @p image into this fresh, un-started system and boot it
     * to completion (bootToCompletion), as a replacement chassis
     * would: nothing volatile of the machine the image came from can
     * reach the verdict.
     */
    const RestoreReport &
    bootFromImage(const NvramImage &image,
                  std::function<void()> backend_recovery = nullptr);

  private:
    SystemConfig config_;
    Rng rng_;
    EventQueue queue_;

    std::unique_ptr<AtxPowerSupply> psu_;
    std::unique_ptr<PowerMonitor> monitor_;
    std::vector<std::unique_ptr<NvdimmModule>> nvdimms_;
    std::unique_ptr<NvdimmController> nvdimmController_;
    NvramSpace memory_;
    std::unique_ptr<MachineModel> machine_;
    std::unique_ptr<DeviceManager> devices_;
    std::unique_ptr<WspController> wsp_;
};

} // namespace wsp
