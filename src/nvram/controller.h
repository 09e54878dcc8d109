/**
 * @file
 * NVDIMM controller: command fan-out across all modules.
 *
 * In the paper's prototype the power-monitor microcontroller talks to
 * the AgigaRAM modules over an I2C bus, translating host commands into
 * per-module save/restore operations (section 4). NVDIMMs save and
 * restore in parallel since they share no resources. This class is
 * the bus endpoint: it owns no modules but fans commands out to every
 * attached one and tracks collective completion.
 */

#pragma once

#include <functional>
#include <vector>

#include "nvram/nvdimm.h"
#include "power/power_monitor.h"
#include "sim/sim_object.h"

namespace wsp {

/** Fan-out controller for a set of NVDIMM modules. */
class NvdimmController : public SimObject
{
  public:
    explicit NvdimmController(EventQueue &queue);

    /** Attach a module; modules save/restore in parallel. */
    void attach(NvdimmModule &module);

    const std::vector<NvdimmModule *> &modules() const { return modules_; }

    /** Arm every module for hardware-triggered save on power loss. */
    void armAll();

    /** Disarm every module. */
    void disarmAll();

    /**
     * Begin a save on every module: enter self-refresh where needed,
     * then start the parallel DRAM-to-flash copies.
     */
    void saveAll();

    /**
     * Begin a restore on every module (boot path); @p done runs after
     * the slowest module finishes and all are back in Active state.
     */
    void restoreAll(std::function<void()> done);

    /**
     * Begin a restore on every module that has any flash content —
     * full images and the partial suffix of a failed save alike —
     * leaving empty modules untouched; @p done runs after the slowest
     * restore and every module is back in Active state. Used by the
     * salvage path, where allFlashValid() may be false.
     */
    void restoreAvailable(std::function<void()> done);

    /** True when every module holds a valid flash image. */
    bool allFlashValid() const;

    /** True when any module holds restorable flash content. */
    bool anyRestorable() const;

    /** True when no module is mid save/restore. */
    bool allIdle() const;

    /** True if any module's last save failed. */
    bool anySaveFailed() const;

    /** True while any module is mid-save. */
    bool anySaving() const;

    /** Sum of completed saves across modules. */
    uint64_t totalSavesCompleted() const;

    /**
     * Publish the platform's boot sequence into every module's
     * persistent epoch register (done on every boot / start). The save
     * engine stamps this epoch into its flash image; restore rejects
     * images whose marker generation does not match the epoch.
     */
    void publishEpoch(uint64_t epoch);

    /** The published epoch (max over modules; equal in practice). */
    uint64_t currentEpoch() const;

    /** Worst-case restore duration over the attached modules. */
    Tick maxRestoreDuration() const;

    /**
     * Return every idle module to Active (cold-boot path: memory
     * content is about to be rebuilt, self-refresh gates host access).
     */
    void resetToActive();

    /** Fan out a host power-loss notification. */
    void hostPowerLost();

    /** Fan out a host power-restored notification. */
    void hostPowerRestored();

    /**
     * Adapter for PowerMonitor::setCommandSink: maps bus commands to
     * the collective operations above.
     */
    PowerMonitor::CommandSink commandSink();

  private:
    std::vector<NvdimmModule *> modules_;
};

} // namespace wsp
