/**
 * @file
 * WSP controller: the whole-system persistence state machine.
 *
 * Owns the valid marker, the resume block, the save/restore routines
 * and the machine's black-box flight recorder, and wires them to the
 * hardware substrates:
 *
 *  - the power monitor's fail interrupt triggers the flush-on-fail
 *    save on the control processor,
 *  - the PSU's regulation-end tick triggers the hard power loss that
 *    scrubs unprotected machine state,
 *  - boot() runs the restore routine and falls back to back-end
 *    recovery when the image is unusable.
 *
 * The controller also accounts the save's energy position inside the
 * residual window (the paper's 2-35% claim).
 */

#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "core/restore_routine.h"
#include "core/salvage_directory.h"
#include "core/save_routine.h"
#include "core/wsp_config.h"
#include "nvram/controller.h"
#include "power/health_monitor.h"
#include "power/power_monitor.h"
#include "power/psu.h"
#include "trace/flight_recorder.h"

namespace wsp {

/** Where the marker, resume block, salvage directory, and black-box
 *  flight recorder live. */
struct WspLayout
{
    uint64_t markerBase = 0;
    uint64_t resumeBase = 0;
    uint64_t directoryBase = 0;
    /** Flight-recorder header line (ring slots sit directly below). */
    uint64_t recorderHeader = 0;
    /** Flight-recorder slot 0. */
    uint64_t recorderBase = 0;

    /**
     * Place the structures at the top of a @p capacity space. The
     * flight-recorder ring below the salvage directory holds
     * trace::kFrDefaultRecords records.
     */
    static WspLayout topOfMemory(uint64_t capacity, unsigned cores);
};

/** Top-level whole-system persistence orchestrator. */
class WspController : public SimObject
{
  public:
    WspController(EventQueue &queue, MachineModel &machine,
                  AtxPowerSupply &psu, PowerMonitor &monitor,
                  NvdimmController &nvdimms, DeviceManager *devices,
                  WspConfig config);
    ~WspController();

    const WspConfig &config() const { return config_; }
    const WspLayout &layout() const { return layout_; }
    ValidMarker &marker() { return marker_; }
    SaveRoutine &saveRoutine() { return save_; }
    SalvageDirectory &salvageDirectory() { return directory_; }

    /** This machine's black box; null when config().flightRecorder
     *  is off. */
    trace::FlightRecorder *flightRecorder() { return recorder_.get(); }

    /** Register a region for tiered save and checksummed salvage. */
    void registerSalvageRegion(SalvageRegionSpec spec);

    /** Per-quarantined-region recovery hook (forwarded to restore). */
    void setRegionRecovery(std::function<void(const RegionOutcome &)> hook);

    /** The energy health monitor, if healthCheckPeriod enabled one. */
    EnergyHealthMonitor *healthMonitor() { return health_.get(); }

    /** True while the platform is in degraded mode (health verdict). */
    bool degraded() const { return degraded_; }

    /** Sequence number of the current boot epoch. */
    uint64_t bootSequence() const { return bootSequence_; }

    /** Report of the last completed save attempt, if any. */
    const std::optional<SaveReport> &lastSave() const { return lastSave_; }

    /** Report of the last restore attempt, if any. */
    const std::optional<RestoreReport> &lastRestore() const
    {
        return lastRestore_;
    }

    /** Tick at which the machine actually lost power (if it has). */
    std::optional<Tick> powerLostAt() const { return powerLostAt_; }

    /**
     * Fraction of the residual energy window the last completed save
     * consumed (paper section 5.3/5.4: 2-35%). Meaningful only after
     * a save raced an actual failure.
     */
    std::optional<double> windowFractionUsed() const;

    /**
     * Boot (or re-boot) the system: runs the restore routine.
     * @p backend_recovery runs when WSP recovery is impossible.
     * @p done receives the restore report.
     */
    void boot(std::function<void()> backend_recovery = nullptr,
              std::function<void(const RestoreReport &)> done = nullptr);

    /** True once boot() completed and the machine is running. */
    bool running() const { return running_; }

    /**
     * Mark a fresh system as up (initial power-on: no image to
     * restore, the marker is cleared as on any startup).
     */
    void start();

  private:
    void onPowerFailInterrupt();
    void onHardPowerLoss();
    std::unique_ptr<trace::FlightRecorder> makeFlightRecorder();

    WspConfig config_;
    MachineModel &machine_;
    AtxPowerSupply &psu_;
    PowerMonitor &monitor_;
    NvdimmController &nvdimms_;
    DeviceManager *devices_;
    WspLayout layout_;
    uint64_t bootSequence_ = 1;
    /** Built before the routines it is handed to; null when off. */
    std::unique_ptr<trace::FlightRecorder> recorder_;

    ValidMarker marker_;
    ResumeBlock resumeBlock_;
    SalvageDirectory directory_;
    SaveRoutine save_;
    RestoreRoutine restore_;
    std::unique_ptr<EnergyHealthMonitor> health_;

    bool degraded_ = false;
    bool running_ = false;
    /** True from boot() entry until the restore completes: the ring's
     *  backing module can report Active with decayed DRAM in this
     *  window (a hardware-triggered save parks there), and anything
     *  published into it would be overwritten when the restore streams
     *  flash back. The flight recorder stages instead. */
    bool restoring_ = false;
    std::optional<SaveReport> lastSave_;
    std::optional<RestoreReport> lastRestore_;
    std::optional<Tick> powerLostAt_;
    std::optional<Tick> pwrOkDroppedAt_;
    std::optional<double> windowFractionUsed_;
};

} // namespace wsp
