/**
 * @file
 * Boot-path restore routine (paper Fig. 4, steps 10-14).
 *
 * On the first boot after a power failure:
 *
 *  10. the modified boot loader signals the NVDIMMs to restore their
 *      flash images into DRAM,
 *  11. it checks the valid-image marker (and the resume-block
 *      checksum bound into it),
 *  12. if valid, it jumps to the resume block,
 *  13. devices are re-initialized per the configured policy,
 *  14. processor contexts are restored and scheduling resumes.
 *
 * When whole-system resume is impossible — the marker is missing or
 * torn, the image generation is stale, a module's save died partway,
 * or the save ran degraded — the routine no longer throws the whole
 * image away. It decodes the salvage directory the save left at the
 * top of memory, re-verifies each region's CRC against what actually
 * reached flash, keeps the intact regions, scrubs and quarantines the
 * corrupt ones (handing each to a per-region recovery hook), and cold
 * boots around the salvaged state. Only when no trustworthy directory
 * exists does it fall back to the legacy full cold boot with the
 * caller's whole-store back-end recovery hook.
 */

#pragma once

#include <functional>

#include "core/resume_block.h"
#include "core/salvage_directory.h"
#include "core/valid_marker.h"
#include "core/wsp_config.h"
#include "machine/machine.h"
#include "nvram/controller.h"
#include "trace/flight_recorder.h"

namespace wsp {

/** Event-driven implementation of the WSP restore. */
class RestoreRoutine
{
  public:
    RestoreRoutine(MachineModel &machine, NvdimmController &nvdimms,
                   ValidMarker &marker, ResumeBlock &resume_block,
                   DeviceManager *devices, const WspConfig &config,
                   SalvageDirectory *directory = nullptr,
                   trace::FlightRecorder *recorder = nullptr);

    /**
     * Run the boot path. @p backend_recovery runs (if non-null) when
     * WSP recovery is impossible and state must be refreshed from the
     * storage back end; @p done receives the final report either way.
     */
    void run(std::function<void()> backend_recovery,
             std::function<void(const RestoreReport &)> done);

    /**
     * Hook invoked once per quarantined region (after its scrub), so
     * the owning application can rebuild exactly that shard from its
     * back end instead of the whole store.
     */
    void setRegionRecovery(std::function<void(const RegionOutcome &)> hook);

  private:
    void stepNvdimmRestore();
    void stepCheckMarker();
    void stepVerifyRegions(const MarkerState &state);
    void stepRestoreContexts();
    void stepDevices();
    void finish(bool used_wsp);
    void fallbackColdBoot(const char *reason);
    void trySalvageColdBoot(const char *reason);

    /** Verify/scrub/recover one directory entry; updates the report. */
    void processRegion(const SalvageDirectoryEntry &entry);

    void record(const char *step, Tick start, Tick end);

    MachineModel &machine_;
    NvdimmController &nvdimms_;
    ValidMarker &marker_;
    ResumeBlock &resumeBlock_;
    DeviceManager *devices_;
    const WspConfig &config_;
    SalvageDirectory *directory_;
    trace::FlightRecorder *recorder_; ///< the machine's black box, or null

    EventQueue &queue_;
    std::function<void()> backendRecovery_;
    std::function<void(const RegionOutcome &)> regionRecovery_;
    std::function<void(const RestoreReport &)> done_;
    RestoreReport report_;
};

} // namespace wsp
