/**
 * @file
 * Flush-on-fail save routine (paper Fig. 4, steps 1-8).
 *
 * Invoked by the power-fail interrupt on the control processor, the
 * routine:
 *
 *   1. (entry) control processor interrupted,
 *   2. IPIs every other processor,
 *   3. all processors save their contexts and flush their caches in
 *      parallel (wbinvd, or a clflush walk in the ablation),
 *   4. the N-1 non-control processors halt,
 *   5. the control processor writes the resume block header,
 *   6. writes and flushes the valid marker,
 *   7. initiates the NVDIMM save over the I2C path,
 *   8. halts.
 *
 * Every step is an event on the simulated clock, so a power loss
 * injected at any tick interrupts the sequence exactly where a real
 * machine would be, and the functional memory state (which lines were
 * written back, whether the marker was stamped) reflects the progress
 * made.
 */

#pragma once

#include <functional>

#include "core/resume_block.h"
#include "core/salvage_directory.h"
#include "core/valid_marker.h"
#include "core/wsp_config.h"
#include "machine/machine.h"
#include "nvram/controller.h"
#include "power/power_monitor.h"
#include "trace/flight_recorder.h"

namespace wsp {

/** Event-driven implementation of the flush-on-fail save. */
class SaveRoutine
{
  public:
    SaveRoutine(MachineModel &machine, PowerMonitor &monitor,
                ValidMarker &marker, ResumeBlock &resume_block,
                DeviceManager *devices, const WspConfig &config,
                NvdimmController *nvdimms = nullptr,
                SalvageDirectory *directory = nullptr,
                trace::FlightRecorder *recorder = nullptr);

    /**
     * Run the save. @p done fires at the control processor's halt
     * with the completed report; it never fires if power is lost
     * first (the event simply never dispatches).
     */
    void run(uint64_t boot_sequence,
             std::function<void(const SaveReport &)> done);

    /**
     * Run the save with a degraded-mode hint from the platform (the
     * energy health monitor's verdict at interrupt time). A degraded
     * save skips device suspend, flushes only the registered regions
     * at or above the tier cut, and re-issues a lost NVDIMM save
     * command once — trading bulk data for certainty that the core
     * tiers land within the residual energy actually available.
     */
    void run(uint64_t boot_sequence, bool degraded_hint,
             std::function<void(const SaveReport &)> done);

    /**
     * Predicted save duration for the current machine state, without
     * running it (used for energy budgeting and Fig. 8).
     */
    Tick predictDuration() const;

    /**
     * The report of the save attempt in progress (or the last one).
     * Unlike the done-callback report this is readable after a power
     * loss cut the routine short, so crash checkers can see exactly
     * which steps had completed when the lights went out.
     */
    const SaveReport &progress() const { return report_; }

    /** True when @p report records completion of @p step. */
    static bool stepReached(const SaveReport &report, const char *step);

  private:
    void stepIpis();
    void stepContextsAndFlush();
    void stepFinishFlush();
    void stepParallelFlush(Tick start);
    void stepDegradedFlush();
    void afterFlush();
    void stepPersistDirectory();
    void stepMarkerPrepare();
    void stepMarkerStamp();
    void stepInitiateNvdimmSave();
    void stepHalt();

    /** CRC pass + table flush cost of persisting the directory. */
    Tick directoryCost(SaveTier cut) const;

    /** Per-socket flush cost under the configured method. */
    Tick flushCost(unsigned socket) const;

    /** Flush workers driving @p socket's cache under parallelFlush:
     *  one per logical CPU. */
    unsigned flushWorkers(unsigned socket) const;

    /**
     * Append one completed step to the progress report. Steps carry
     * explicit (start, end) ticks, so per-core steps of the parallel
     * flush may be recorded in completion order — readers sort by
     * time, never by position. Also safe after a power loss cut the
     * routine short: whatever was recorded stays readable.
     */
    void record(const char *step, Tick start, Tick end);

    MachineModel &machine_;
    PowerMonitor &monitor_;
    ValidMarker &marker_;
    ResumeBlock &resumeBlock_;
    DeviceManager *devices_;
    const WspConfig &config_;
    NvdimmController *nvdimms_;
    SalvageDirectory *directory_;
    trace::FlightRecorder *recorder_; ///< the machine's black box, or null

    EventQueue &queue_;
    uint64_t bootSequence_ = 0;
    bool degraded_ = false;
    SaveTier tierCut_ = SaveTier::Bulk;
    std::function<void(const SaveReport &)> done_;
    SaveReport report_;
};

} // namespace wsp
