/**
 * @file
 * Failure injection for WSP experiments.
 *
 * Wraps the ways a WSP system can be made to fail, so tests and
 * benches express scenarios declaratively instead of poking model
 * internals:
 *
 *  - AC input failures at chosen instants (the normal case),
 *  - residual windows forced to an exact length (to land a hard power
 *    loss at any chosen point of the save sequence),
 *  - sabotaged NVDIMM ultracapacitors (undersized or pre-drained
 *    banks, the "NVRAM failures" discussion of paper section 6),
 *  - repeated failure schedules (outage trains).
 */

#pragma once

#include <string>
#include <vector>

#include "core/system.h"

namespace wsp {

/** What happened in one cycle of an outage train. */
struct OutageCycleOutcome
{
    int cycle = 0;
    bool usedWsp = false;
    bool backendRan = false;   ///< full cold boot with back-end rebuild
    bool salvageMode = false;  ///< cold boot that salvaged regions
    std::string reason;        ///< why WSP resume was impossible
    RestoreReport restore;
};

/** Per-cycle outcome report of FailureInjector::outageTrain. */
struct OutageTrainReport
{
    std::vector<OutageCycleOutcome> cycles;

    int
    wspRecoveries() const
    {
        int n = 0;
        for (const auto &cycle : cycles)
            n += cycle.usedWsp ? 1 : 0;
        return n;
    }

    int
    coldBoots() const
    {
        return static_cast<int>(cycles.size()) - wspRecoveries();
    }

    bool
    allWsp() const
    {
        return wspRecoveries() == static_cast<int>(cycles.size());
    }
};

/** Declarative failure injection against a WspSystem. */
class FailureInjector
{
  public:
    explicit FailureInjector(WspSystem &system) : system_(system) {}

    /**
     * Drain module @p index's ultracapacitor down to @p voltage so
     * the next save may run out of energy.
     */
    void
    drainUltracap(size_t index, double voltage)
    {
        Ultracapacitor &cap =
            system_.memory().module(index).ultracap();
        // Drain gently: near the floor a heavy draw delivers nothing
        // (the ESR drop puts the terminal below the usable voltage).
        while (cap.voltage() > voltage) {
            if (cap.discharge(2.0, fromSeconds(1.0)) <= 0.0)
                break;
        }
    }

    /**
     * Build a SystemConfig whose PSU yields an exact, jitter-free
     * residual window — the scalpel for hitting a specific step of
     * the save sequence.
     */
    static SystemConfig
    withExactWindow(SystemConfig config, Tick window)
    {
        config.psu.windowJitter = 0;
        config.psu.pwrOkDetectDelay = 0;
        config.psu.busyWindow = window;
        config.psu.idleWindow = window;
        return config;
    }

    /**
     * Build a SystemConfig whose NVDIMM banks are too small to finish
     * their flash saves (energy-exhaustion failures).
     */
    static SystemConfig
    withUndersizedUltracaps(SystemConfig config)
    {
        config.nvdimm.ultracap.ratedCapacitanceF = 0.01;
        config.nvdimm.savePowerWatts = 50.0;
        return config;
    }

    /**
     * Inject an I2C bus fault: the next @p count NVDIMM commands the
     * power monitor relays are silently dropped.
     */
    void
    dropSaveCommands(unsigned count)
    {
        system_.monitor().failNextCommands(count);
    }

    /**
     * Run a train of @p cycles outage/restore cycles, each with the
     * given spacing and outage duration. The report says, cycle by
     * cycle, whether recovery came from WSP resume, region salvage,
     * or a full back-end rebuild — and why the cheaper path was
     * unavailable.
     */
    OutageTrainReport
    outageTrain(int cycles, Tick spacing, Tick outage,
                std::function<void()> backend_recovery = nullptr)
    {
        OutageTrainReport report;
        for (int i = 0; i < cycles; ++i) {
            auto outcome = system_.powerFailAndRestore(
                spacing, outage, backend_recovery);
            OutageCycleOutcome cycle;
            cycle.cycle = i;
            cycle.usedWsp = outcome.restore.usedWsp;
            cycle.salvageMode = outcome.restore.salvageMode;
            cycle.backendRan =
                !outcome.restore.usedWsp && !outcome.restore.salvageMode;
            cycle.reason = describe(outcome.restore);
            cycle.restore = outcome.restore;
            report.cycles.push_back(std::move(cycle));
        }
        return report;
    }

    /** Human-readable reason a restore did not whole-resume. */
    static std::string
    describe(const RestoreReport &restore)
    {
        if (restore.usedWsp)
            return "wsp resume";
        if (!restore.flashValid)
            return restore.salvageMode ? "salvage: incomplete flash save"
                                       : "cold boot: no usable flash";
        if (!restore.markerValid)
            return "marker missing or torn";
        if (!restore.generationOk)
            return "stale image generation";
        if (!restore.checksumOk)
            return "resume block checksum mismatch";
        if (restore.imageTierCut != SaveTier::Bulk)
            return "degraded tier-cut image";
        if (!restore.directoryOk)
            return "salvage directory corrupt";
        return "cold boot";
    }

  private:
    WspSystem &system_;
};

} // namespace wsp
