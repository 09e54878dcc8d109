/**
 * @file
 * Flash-backed NVDIMM module model (AgigaRAM-style).
 *
 * A battery-free NVDIMM pairs commodity DRAM with an equal amount of
 * NAND flash and an ultracapacitor bank (paper section 2). During
 * normal operation the flash is invisible; when commanded (or when
 * armed and host power is lost) the module copies DRAM to flash,
 * powered entirely by its own ultracapacitor, so the save completes
 * even after the system PSU is dead. On the next boot the module
 * copies flash back into DRAM before the OS resumes.
 *
 * The model reproduces the externally visible contract and the
 * timing/energy envelope from the paper:
 *  - the DRAM must be put into self-refresh before save or restore,
 *  - save time scales with capacity over parallel flash channels and
 *    stays under ~10 s for modules up to 8 GiB,
 *  - the ultracapacitor must hold at least the save's energy; Fig. 2
 *    shows the voltage/power trajectory during a 1 GiB save,
 *  - DRAM content is lost (poisoned) if host power disappears while
 *    the module is neither in self-refresh nor saving.
 */

#pragma once

#include <string>
#include <vector>

#include "nvram/sparse_memory.h"
#include "power/ultracapacitor.h"
#include "sim/sim_object.h"
#include "util/units.h"

namespace wsp::trace {
class FlightRecorder;
} // namespace wsp::trace

namespace wsp {

/** Configuration of one NVDIMM module. */
struct NvdimmConfig
{
    uint64_t capacityBytes = 1 * kGiB;

    /**
     * Number of parallel DRAM-to-flash channels. Vendors scale the
     * flash with the DRAM, so the default is one channel per GiB,
     * which keeps the save time roughly constant across sizes.
     */
    unsigned flashChannels = 0; ///< 0 = auto (one per GiB, min 1)

    /** Per-channel flash program bandwidth (save path). */
    double channelSaveBw = 130.0 * 1024 * 1024;

    /** Per-channel flash read bandwidth (restore path). */
    double channelRestoreBw = 260.0 * 1024 * 1024;

    /** Module power draw while saving (controller + flash + DRAM). */
    double savePowerWatts = 0.0; ///< 0 = auto (2 W + 4 W per channel)

    /** Latency of entering/leaving DRAM self-refresh. */
    Tick selfRefreshLatency = fromMicros(5.0);

    /**
     * Program only pages dirtied since the last completed save when a
     * valid baseline exists (falls back to a full save on epoch
     * mismatch, after media faults, or when no baseline is open).
     */
    bool incrementalSave = true;

    /**
     * Lazy page-in restore: startRestore() maps the flash image
     * copy-on-read instead of eagerly streaming every byte, so the
     * modelled restore latency is the mapping setup, not
     * capacity/bandwidth. Content is identical either way.
     */
    bool lazyRestore = false;

    /** Fixed mapping/metadata setup cost of a lazy restore. */
    Tick lazyRestoreFixedLatency = fromMillis(1.0);

    /** Per-2MiB-extent mapping cost of a lazy restore. */
    Tick lazyRestorePerChunk = fromMicros(10.0);

    /**
     * Self-check every save completion: assert flash is byte-identical
     * to DRAM (what a full save would have produced) and that a failed
     * save's programmed suffix matches DRAM. Mismatches are counted,
     * not fatal — the crashsim IncrementalSaveSound checker reads the
     * count. Costs a full image comparison per save; off by default.
     */
    bool verifySaves = false;

    UltracapConfig ultracap;
};

/** Externally visible module states. */
enum class NvdimmState {
    Active,      ///< normal DRAM operation, host load/store allowed
    SelfRefresh, ///< DRAM in self-refresh, host access disallowed
    Saving,      ///< DRAM-to-flash copy in progress (ultracap powered)
    Restoring,   ///< flash-to-DRAM copy in progress (host powered)
    SaveFailed,  ///< save aborted (energy or command protocol error)
};

/** Human-readable state name. */
std::string nvdimmStateName(NvdimmState state);

/**
 * Injectable flash media faults (section 6, "NVRAM failures"). All
 * three are silent at the device level — the module still reports its
 * image valid — which is exactly why restore-side region checksums
 * exist.
 */
enum class MediaFaultKind {
    BitFlip,   ///< single bit flipped at the target address
    BadBlock,  ///< whole 4 KiB flash block returns garbage
    TornWrite, ///< one 64 B line left half-programmed (zeroed)
};

/** Human-readable media fault name. */
std::string mediaFaultKindName(MediaFaultKind kind);

/**
 * One NVDIMM module.
 *
 * Host byte access is only legal in Active state; the WSP save path
 * transitions Active -> SelfRefresh -> Saving, and the boot path
 * SelfRefresh/Active -> Restoring -> Active.
 */
class NvdimmModule : public SimObject
{
  public:
    NvdimmModule(EventQueue &queue, std::string name, NvdimmConfig config);

    const NvdimmConfig &config() const { return config_; }
    uint64_t capacity() const { return config_.capacityBytes; }
    NvdimmState state() const { return state_; }
    Ultracapacitor &ultracap() { return ultracap_; }
    const Ultracapacitor &ultracap() const { return ultracap_; }

    /** Effective number of flash channels (resolving the auto value). */
    unsigned flashChannels() const;

    /** Module power draw while saving (resolving the auto value). */
    double savePowerWatts() const;

    /** Predicted full DRAM-to-flash save duration (worst case). */
    Tick saveDuration() const;

    /**
     * Predicted restore duration: the eager flash-to-DRAM stream, or
     * the mapping setup cost when lazyRestore is configured.
     */
    Tick restoreDuration() const;

    /** The eager capacity/bandwidth restore time, lazy or not. */
    Tick fullRestoreDuration() const;

    /** Energy required to complete a full save, in joules. */
    double saveEnergy() const;

    // Incremental save --------------------------------------------------

    /**
     * True when the next save may program only the dirty delta: a
     * valid un-tainted flash image whose baseline epoch matches the
     * DRAM dirty bitmap. Any media fault, adopted image, or wholesale
     * DRAM change (poison/restore) forces the next save back to full.
     */
    bool incrementalEligible() const;

    /** Bytes the next save must program (dirty delta or capacity). */
    uint64_t pendingSaveBytes() const;

    /** Predicted duration of the next save at its pending size. */
    Tick pendingSaveDuration() const;

    /**
     * Energy the next save needs, in joules — the bill HealthMonitor
     * margins and degraded-tier decisions are charged against. Scales
     * with dirty pages once a baseline exists.
     */
    double pendingSaveEnergy() const;

    // Host access (Active state only) ---------------------------------

    void hostRead(uint64_t addr, std::span<uint8_t> out) const;
    void hostWrite(uint64_t addr, std::span<const uint8_t> data);

    // Command interface (driven by the NvdimmController) ---------------

    /** Arm the module: auto-save if host power dies in self-refresh. */
    void arm() { armed_ = true; }
    void disarm() { armed_ = false; }
    bool armed() const { return armed_; }

    /** Whether the host 12 V rail currently energizes the module. */
    bool hostPowered() const { return hostPower_; }

    /** Put the DRAM into self-refresh (required before save/restore). */
    void enterSelfRefresh();

    /** Leave self-refresh and return to Active. */
    void exitSelfRefresh();

    /**
     * Begin the DRAM-to-flash save; requires SelfRefresh. The copy is
     * powered by the module ultracapacitor and survives host power
     * loss; it fails cleanly if the ultracapacitor runs out.
     */
    void startSave();

    /**
     * Begin the flash-to-DRAM restore; requires SelfRefresh (the boot
     * firmware re-initializes the memory controller first) and a valid
     * flash image. Host power must be present throughout.
     */
    void startRestore();

    /** A completed save produced a valid flash image. */
    bool flashValid() const { return flashValid_; }

    /**
     * Bytes of the last save attempt that reached flash. The copy
     * engine programs DRAM into flash from the top of the address
     * space downwards, so a partial save always covers the suffix
     * [capacity - flashSavedBytes, capacity) — the platform's control
     * structures (marker, resume block, salvage directory) live at the
     * top precisely so they hit flash first and a failed save degrades
     * from the bulk data up. Equals capacity when flashValid().
     */
    uint64_t flashSavedBytes() const { return flashSavedBytes_; }

    /** True when the flash holds anything restorable (full or partial). */
    bool flashRestorable() const
    {
        return flashValid_ || flashSavedBytes_ > 0;
    }

    /**
     * Boot-epoch metadata, kept in the module controller's persistent
     * config area (tiny EEPROM writes, cost-free at this fidelity).
     * The platform publishes its boot sequence here on every boot;
     * the save engine stamps the epoch into the flash image, so a
     * restore can reject an image from an older epoch — the stale
     * image a failed save would otherwise leave restorable as current.
     */
    uint64_t epoch() const { return epoch_; }
    void setEpoch(uint64_t epoch) { epoch_ = epoch; }

    /** Epoch whose save produced (or last overwrote) the flash image. */
    uint64_t flashGeneration() const { return flashGeneration_; }

    /**
     * Corrupt the flash image in place without touching the validity
     * flag — the silent media faults of section 6. Legal whenever no
     * save is mid-flight over the same cells.
     */
    void injectFlashFault(MediaFaultKind kind, uint64_t addr);

    /** Deep copy of the current flash content (crashsim capture). */
    SparseMemory cloneFlash() const { return flash_.snapshot(); }

    /**
     * Replace the flash content and validity, as if this module had
     * been pulled from a crashed machine and socketed here: the DRAM
     * side is poisoned (it was unpowered in transit). Only legal in
     * Active state: on a freshly built system, or on a dark one whose
     * save completed (a blank, invalid image then discards what the
     * module saved). The persistent metadata (epoch, generation, saved
     * bytes) travels with the DIMM.
     */
    void adoptFlashImage(const SparseMemory &flash, bool valid,
                         uint64_t flash_generation = 0,
                         uint64_t epoch = 0,
                         uint64_t saved_bytes = ~0ull);

    /** True while a save or restore is in flight. */
    bool busy() const;

    /**
     * Notify the module that host power is gone. Active-state DRAM
     * content is lost; an armed module in self-refresh starts its
     * save automatically (hardware-triggered save).
     */
    void hostPowerLost();

    /** Notify the module that host power has returned. */
    void hostPowerRestored();

    /** Number of completed saves / restores (for stats and tests). */
    uint64_t savesCompleted() const { return savesCompleted_; }
    uint64_t restoresCompleted() const { return restoresCompleted_; }

    /** Completed saves that programmed only the dirty delta. */
    uint64_t incrementalSavesCompleted() const
    {
        return incrementalSavesCompleted_;
    }

    /** Completed restores that took the lazy page-in path. */
    uint64_t lazyRestoresCompleted() const
    {
        return lazyRestoresCompleted_;
    }

    /** Bytes the last completed or failed save actually programmed. */
    uint64_t lastSaveProgrammedBytes() const
    {
        return lastSaveProgrammedBytes_;
    }

    /**
     * verifySaves failures: saves whose flash image did not match the
     * byte-identical full-save result. Always zero when the
     * incremental engine is sound.
     */
    uint64_t saveMismatches() const { return saveMismatches_; }

    /** Direct dirty-state access (tests, health gauges). */
    const SparseMemory &dram() const { return dram_; }

    /** Where this module's save/restore/fault events go: its
     *  machine's black box, or null for none (set by the controller). */
    void setFlightRecorder(trace::FlightRecorder *r) { recorder_ = r; }

  private:
    /** One integration step of the in-flight save. */
    void saveStep();
    void finishSave();
    void failSave(const char *reason);
    void finishRestore();

    /** Open a fresh dirty baseline: flash == DRAM right now. */
    void establishBaseline();

    /** Advance the in-flight save to @p target_bytes programmed. */
    void programProgress(uint64_t target_bytes);

    /** Extend the programmed flash suffix to @p target_bytes. */
    void programFlashTo(uint64_t target_bytes);

    /** Program the next dirty pages (top-down) up to @p target_bytes. */
    void programIncrementalTo(uint64_t target_bytes);

    NvdimmConfig config_;
    Ultracapacitor ultracap_;
    SparseMemory dram_;
    SparseMemory flash_;
    bool flashValid_ = false;
    bool armed_ = false;
    bool hostPower_ = true;
    NvdimmState state_ = NvdimmState::Active;

    Tick saveStarted_ = 0;
    Tick saveDeadline_ = 0;
    Tick saveTotalDuration_ = 0;
    Tick lastSaveStep_ = 0;
    Tick savePoweredTime_ = 0;
    uint64_t flashSavedBytes_ = 0;
    uint64_t flashGeneration_ = 0;
    uint64_t epoch_ = 0;
    uint64_t savesCompleted_ = 0;
    uint64_t restoresCompleted_ = 0;

    // Incremental-save engine state ------------------------------------
    bool flashTainted_ = false;   ///< media fault since last full image
    bool baselineValid_ = false;  ///< flash matched DRAM at baseline
    uint64_t baselineEpoch_ = 0;  ///< dram_ dirty epoch of the baseline
    bool saveIncremental_ = false;    ///< in-flight save is a delta
    uint64_t savePendingBytes_ = 0;   ///< bytes this save must program
    uint64_t saveProgrammedBytes_ = 0;
    std::vector<uint64_t> savePlan_;  ///< dirty pages, highest first
    size_t savePlanCursor_ = 0;
    uint64_t incrementalSavesCompleted_ = 0;
    uint64_t lazyRestoresCompleted_ = 0;
    uint64_t lastSaveProgrammedBytes_ = 0;
    uint64_t saveMismatches_ = 0;

    trace::FlightRecorder *recorder_ = nullptr;

    /** Integration step for ultracap discharge during a save. */
    static constexpr Tick kSaveStep = fromMillis(10.0);
};

} // namespace wsp
