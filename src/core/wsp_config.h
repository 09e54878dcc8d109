/**
 * @file
 * Configuration and report types for the WSP core.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "devices/device_manager.h"
#include "util/units.h"

namespace wsp {

/** How the save routine flushes transient cache state (Table 2). */
enum class FlushMethod {
    Wbinvd,      ///< wbinvd per socket: flat cost, no dirty tracking
    ClflushLoop, ///< clflush walk over the whole cache (ablation)
};

/**
 * What the boot path restores (paper section 6, "Process
 * persistence").
 *
 * WholeSystem resumes the entire machine image: OS structures, device
 * driver state (modulo the device policy), and every thread context.
 * ProcessOnly boots a *fresh* OS instance and hands surviving
 * application memory to re-attached applications — the
 * Otherworld/Drawbridge direction: thread contexts and stacks are
 * still saved by flush-on-fail, but the kernel is not resumed, so the
 * restore pays a full kernel boot and applications re-attach to their
 * state instead of continuing blindly.
 */
enum class RestoreMode {
    WholeSystem,
    ProcessOnly,
};

/** Human-readable restore mode name. */
std::string restoreModeName(RestoreMode mode);

/**
 * Order of the valid-marker write relative to the cache flush in the
 * save routine. MarkerAfterFlush is the paper's (correct) protocol:
 * the marker is stamped only once every dirty line is safely in
 * NVRAM. MarkerBeforeFlush is a deliberately broken variant kept for
 * the crashsim harness: a power loss between the stamp and the flush
 * leaves a marker that vouches for an image whose application state
 * never reached memory — the exact bug class the crash-point sweep
 * must be able to catch.
 */
enum class SaveOrder {
    MarkerAfterFlush,
    MarkerBeforeFlush,
};

/**
 * Priority tier of a saved memory region. When a save runs degraded
 * (energy self-test failed, or forced) it persists tiers from the top
 * down and records how far it got: Core state must always make it,
 * shard metadata next, bulk data last. A region's tier is the price
 * of losing it.
 */
enum class SaveTier {
    Core = 0,     ///< CPU contexts, resume block, valid marker
    Metadata = 1, ///< KV shard directories, allocator roots
    Bulk = 2,     ///< application data; first to be dropped
};

/** Human-readable save tier name. */
std::string saveTierName(SaveTier tier);

/** Tunable behaviour of the WSP save/restore machinery. */
struct WspConfig
{
    FlushMethod flushMethod = FlushMethod::Wbinvd;

    /** Whole-system resume vs process persistence (section 6). */
    RestoreMode restoreMode = RestoreMode::WholeSystem;

    /** Full kernel boot cost in ProcessOnly mode (fresh OS). */
    Tick freshKernelBootLatency = fromSeconds(20.0);

    /** Device recovery strategy (paper section 4). */
    DevicePolicy devicePolicy = DevicePolicy::VirtualizedReplay;

    /** Arm NVDIMMs for hardware-triggered save on power loss. */
    bool armNvdimms = true;

    /** Marker-vs-flush ordering; only crashsim sets the broken one. */
    SaveOrder saveOrder = SaveOrder::MarkerAfterFlush;

    /**
     * Parallel flush-on-fail: partition each socket cache's dirty
     * lines across the socket's logical CPUs and flush the partitions
     * concurrently, charging the residual window the slowest CPU
     * instead of a whole-cache walk. Off by default so the calibrated
     * Table 2 / Fig. 8 wbinvd numbers keep reproducing.
     */
    bool parallelFlush = false;

    /** Firmware (BIOS + bootloader) latency on the boot path. */
    Tick firmwareBootLatency = fromSeconds(5.0);

    /** OS scheduler/runtime resume cost after contexts are restored. */
    Tick osResumeLatency = fromMillis(200.0);

    /** Fresh host-OS device stack boot for virtualized replay. */
    Tick hostStackBootLatency = fromSeconds(4.0);

    /** Control-processor cost to issue the NVDIMM save command. */
    Tick commandIssueLatency = fromMicros(2.0);

    /**
     * Period of the energy-margin health self-test; 0 disables the
     * monitor entirely (the seed-calibrated default).
     */
    Tick healthCheckPeriod = 0;

    /** Safety margin the self-test demands on top of the predicted
     *  save energy. */
    double healthEnergyMargin = 0.25;

    /** Force every save to run degraded (tests and fault storms). */
    bool forceDegradedSave = false;

    /** Tier cut applied when a save degrades: tiers <= cut persist. */
    SaveTier degradedTierCut = SaveTier::Metadata;

    /** Backoff before a degraded save re-issues a lost NVDIMM save
     *  command (I2C glitch tolerance). */
    Tick saveCommandRetryBackoff = fromMicros(300.0);

    /** Effective bandwidth of the save-path CRC pass over saved
     *  regions (bytes/second). */
    double salvageCrcBandwidth = 8.0e9;

    /**
     * DELIBERATE BUG KNOB for the crashsim harness: accept salvage
     * directory entries without re-verifying region CRCs on restore.
     * A media fault then revives corrupt data silently — the
     * NoSilentCorruption checker must catch exactly this.
     */
    bool trustSalvageDirectory = false;

    /**
     * Black-box flight recorder: the controller builds this machine's
     * own crash-surviving ring (a reserved region below the salvage
     * directory, published with the marker discipline). false builds
     * no recorder, and nothing is recorded.
     */
    bool flightRecorder = true;
};

/** One timed step of the save or restore sequence. */
struct StepTiming
{
    std::string step;
    Tick start = 0;
    Tick end = 0;

    Tick duration() const { return end - start; }
};

/** Outcome of one flush-on-fail save attempt (paper Fig. 4, 1-8). */
struct SaveReport
{
    bool completed = false;  ///< reached the final halt
    Tick started = 0;        ///< host interrupt delivery tick
    Tick halted = 0;         ///< control processor halt tick
    Tick deviceSuspendTime = 0; ///< strawman policy only
    Tick contextSaveTime = 0;
    Tick cacheFlushTime = 0;
    Tick markerTime = 0;
    uint64_t dirtyBytesFlushed = 0;
    std::vector<StepTiming> steps;

    bool degraded = false; ///< ran the tiered degraded-mode path
    SaveTier tierCut = SaveTier::Bulk; ///< deepest tier persisted
    unsigned regionsDropped = 0; ///< registered regions beyond the cut
    unsigned saveCommandRetries = 0; ///< NVDIMM command re-issues
    uint64_t directoryChecksum = 0; ///< salvage directory checksum

    /** Total save-path latency. */
    Tick duration() const { return halted - started; }
};

/** Fate of one registered salvage region on the restore path. */
struct RegionOutcome
{
    std::string name;
    uint64_t base = 0;
    uint64_t size = 0;
    SaveTier tier = SaveTier::Bulk;
    bool saved = false;       ///< the save persisted this region
    bool salvaged = false;    ///< CRC verified, contents kept
    bool quarantined = false; ///< scrubbed; contents discarded
    bool recovered = false;   ///< per-region recovery hook rebuilt it
};

/** Outcome of one boot-path restore attempt (paper Fig. 4, 10-14). */
struct RestoreReport
{
    bool usedWsp = false;     ///< resumed from NVRAM (vs back end)
    bool flashValid = false;  ///< NVDIMM images were restorable
    bool markerValid = false; ///< valid marker found
    bool checksumOk = false;  ///< resume block matched the marker
    bool generationOk = true; ///< image generation matched this epoch
    bool directoryOk = true;  ///< marker-bound salvage directory decoded
    bool salvageMode = false; ///< cold boot salvaged checksummed regions
    bool contextsRestored = false; ///< thread contexts resumed
                                   ///< (WholeSystem mode only)
    SaveTier imageTierCut = SaveTier::Bulk; ///< tier cut the image carries
    uint64_t imageGeneration = 0; ///< boot sequence stamped in the marker
    std::vector<RegionOutcome> regions; ///< per-region salvage fates
    unsigned regionsSalvaged = 0;
    unsigned regionsQuarantined = 0;
    unsigned regionsRecovered = 0;
    Tick started = 0;
    Tick finished = 0;
    Tick nvdimmRestoreTime = 0;
    DeviceRestoreReport deviceReport;
    std::vector<StepTiming> steps;

    /** Total boot-to-running latency. */
    Tick duration() const { return finished - started; }
};

} // namespace wsp
