/**
 * @file
 * One fully-specified crash scenario, serializable for replay.
 *
 * A CrashSchedule pins down everything that makes a crash run
 * deterministic: the RNG seed, the workload size, the instant of the
 * AC failure, the exact residual-energy window (which is where the
 * hard power loss lands relative to the save sequence), the outage
 * length, and the sabotage knobs (outage trains, drained or
 * undersized ultracapacitors, the deliberately broken save order).
 * The explorer enumerates and fuzzes over schedules; any failing one
 * is minimized and written to a small text file that tools/crash_replay
 * re-executes bit-for-bit.
 */

#pragma once

#include <optional>
#include <string>

#include "core/wsp_config.h"
#include "util/units.h"

namespace wsp::crashsim {

/**
 * Which formal correctness condition(s) the conditions battery
 * evaluates at each crash point (see src/crashsim/conditions/). All
 * runs every checker; the narrower modes are for sweeps that isolate
 * one condition (e.g. a buffered-only sweep to show a bug violates
 * durable linearizability but not buffered durable linearizability).
 */
enum class ConditionMode : uint8_t
{
    All = 0,
    DurableLin,
    BufferedDurableLin,
    Detectable,
};

/** "all" / "durable-lin" / "buffered" / "detectable". */
const char *conditionModeName(ConditionMode mode);

/** Inverse of conditionModeName. @return nullopt on unknown name. */
std::optional<ConditionMode> conditionModeFromName(const std::string &name);

/** Deterministic description of one crash/recovery scenario. */
struct CrashSchedule
{
    /** Seed for the system and the workload stream. */
    uint64_t seed = 0x43524153ull; // "CRAS"

    /** AC input failure, this long after the workload starts. */
    Tick failDelay = fromMillis(5.0);

    /**
     * Exact residual window: the hard power loss lands this long
     * after the PWR_OK drop. This is the crash instant being swept.
     */
    Tick window = fromMillis(33.0);

    /** Outage length before power returns. */
    Tick outage = fromSeconds(2.0);

    /** KV workload operations scheduled onto the event queue. */
    unsigned ops = 64;

    /** Spacing between successive workload operations. */
    Tick opSpacing = fromMicros(50.0);

    /** Same-system outage/restore cycles before the final captured
     *  crash (1 = no train, just the one crash). */
    unsigned trainCycles = 1;

    /** Uptime between train cycles. */
    Tick trainSpacing = fromMillis(5.0);

    /** Pre-drain this module's ultracapacitor (-1 = none). */
    int drainModule = -1;

    /** Target voltage of the pre-drain. */
    double drainVoltage = 0.0;

    /** Undersize every module's ultracapacitor bank. */
    bool undersizedCaps = false;

    /** Attach the paper's device set (slower, more crash points). */
    bool withDevices = false;

    /** Marker-vs-flush ordering (the broken one is the planted bug). */
    SaveOrder saveOrder = SaveOrder::MarkerAfterFlush;

    /** KV shards the workload stripes over (power of two). */
    unsigned shards = 1;

    /** Run the save with the parallel per-core flush path. */
    bool parallelSave = false;

    /**
     * Salvage regime: register the KV shards as tiered salvage
     * regions and wire per-shard recovery hooks, so degraded saves
     * and media faults recover region by region.
     */
    bool salvage = false;

    /** Silent flash media faults injected into the captured image. */
    unsigned mediaFaults = 0;

    /** Fault kind (-1 = mixed, else a MediaFaultKind value 0..2). */
    int mediaFaultKind = -1;

    /** Extra seed for the deterministic fault placement. */
    uint64_t mediaFaultSeed = 0;

    /** Force a degraded save at this tier cut (-1 = no forcing). */
    int degradeTier = -1;

    /** Drop the next N NVDIMM commands on the I2C bus. */
    unsigned dropSaveCommands = 0;

    /** Planted bug: restore trusts the directory, skipping the CRCs. */
    bool trustDirectory = false;

    /**
     * Allow delta saves: modules program only pages dirtied since
     * their last completed save (first save is always full). Off
     * forces every save to program the whole capacity.
     */
    bool incrementalSave = true;

    /** Boot restores map the flash image lazily instead of streaming. */
    bool lazyRestore = false;

    /**
     * NVRAM-backed black-box flight recorder during the run. On by
     * default so every failing schedule carries a decodable forensic
     * timeline; the incremental-equivalence sweep turns it off because
     * the full and delta saves record different event arguments into
     * otherwise equivalent images.
     */
    bool blackBox = true;

    /** Correctness condition(s) the conditions battery evaluates. */
    ConditionMode condition = ConditionMode::All;

    /**
     * Delay between a KV operation taking effect and its response
     * reaching the caller. Kept under opSpacing so the workload stays
     * sequential (at most one operation in flight at any instant).
     */
    Tick ackDelay = fromMicros(20.0);

    /**
     * Planted bug: acknowledge each operation *before* it applies
     * (response at t, mutation at t + ackDelay). A crash landing in
     * that gap leaves a completed operation with no surviving effect —
     * a durable-linearizability violation that buffered durable
     * linearizability, by design, forgives.
     */
    bool ackBeforeApply = false;

    /**
     * Fleet mode: run the schedule against a replicated fleet of this
     * many nodes instead of one machine (0 = single-machine schedule,
     * the default; everything below is ignored then). See
     * src/fleet/fleet_sweep.h for the fleet interpretation of the
     * shared fields (window, outage, trainCycles, ops, salvage).
     */
    unsigned fleetNodes = 0;

    /** Replication factor R (clamped to fleetNodes at run time). */
    unsigned fleetReplication = 3;

    /**
     * Bitmask of nodes each outage-train cycle kills (bit i = node i);
     * 0 means "kill every node" (whole-datacenter outage). Masked
     * against the node count at run time.
     */
    uint64_t fleetKillMask = 0;

    /**
     * Recovery policy for killed nodes: 0 = WSP-local restore,
     * 1 = backend refill, 2 = WSP restore + degraded read-only tier
     * until anti-entropy certifies convergence.
     */
    int fleetPolicy = 0;

    /** Replay-file serialization (text, one key=value per line). */
    std::string serialize() const;

    /** Parse serialize() output. @return nullopt on malformed input. */
    static std::optional<CrashSchedule> parse(const std::string &text);

    /** Write the serialized schedule to @p path. */
    bool writeFile(const std::string &path) const;

    /** Read and parse a schedule file. */
    static std::optional<CrashSchedule> readFile(const std::string &path);

    /** One-line human summary ("window=2.95ms ops=64 train=1 ..."). */
    std::string summary() const;

    bool operator==(const CrashSchedule &other) const = default;
};

} // namespace wsp::crashsim
