/**
 * @file
 * Exhaustive crash-point sweeps for the persistent-heap disciplines.
 *
 * The system-level explorer (crash_explorer.h) kills a whole machine;
 * these sweeps attack the NV-heap's own recovery logic at finer
 * grain, one discipline at a time:
 *
 *  - undo:    crash after every committed-transaction count, with and
 *             without an uncommitted transaction in flight; recovery
 *             must roll back to exactly the committed prefix,
 *  - stm:     crash with the un-flushed in-place lines destroyed
 *             after every transaction count (including right at a
 *             truncation boundary); the redo ring must win,
 *  - redo:    tear the redo ring at *every word* (flip the phase bit,
 *             as a power failure mid-append leaves it) and verify the
 *             replay applies exactly the commits wholly inside the
 *             intact prefix,
 *  - tornbit: tear the raw ring at every word and verify the scan
 *             returns exactly the records wholly before the tear.
 *
 * All sweeps report violations as strings rather than asserting, so
 * both the GTest suite and tools/crash_sweep can consume them.
 */

#pragma once

#include <string>
#include <vector>

namespace wsp::crashsim {

/** Which pheap recovery mechanism a sweep exercises. */
enum class PheapDiscipline {
    Undo,
    Stm,
    Redo,
    TornBit,
};

/** Short name ("undo", "stm", "redo", "tornbit"). */
const char *pheapDisciplineName(PheapDiscipline discipline);

/** All four disciplines, for sweep-everything loops. */
std::vector<PheapDiscipline> allPheapDisciplines();

/** Outcome of one discipline's sweep. */
struct PheapSweepReport
{
    size_t crashPoints = 0; ///< distinct crash scenarios executed
    size_t recoveries = 0;  ///< recovery runs (region reopens/scans)
    std::vector<std::string> violations;

    bool allHeld() const { return violations.empty(); }
};

/**
 * Run the exhaustive sweep for @p discipline. @p txns bounds the
 * transaction counts swept; @p scratch_dir holds the file-backed
 * region images (removed afterwards).
 */
PheapSweepReport sweepPheapCrashPoints(PheapDiscipline discipline,
                                       uint64_t seed, int txns,
                                       const std::string &scratch_dir);

} // namespace wsp::crashsim
