#include "crashsim/pheap_crash.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "crashsim/conditions/conditions.h"
#include "crashsim/invariants.h"
#include "pheap/policies.h"
#include "util/rng.h"

namespace wsp::crashsim {

namespace {

using pmem::LogRecord;
using pmem::LogRecordType;
using pmem::Offset;
using pmem::PersistentRegion;
using pmem::PHeap;
using pmem::PHeapConfig;
using pmem::RedoWrite;
using pmem::StmPolicy;
using pmem::TornBitLog;
using pmem::UndoPolicy;

constexpr uint64_t kRegionSize = 32ull * 1024 * 1024;
constexpr int kCells = 4;
constexpr uint64_t kPhaseBit = 1ull << 63;

std::string
scratchPath(const std::string &dir, const char *name, int index)
{
    return dir + "/wsp_crashsim_" + name + "_" +
           std::to_string(::getpid()) + "_" + std::to_string(index) +
           ".img";
}

PHeapConfig
heapConfig(const std::string &path, unsigned truncate_every)
{
    PHeapConfig config;
    config.regionSize = kRegionSize;
    config.path = path;
    config.durableLogs = true;
    config.redoTruncateEvery = truncate_every;
    return config;
}

uint64_t
cellValue(PHeap &heap, Offset cells, int index)
{
    return *heap.region().at<uint64_t>(cells +
                                       static_cast<uint64_t>(index) * 8);
}

void
checkCells(PHeap &heap, Offset cells, uint64_t expected,
           const char *what, PheapSweepReport *report)
{
    for (int c = 0; c < kCells; ++c) {
        const uint64_t got = cellValue(heap, cells, c);
        if (got != expected)
            addViolation(&report->violations,
                         "%s: cell %d holds %llu, expected %llu", what,
                         c, static_cast<unsigned long long>(got),
                         static_cast<unsigned long long>(expected));
    }
}

/**
 * The pheap sweeps model each transaction as one operation on a
 * single logical key (the cell quad, which always moves in lockstep):
 * transaction k is put(1, value_k). Op 0 is the initial format —
 * responded and persisted by construction — so "all transactions
 * rolled back" is a real state, not an absent key.
 */
conditions::HistoryOp
pheapOp(uint64_t id, uint64_t value, bool responded, bool persisted)
{
    conditions::HistoryOp op;
    op.id = id;
    op.key = 1;
    op.value = value;
    op.invoked = true;
    op.applied = true;
    op.responded = responded;
    op.persisted = persisted;
    return op;
}

// undo ---------------------------------------------------------------

PheapSweepReport
sweepUndo(int txns, const std::string &dir)
{
    PheapSweepReport report;
    for (int committed = 0; committed <= txns; ++committed) {
        for (bool midtxn : {false, true}) {
            const std::string path = scratchPath(
                dir, "undo", committed * 2 + (midtxn ? 1 : 0));
            std::remove(path.c_str());
            Offset cells = 0;
            std::vector<std::pair<uint64_t, bool>> persist_events;
            {
                PHeap heap(heapConfig(path, 64));
                heap.undoLog().setPersistObserver(
                    [&persist_events](uint64_t txn_id, bool ok) {
                        persist_events.emplace_back(txn_id, ok);
                    });
                cells = heap.region().header().heapStart;
                for (int i = 0; i < committed; ++i) {
                    UndoPolicy::run(heap, [&](UndoPolicy::Tx &tx) {
                        for (int c = 0; c < kCells; ++c) {
                            auto *word = heap.region().at<uint64_t>(
                                cells + static_cast<uint64_t>(c) * 8);
                            tx.write(word, tx.read(word) + 1);
                        }
                    });
                }
                if (midtxn) {
                    // Crash with a transaction in flight: the dirty
                    // cells must be rolled back on recovery.
                    heap.undoLog().txBegin();
                    UndoPolicy::Tx tx(heap);
                    for (int c = 0; c < kCells; ++c) {
                        auto *word = heap.region().at<uint64_t>(
                            cells + static_cast<uint64_t>(c) * 8);
                        tx.write(word, uint64_t{0xdeadbeef});
                    }
                }
            }
            {
                PHeap heap(heapConfig(path, 64));
                ++report.recoveries;
                char what[64];
                std::snprintf(what, sizeof(what),
                              "undo k=%d midtxn=%d", committed,
                              midtxn ? 1 : 0);
                checkCells(heap, cells,
                           static_cast<uint64_t>(committed), what,
                           &report);

                // The formal view of the same run: every committed
                // transaction hit its persist point (the log's
                // observer fired at the commit-marker fence), the
                // in-flight one did not.
                if (static_cast<int>(persist_events.size()) != committed)
                    addViolation(&report.violations,
                                 "%s: persist observer fired %zu "
                                 "times, expected %d",
                                 what, persist_events.size(), committed);
                std::vector<conditions::HistoryOp> history;
                history.push_back(pheapOp(0, 0, true, true));
                for (int k = 1; k <= committed; ++k)
                    history.push_back(pheapOp(
                        static_cast<uint64_t>(k),
                        static_cast<uint64_t>(k), true, true));
                const uint64_t midtxn_id =
                    static_cast<uint64_t>(committed) + 1;
                if (midtxn)
                    history.push_back(
                        pheapOp(midtxn_id, 0xdeadbeef, false, false));
                const conditions::KvState state{
                    {1, cellValue(heap, cells, 0)}};

                const conditions::ConditionResult dl =
                    conditions::checkDurableLinearizable(history, state);
                for (const std::string &violation : dl.violations)
                    addViolation(&report.violations, "%s: %s", what,
                                 violation.c_str());
                std::vector<std::pair<uint64_t, conditions::OpVerdict>>
                    verdicts;
                const conditions::ConditionResult det =
                    conditions::checkDetectableExecution(history, state,
                                                         &verdicts);
                for (const std::string &violation : det.violations)
                    addViolation(&report.violations, "%s: %s", what,
                                 violation.c_str());
                // Undo recovery promises more than explainability: the
                // in-flight transaction must come back *aborted* — a
                // rollback that left 0xdeadbeef behind would instead
                // read as a committed in-flight op.
                if (midtxn && det.ok) {
                    for (const auto &[id, verdict] : verdicts) {
                        if (id == midtxn_id &&
                            verdict != conditions::OpVerdict::Aborted)
                            addViolation(&report.violations,
                                         "%s: in-flight transaction "
                                         "was not rolled back (verdict "
                                         "committed)",
                                         what);
                    }
                }
            }
            ++report.crashPoints;
            std::remove(path.c_str());
        }
    }
    return report;
}

// stm ----------------------------------------------------------------

PheapSweepReport
sweepStm(int txns, const std::string &dir)
{
    PheapSweepReport report;
    // Two truncation regimes: one with the boundary out of reach (the
    // ring always holds every commit), one crossing boundaries every
    // 4 commits (mirroring StmCrashSweep's modular expectation).
    for (const unsigned truncate_every :
         {static_cast<unsigned>(txns) + 1, 4u}) {
        for (int committed = 0; committed <= txns; ++committed) {
            const std::string path = scratchPath(
                dir, "stm",
                static_cast<int>(truncate_every) * 1000 + committed);
            std::remove(path.c_str());
            Offset cells = 0;
            {
                PHeap heap(heapConfig(path, truncate_every));
                cells = heap.region().header().heapStart;
                for (int i = 0; i < committed; ++i) {
                    StmPolicy::run(heap, [&](StmPolicy::Tx &tx) {
                        for (int c = 0; c < kCells; ++c) {
                            auto *word = heap.region().at<uint64_t>(
                                cells + static_cast<uint64_t>(c) * 8);
                            tx.write(word, tx.read(word) + 1);
                        }
                    });
                }
                // Model losing the un-flushed in-place lines.
                for (int c = 0; c < kCells; ++c)
                    *heap.region().at<uint64_t>(
                        cells + static_cast<uint64_t>(c) * 8) = 0;
            }
            {
                PHeap heap(heapConfig(path, truncate_every));
                ++report.recoveries;
                // Commits since the last truncation are replayable
                // from the ring; at an exact boundary the ring is
                // empty and the destroyed lines stay destroyed (a
                // real cache loss cannot hit flushed lines — seeing
                // zero confirms no stale replay).
                const uint64_t expected =
                    committed % static_cast<int>(truncate_every) == 0
                        ? 0
                        : static_cast<uint64_t>(committed);
                char what[64];
                std::snprintf(what, sizeof(what),
                              "stm k=%d trunc=%u", committed,
                              truncate_every);
                checkCells(heap, cells, expected, what, &report);

                // Formal view, away from truncation boundaries (at a
                // boundary the zeroed cells model an impossible loss
                // of flushed lines, so the history would be fiction):
                // every commit persisted via the ring, so the full
                // history is the only legal BDL cut.
                if (committed % static_cast<int>(truncate_every) != 0) {
                    std::vector<conditions::HistoryOp> history;
                    history.push_back(pheapOp(0, 0, true, true));
                    for (int k = 1; k <= committed; ++k)
                        history.push_back(pheapOp(
                            static_cast<uint64_t>(k),
                            static_cast<uint64_t>(k), true, true));
                    const conditions::KvState state{
                        {1, cellValue(heap, cells, 0)}};
                    const conditions::ConditionResult bdl =
                        conditions::checkBufferedDurableLinearizable(
                            history, state);
                    for (const std::string &violation : bdl.violations)
                        addViolation(&report.violations, "%s: %s",
                                     what, violation.c_str());
                }
            }
            ++report.crashPoints;
            std::remove(path.c_str());
        }
    }
    return report;
}

// redo ---------------------------------------------------------------

/** Run @p txns absolute-value commits; record ring position after
 *  each. Returns the cell base offset. */
Offset
buildRedoHeap(PHeap &heap, int txns, std::vector<uint64_t> *end_pos)
{
    const Offset cells = heap.region().header().heapStart;
    for (int k = 1; k <= txns; ++k) {
        std::vector<RedoWrite> writes;
        for (int c = 0; c < kCells; ++c) {
            RedoWrite write;
            write.target = cells + static_cast<uint64_t>(c) * 8;
            write.len = 8;
            write.bytes.resize(8);
            const auto value = static_cast<uint64_t>(k);
            std::memcpy(write.bytes.data(), &value, 8);
            writes.push_back(std::move(write));
        }
        heap.redoLog().commit(writes);
        if (end_pos != nullptr)
            end_pos->push_back(heap.redoLog().log().position());
    }
    return cells;
}

PheapSweepReport
sweepRedo(int txns, const std::string &dir)
{
    PheapSweepReport report;

    // Reference run to learn where each commit ends in the ring.
    std::vector<uint64_t> end_pos;
    const std::string ref_path = scratchPath(dir, "redo_ref", 0);
    std::remove(ref_path.c_str());
    {
        PHeap heap(heapConfig(ref_path,
                              static_cast<unsigned>(txns) + 2));
        buildRedoHeap(heap, txns, &end_pos);
    }
    std::remove(ref_path.c_str());
    const uint64_t final_pos = end_pos.empty() ? 0 : end_pos.back();

    // Tear the ring at every word (w == final_pos: no tear at all).
    for (uint64_t tear = 0; tear <= final_pos; ++tear) {
        const std::string path =
            scratchPath(dir, "redo", static_cast<int>(tear));
        std::remove(path.c_str());
        Offset cells = 0;
        size_t persist_points = 0;
        {
            PHeap heap(heapConfig(path,
                                  static_cast<unsigned>(txns) + 2));
            heap.redoLog().setPersistObserver(
                [&persist_points](uint64_t, bool ok) {
                    persist_points += ok ? 1 : 0;
                });
            cells = buildRedoHeap(heap, txns, nullptr);
            if (tear < final_pos) {
                // A power failure mid-append leaves the word with the
                // previous pass's phase: flip the phase bit.
                auto *words = reinterpret_cast<uint64_t *>(
                    heap.region().base() +
                    heap.region().header().redoLogStart);
                words[tear] ^= kPhaseBit;
            }
            // The in-place lines never reached NVRAM.
            for (int c = 0; c < kCells; ++c)
                *heap.region().at<uint64_t>(
                    cells + static_cast<uint64_t>(c) * 8) = 0;
        }
        {
            PHeap heap(heapConfig(path,
                                  static_cast<unsigned>(txns) + 2));
            ++report.recoveries;
            // Exactly the commits wholly inside the intact prefix
            // replay; the last one's absolute value wins.
            const uint64_t expected = static_cast<uint64_t>(
                std::count_if(end_pos.begin(), end_pos.end(),
                              [tear](uint64_t end) {
                                  return end <= tear;
                              }));
            char what[64];
            std::snprintf(what, sizeof(what), "redo tear=%llu",
                          static_cast<unsigned long long>(tear));
            checkCells(heap, cells, expected, what, &report);

            if (persist_points != static_cast<size_t>(txns))
                addViolation(&report.violations,
                             "%s: persist observer fired %zu times, "
                             "expected %d",
                             what, persist_points, txns);

            // Formally: every commit responded before the crash, but
            // only the ones wholly inside the intact ring prefix
            // persisted. The torn suffix loses *responded* work, so
            // the redo discipline promises buffered durable
            // linearizability, not DL — the surviving state must be
            // the persisted prefix, nothing less.
            std::vector<conditions::HistoryOp> history;
            history.push_back(pheapOp(0, 0, true, true));
            for (int k = 1; k <= txns; ++k)
                history.push_back(
                    pheapOp(static_cast<uint64_t>(k),
                            static_cast<uint64_t>(k), true,
                            end_pos[static_cast<size_t>(k) - 1] <= tear));
            const conditions::KvState state{
                {1, cellValue(heap, cells, 0)}};
            const conditions::ConditionResult bdl =
                conditions::checkBufferedDurableLinearizable(history,
                                                             state);
            for (const std::string &violation : bdl.violations)
                addViolation(&report.violations, "%s: %s", what,
                             violation.c_str());
            // No detectability check here: that condition is
            // DL-flavored (a responded op must commit), and losing a
            // responded-but-torn commit is exactly what the redo
            // discipline is allowed to do.
        }
        ++report.crashPoints;
        std::remove(path.c_str());
    }
    return report;
}

// tornbit ------------------------------------------------------------

PheapSweepReport
sweepTornBit(uint64_t seed, int txns, const std::string &dir)
{
    (void)dir; // anonymous region; nothing touches the filesystem
    PheapSweepReport report;

    PersistentRegion region(kRegionSize);
    TornBitLog log(region, region.header().undoLogStart, 16 * 1024,
                   &region.header().undoCheckpointPos,
                   &region.header().undoCheckpointPass, true);

    struct Written
    {
        LogRecordType type = LogRecordType::None;
        uint64_t id = 0;
        Offset target = 0;
        std::vector<uint8_t> payload;
    };
    std::vector<Written> written;
    std::vector<uint64_t> pos_after;

    Rng rng(seed);
    const int records = std::max(8, txns * 3);
    for (int i = 0; i < records; ++i) {
        if (rng.chance(0.35)) {
            Written w;
            w.type = rng.chance(0.5) ? LogRecordType::TxnBegin
                                     : LogRecordType::TxnCommit;
            w.id = rng.next(1000);
            log.appendMarker(w.type, w.id);
            written.push_back(std::move(w));
        } else {
            Written w;
            w.type = LogRecordType::Data;
            w.target = rng.next(kRegionSize);
            w.payload.resize(1 + rng.next(40));
            for (auto &b : w.payload)
                b = static_cast<uint8_t>(rng());
            log.appendData(w.target, w.payload.data(),
                           static_cast<uint32_t>(w.payload.size()));
            written.push_back(std::move(w));
        }
        pos_after.push_back(log.position());
    }

    auto *words = reinterpret_cast<uint64_t *>(
        region.base() + region.header().undoLogStart);
    for (uint64_t tear = 0; tear < log.position(); ++tear) {
        words[tear] ^= kPhaseBit;
        const std::vector<LogRecord> scanned = log.scan();
        words[tear] ^= kPhaseBit;
        ++report.crashPoints;
        ++report.recoveries;

        // Exact-prefix property: the scan must return precisely the
        // records wholly before the torn word, each intact.
        const auto expected = static_cast<size_t>(std::count_if(
            pos_after.begin(), pos_after.end(),
            [tear](uint64_t end) { return end <= tear; }));
        if (scanned.size() != expected) {
            addViolation(&report.violations,
                         "tornbit tear=%llu: scanned %zu records, "
                         "expected %zu",
                         static_cast<unsigned long long>(tear),
                         scanned.size(), expected);
            continue;
        }
        for (size_t i = 0; i < scanned.size(); ++i) {
            const Written &want = written[i];
            if (scanned[i].type != want.type ||
                (want.type == LogRecordType::Data
                     ? (scanned[i].target != want.target ||
                        scanned[i].payload != want.payload)
                     : scanned[i].txnId != want.id))
                addViolation(&report.violations,
                             "tornbit tear=%llu: record %zu decoded "
                             "wrong",
                             static_cast<unsigned long long>(tear), i);
        }
    }
    return report;
}

} // namespace

const char *
pheapDisciplineName(PheapDiscipline discipline)
{
    switch (discipline) {
      case PheapDiscipline::Undo:
        return "undo";
      case PheapDiscipline::Stm:
        return "stm";
      case PheapDiscipline::Redo:
        return "redo";
      case PheapDiscipline::TornBit:
        return "tornbit";
    }
    return "unknown";
}

std::vector<PheapDiscipline>
allPheapDisciplines()
{
    return {PheapDiscipline::Undo, PheapDiscipline::Stm,
            PheapDiscipline::Redo, PheapDiscipline::TornBit};
}

PheapSweepReport
sweepPheapCrashPoints(PheapDiscipline discipline, uint64_t seed,
                      int txns, const std::string &scratch_dir)
{
    switch (discipline) {
      case PheapDiscipline::Undo:
        return sweepUndo(txns, scratch_dir);
      case PheapDiscipline::Stm:
        return sweepStm(txns, scratch_dir);
      case PheapDiscipline::Redo:
        return sweepRedo(txns, scratch_dir);
      case PheapDiscipline::TornBit:
        return sweepTornBit(seed, txns, scratch_dir);
    }
    return {};
}

} // namespace wsp::crashsim
