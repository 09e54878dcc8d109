/**
 * @file
 * Write-ahead undo log over the torn-bit ring.
 *
 * The paper's "minimal NV-heap" (section 3.2) provides persistence —
 * crash consistency — without isolation: before each in-place update
 * the old value is appended to a torn-bit raw log with non-temporal
 * stores; on commit the updated cache lines are flushed and a commit
 * marker is appended. Recovery rolls back the records of the one
 * transaction that has a Begin but no Commit/Abort.
 *
 * In flush-on-fail mode the same structure runs entirely in-cache
 * (plain stores, no fences, no commit-time flushes): its content is
 * made durable by WSP's failure-time flush instead, which is exactly
 * the FoF + UL configuration of Fig. 5.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "pheap/tornbit_log.h"

namespace wsp::pmem {

/** Undo-log statistics (tests and benches). */
struct UndoLogStats
{
    uint64_t txnsCommitted = 0;
    uint64_t txnsAborted = 0;
    uint64_t recordsLogged = 0;
    uint64_t bytesLogged = 0;
    /// Transactions whose persist point was reached (durable mode
    /// only: in-place lines flushed + commit/abort marker fenced).
    uint64_t persistPoints = 0;
};

/** Per-heap undo log. Not thread-safe (one per thread or lock). */
class UndoLog
{
  public:
    /**
     * @param flush_on_commit durable appends (NT stores + fences) and
     *        commit-time flushing of updated lines when true; pure
     *        in-cache operation when false (flush-on-fail mode).
     */
    UndoLog(PersistentRegion &region, bool flush_on_commit);

    const UndoLogStats &stats() const { return stats_; }

    /** Begin a transaction (appends a Begin marker). */
    void txBegin();

    /**
     * Record the current (old) bytes at @p addr before the caller
     * overwrites them. In durable mode the record is fenced before
     * returning, making it a correct write-ahead log.
     */
    void logOldValue(const void *addr, uint32_t len);

    /** Commit: flush updated lines (durable mode), append Commit. */
    void txCommit();

    /** Abort: roll back this transaction's updates immediately. */
    void txAbort();

    /**
     * Crash recovery: scan the ring; if a transaction began but never
     * committed or aborted, restore its old values (newest first).
     * Resets the ring afterwards.
     * @return number of data records rolled back.
     */
    size_t recover();

    /**
     * Observe each transaction's persist point — the instant its
     * outcome is durable: commit (in-place lines flushed, Commit
     * marker fenced) or abort (old values restored, Abort marker
     * fenced). Fires in durable mode only; in flush-on-fail mode the
     * persist point is the failure-time flush, not a per-transaction
     * event. Feeds the correctness-conditions history records
     * (src/crashsim/conditions/).
     */
    void setPersistObserver(
        std::function<void(uint64_t txn_id, bool committed)> observer)
    {
        persistObserver_ = std::move(observer);
    }

  private:
    PersistentRegion &region_;
    TornBitLog log_;
    bool flushOnCommit_;
    bool inTxn_ = false;
    uint64_t nextTxnId_ = 1;
    UndoLogStats stats_;
    std::function<void(uint64_t, bool)> persistObserver_;

    /** Ranges updated in the current transaction (for commit flush
     *  and for immediate rollback on abort). */
    struct Touched
    {
        Offset target;
        uint32_t len;
        std::vector<uint8_t> oldBytes;
    };
    std::vector<Touched> touched_;

    /** Scratch set for commit-time line deduplication. */
    std::unordered_set<uint64_t> lineSet_;
};

} // namespace wsp::pmem
