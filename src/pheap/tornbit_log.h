/**
 * @file
 * Torn-bit raw log ring.
 *
 * Mnemosyne's raw log (which the paper's minimal NV-heap reuses for
 * its undo log: "undo log records are written efficiently to a
 * torn-bit raw log using non-temporal stores") steals one bit per
 * 64-bit word as a *phase* bit. The writer appends words in strictly
 * increasing ring order; the phase flips each time the ring wraps.
 * A torn append is detected without any commit record: the first
 * word whose phase does not match the current pass is the true tail,
 * because that slot was last written during the previous pass.
 *
 * Invariants that make the scan sound:
 *  - words are appended contiguously; nothing is skipped (a PAD
 *    record fills the ring tail before wrapping),
 *  - the phase flips only at wrap,
 *  - a checkpoint (position + pass) is persisted at every wrap, so
 *    recovery scans at most one full ring.
 *
 * Writers choose cached or non-temporal stores: flush-on-commit
 * configurations use non-temporal stores + fences (durable append),
 * flush-on-fail configurations use plain cached stores (the whole
 * point of the paper: the cache is flushed only on failure).
 */

#pragma once

#include <cstdint>
#include <functional>

#include "pheap/region.h"

namespace wsp::pmem {

/** Record types multiplexed onto the word stream. */
enum class LogRecordType : uint8_t {
    None = 0,
    TxnBegin = 1,
    Data = 2,     ///< old (undo) or new (redo) bytes for one range
    TxnCommit = 3,
    TxnAbort = 4,
    Pad = 5,      ///< fills the ring tail before a wrap
};

/** One decoded record (scan output). */
struct LogRecord
{
    LogRecordType type = LogRecordType::None;
    uint64_t txnId = 0;     ///< TxnBegin/TxnCommit/TxnAbort
    Offset target = 0;      ///< Data: destination offset in the region
    uint32_t byteLen = 0;   ///< Data: number of payload bytes
    std::vector<uint8_t> payload; ///< Data: the bytes
};

/** The raw word ring with phase-bit framing. */
class TornBitLog
{
  public:
    /**
     * @param region     backing region
     * @param start      byte offset of the ring
     * @param bytes      ring size in bytes (multiple of 8)
     * @param ckpt_pos   persistent checkpoint word (position)
     * @param ckpt_pass  persistent checkpoint word (pass)
     * @param durable_appends  non-temporal stores when true, cached
     *                   stores when false (flush-on-fail mode)
     */
    TornBitLog(PersistentRegion &region, Offset start, uint64_t bytes,
               uint64_t *ckpt_pos, uint64_t *ckpt_pass,
               bool durable_appends);

    uint64_t position() const { return pos_; }
    uint64_t pass() const { return pass_; }
    uint64_t wraps() const { return wraps_; }

    /**
     * Ensure @p needed words fit without an intervening wrap; pads
     * and wraps if they do not. Call once per record.
     */
    void reserve(uint64_t needed);

    /** Append one word (payload must leave bit 63 clear). */
    void appendWord(uint64_t payload);

    /** Fence appends when in durable mode (no-op otherwise). */
    void fence();

    // Record-level helpers ---------------------------------------------

    /** Append a TxnBegin/TxnCommit/TxnAbort record. */
    void appendMarker(LogRecordType type, uint64_t txn_id);

    /** Append a Data record: target offset + byte payload. */
    void appendData(Offset target, const void *bytes, uint32_t len);

    /** Words needed by a Data record of @p len bytes. */
    static uint64_t dataRecordWords(uint32_t len);

    /**
     * Scan the ring from the persisted checkpoint to the torn tail,
     * decoding records in append order.
     */
    std::vector<LogRecord> scan() const;

    /**
     * Reset the ring after recovery or at startup: zero it, restart
     * the pass counter, persist the checkpoint.
     */
    void reset();

    /** Persist the current (position, pass) as the scan checkpoint. */
    void persistCheckpoint();

  private:
    static constexpr uint64_t kPhaseBit = 1ull << 63;

    uint64_t phaseOf(uint64_t pass) const { return (pass & 1) << 63; }
    uint64_t *wordPtr(uint64_t index);
    const uint64_t *wordPtr(uint64_t index) const;

    PersistentRegion &region_;
    Offset start_;
    uint64_t words_;
    uint64_t *ckptPos_;
    uint64_t *ckptPass_;
    bool durable_;

    uint64_t pos_ = 0;  ///< next word index to write
    uint64_t pass_ = 1; ///< current pass (phase = pass & 1)
    uint64_t wraps_ = 0;
};

} // namespace wsp::pmem
