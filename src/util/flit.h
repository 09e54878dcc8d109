/**
 * @file
 * FliT-style per-object flush tracking and operation histories.
 *
 * FliT (arXiv 2108.04202) makes persistence boundaries cheap and
 * declarative: every persistent object carries a small counter that
 * stores increment and flushes clear, so a load can tell in O(1)
 * whether the object has an outstanding (unflushed) store. This
 * library is the simulator's version of that idea, at cache-line
 * granularity, plus the piece the formal correctness conditions need
 * on top: per-operation history records.
 *
 * A data structure (KvStore, ShardedKvStore, the pheap logs) declares
 * its persistence boundaries by routing stores through a FlitTracker;
 * the cache model reports write-backs and losses into the same
 * tracker. The tracker then knows, for every operation, the three
 * instants the correctness-conditions taxonomy (arXiv 2208.11114) is
 * built from:
 *
 *   - invocation  (the operation started executing),
 *   - response    (the caller observed the result),
 *   - persist     (the last line the operation dirtied reached the
 *                  NV domain — the FliT counters of all its lines
 *                  dropped to zero).
 *
 * The crashsim conditions checkers (src/crashsim/conditions/) consume
 * these records to decide durable linearizability, buffered durable
 * linearizability, and detectable execution at any crash instant.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "util/units.h"

namespace wsp::util {

/** "Never happened" sentinel for history ticks. */
constexpr Tick kNoTick = ~0ull;

/** One operation's history record (invocation, response, persist). */
struct FlitOp
{
    uint64_t id = 0;   ///< dense, in declaration order
    uint8_t kind = 0;  ///< application-defined opcode
    uint64_t a = 0;    ///< first operand (e.g. key)
    uint64_t b = 0;    ///< second operand (e.g. value)
    bool ok = false;   ///< response outcome

    bool invoked = false;   ///< started executing
    bool applied = false;   ///< mutation reached the data structure
    bool responded = false; ///< caller observed the result

    Tick invokeTick = kNoTick;
    Tick responseTick = kNoTick;

    /**
     * Instant the operation's last outstanding store was written back
     * to the NV domain; kNoTick while any line still carries a
     * nonzero flush counter (or was lost with the cache).
     */
    Tick persistTick = kNoTick;

    /** (line base, store sequence) of every line the op dirtied. */
    std::vector<std::pair<uint64_t, uint64_t>> lines;
};

/**
 * Per-line flush counters plus the operation histories built on them.
 * Single-threaded, like the simulator's event loop.
 */
class FlitTracker
{
  public:
    /** Clock the tracker stamps history ticks with. */
    void setClock(std::function<Tick()> clock) { clock_ = std::move(clock); }

    // Operation lifecycle ----------------------------------------------

    /** Declare an operation (not yet invoked); returns its id. */
    uint64_t declareOp(uint8_t kind, uint64_t a, uint64_t b);

    /** The operation started executing; its stores are attributed to
     *  it until endApply(). */
    void beginApply(uint64_t id);

    /** The operation finished mutating the data structure. */
    void endApply();

    /** The caller observed the result (@p ok, result operand @p b). */
    void respond(uint64_t id, bool ok, uint64_t b);

    // Store / flush plumbing -------------------------------------------

    /**
     * A store of @p len bytes at @p addr by the current operation:
     * bumps the flush counter of every line it touches (FliT's
     * store-side increment). Stores outside beginApply/endApply are
     * counted per line but belong to no operation.
     */
    void onStore(uint64_t addr, uint64_t len);

    /** Line @p line_base was written back to the NV domain (FliT's
     *  flush-side clear). */
    void onWriteback(uint64_t line_base);

    /** Line @p line_base was lost with the cache (power loss without
     *  write-back): its pending stores will never persist. */
    void onLineLost(uint64_t line_base);

    // Queries ----------------------------------------------------------

    /** FliT counter: stores to @p line_base since its last write-back. */
    uint64_t pendingStores(uint64_t line_base) const;

    /** Every store of @p op reached the NV domain (all counters it
     *  contributed to have been cleared since). */
    bool opPersisted(const FlitOp &op) const;

    /**
     * As opPersisted(), additionally requiring every line to satisfy
     * @p covered — e.g. "lies in the flash-programmed suffix of its
     * NVDIMM module", for images where DRAM content decayed.
     */
    bool opPersisted(const FlitOp &op,
                     const std::function<bool(uint64_t)> &covered) const;

    const std::vector<FlitOp> &ops() const { return ops_; }
    FlitOp &op(uint64_t id) { return ops_.at(id); }

    /** Forget all operations and counters. */
    void reset();

  private:
    struct LineState
    {
        uint64_t pending = 0;          ///< FliT counter
        uint64_t lastStoreSeq = 0;     ///< seq of the newest store
        uint64_t lastWritebackSeq = 0; ///< seq when last cleared
        Tick lastWritebackTick = kNoTick;

        /**
         * Stores with seq in (wbAtLoss, lostSeq] were discarded with
         * the cache: a write-back after the loss must not certify
         * them (it only covers stores issued since).
         */
        uint64_t lostSeq = 0;
        uint64_t wbAtLoss = 0;

        /**
         * Ops that stored to this line and were not yet found
         * persisted at one of its write-backs: a superset of the
         * unpersisted ops touching the line, so a write-back visits
         * only them instead of every op in the history. The op being
         * applied stays listed until endApply(), since it can store
         * to the line again after a write-back in the middle of its
         * apply.
         */
        std::vector<uint64_t> waiting;
    };

    Tick now() const { return clock_ ? clock_() : 0; }

    /** Stamp persistTick on the ops @p ls's write-back completed. */
    void settleOpsOn(LineState &ls);

    std::function<Tick()> clock_;
    std::vector<FlitOp> ops_;
    std::unordered_map<uint64_t, LineState> lines_;
    uint64_t currentOp_ = kNoOp;
    uint64_t storeSeq_ = 0;

    static constexpr uint64_t kNoOp = ~0ull;
};

} // namespace wsp::util
