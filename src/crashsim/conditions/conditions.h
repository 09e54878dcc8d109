/**
 * @file
 * Formal persistency correctness conditions over operation histories.
 *
 * The crash harness's original invariants (KvPrefix and friends) were
 * ad-hoc per-subsystem predicates. This library replaces the KV side
 * with instances of the conditions the persistent-memory literature
 * converged on (survey: arXiv 2208.11114), decided over explicit
 * history records — invocation, response, persist point — emitted
 * through the FliT-style tracker (util/flit.h):
 *
 *  - Durable linearizability (DL): every operation that *responded*
 *    before the crash must have its effect in the surviving state;
 *    operations in flight at the crash may surface or vanish whole.
 *
 *  - Buffered durable linearizability (BDL): the surviving state must
 *    be *some consistent cut* (a prefix of the history, since our
 *    workload is sequential), and every operation whose persist point
 *    passed must be inside the cut — but a recent suffix, responded
 *    or not, may be lost. DL ⊂ BDL: WSP's flush-on-fail promises DL
 *    (response ⇒ will be flushed at failure); an explicit-flush
 *    design only promises BDL between flushes.
 *
 *  - Detectable execution: on reboot, *every* operation — including
 *    the in-flight ones — must be classifiable as committed (effect
 *    present, whole) or aborted (no trace). A half-applied operation
 *    (torn slot) is the violation this catches.
 *
 * The histories here are sequential: operations are totally ordered
 * by invocation and at most one is unresponded at any instant (the
 * workload enforces ackDelay < opSpacing). That makes the checkers
 * exact and fast — per key, the admissible final values are the value
 * after the last responded operation plus the value after each later
 * in-flight one — and lets a brute-force linearization searcher
 * (subset enumeration, kept beside its tests in
 * tests/conditions_test.cc) differentially validate them on small
 * histories. Costs below are for n history operations and m keys in
 * the surviving state.
 */

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace wsp::crashsim::conditions {

/** One KV operation of a (sequential) history, in invocation order. */
struct HistoryOp
{
    uint64_t id = 0;
    bool isErase = false; ///< put(key, value) otherwise
    uint64_t key = 0;
    uint64_t value = 0;

    bool invoked = false;   ///< started executing before the crash
    bool applied = false;   ///< mutation reached the data structure
    bool responded = false; ///< caller observed the result

    /**
     * Persist point passed: the operation applied AND every line it
     * dirtied reached the surviving image. Never true for an
     * operation that did not apply.
     */
    bool persisted = false;
};

/** Surviving KV state: key -> value (absent = erased / never put). */
using KvState = std::map<uint64_t, uint64_t>;

/** Verdict of one checker over one (history, state) pair. */
struct ConditionResult
{
    bool ok = true;
    std::vector<std::string> violations;
};

/**
 * Durable linearizability: does a subset S of the invoked operations
 * exist, with every responded operation in S, whose replay equals
 * @p state? Exact per-key decision procedure over the invoked
 * operations grouped by key with one sort — O(n log n + m log n);
 * failure messages name the offending key (ascending) and the
 * admissible values, then any invented keys.
 */
ConditionResult checkDurableLinearizable(const std::vector<HistoryOp> &ops,
                                         const KvState &state);

/**
 * Buffered durable linearizability: does a prefix cut of the history
 * exist whose replay equals @p state, with every persisted operation
 * inside the cut? One incremental prefix scan that keeps a running
 * count of keys on which the replay and @p state disagree — O(n log m).
 */
ConditionResult
checkBufferedDurableLinearizable(const std::vector<HistoryOp> &ops,
                                 const KvState &state);

/** Reboot-time verdict for one operation. */
enum class OpVerdict : uint8_t { Committed, Aborted };

/**
 * Detectable execution: classify every invoked operation as committed
 * or aborted against @p state. Fails when some operation is neither —
 * a partial effect survived (e.g. a torn slot) — or when the state is
 * not explainable by any commit/abort assignment at all. On success
 * @p verdicts (if non-null) receives one entry per invoked operation.
 * Same key grouping as checkDurableLinearizable — O(n log n + m log n).
 */
ConditionResult
checkDetectableExecution(const std::vector<HistoryOp> &ops,
                         const KvState &state,
                         std::vector<std::pair<uint64_t, OpVerdict>>
                             *verdicts = nullptr);

} // namespace wsp::crashsim::conditions
