/**
 * @file
 * The KV correctness-conditions battery: the crash harness's standard
 * workload, re-grounded in formal persistency conditions.
 *
 * KvConditionsChecker drives the same sharded KV workload the old
 * KvPrefixChecker did — pre-drawn put/erase stream, tiered salvage
 * regions, per-shard recovery — but instead of the bespoke "store
 * equals applied prefix" predicate it emits a formal operation history
 * through a FliT tracker (invocation, response, persist point;
 * util/flit.h) and judges the revived store with the
 * durable-linearizability and buffered-durable-linearizability
 * checkers of conditions.h.
 *
 * Each operation has two dispatch slots: apply at t_i (mutation +
 * history invocation) and respond at t_i + ackDelay (the caller
 * observes the result). schedule.ackBeforeApply swaps them — the
 * planted persist-before-response bug: a crash in the gap leaves an
 * operation that completed at the caller but never touched the store,
 * which violates durable linearizability while buffered durable
 * linearizability (correctly) forgives it. The whole stream keeps one
 * pending event on the queue: crashsim/op_stream_driver.h fires the
 * slots in reserved dispatch order and calls applyOp/respondOp.
 *
 * DetectableExecutionChecker rides on the battery's history and
 * asserts every operation — in-flight ones included — can report
 * committed or aborted on reboot, i.e. no partial effect survived.
 */

#pragma once

#include <map>
#include <memory>
#include <vector>

#include "crashsim/conditions/conditions.h"
#include "crashsim/invariants.h"
#include "crashsim/op_stream_driver.h"
#include "util/flit.h"

namespace wsp::crashsim::conditions {

/** The standard KV workload judged by the formal conditions. */
class KvConditionsChecker : public InvariantChecker
{
  public:
    static constexpr uint64_t kBase = 0;
    static constexpr uint64_t kCapacity = 512; ///< total across shards

    const char *name() const override { return "kv-conditions"; }
    void prepare(WspSystem &system, const CrashSchedule &schedule) override;
    void onBackendRecovery(WspSystem &system) override;
    void check(WspSystem &crashed, WspSystem &revived,
               const RestoreReport &restore, bool backend_ran,
               std::vector<std::string> *violations) override;

    /**
     * Per-shard back-end recovery: a quarantined "kv<i>.meta" or
     * "kv<i>.data" region reformats exactly shard i and replays its
     * keys from the applied model — sibling shards stay untouched.
     * Wired as the system's region-recovery hook under
     * schedule.salvage.
     */
    void onRegionRecovery(WspSystem &system, const RegionOutcome &region);

    uint64_t appliedOps() const { return appliedOps_; }

    /**
     * The formal history and surviving state check() derived, for the
     * companion DetectableExecutionChecker (valid only after check()
     * populated them; historyValid() says so).
     */
    bool historyValid() const { return historyValid_; }
    const std::vector<HistoryOp> &history() const { return history_; }
    const KvState &survivingState() const { return survivingState_; }

  protected:
    /**
     * prepare() without starting the op stream: create the store,
     * wire its FliT tracker, register the salvage regions and
     * pre-draw the operations (declaring their history records).
     * Protected, with the two actions below, so a test can hold the
     * driver to a reference that fires the same actions its own way.
     */
    void prepareWorkload(WspSystem &system, const CrashSchedule &schedule);

    /**
     * Operation @p i's two actions, fired by the op-stream driver in
     * the schedule's order. applyOp mutates the store and records the
     * history invocation; respondOp acknowledges the op to its caller
     * (under ackBeforeApply, whether or not it has applied). Both do
     * nothing while the machine is dark.
     */
    void applyOp(WspSystem &system, unsigned i);
    void respondOp(WspSystem &system, unsigned i);

  private:
    friend class crashsim::OpStreamDriver;

    struct Op
    {
        bool isPut;
        uint64_t key;
        uint64_t value;
    };

    std::vector<Op> ops_; ///< the pre-drawn stream
    OpStreamDriver driver_;
    std::map<uint64_t, uint64_t> model_; ///< applied ops (backend)
    uint64_t appliedOps_ = 0;
    unsigned shards_ = 1;
    bool ackBeforeApply_ = false;
    ConditionMode condition_ = ConditionMode::All;

    /// Shared so the cache write-back observer outlives this checker.
    std::shared_ptr<util::FlitTracker> flit_;

    bool historyValid_ = false;
    std::vector<HistoryOp> history_;
    KvState survivingState_;
};

/**
 * Detectable execution over the battery's history: on reboot every
 * operation must classify as committed or aborted against the
 * surviving store — a torn or half-applied effect is a violation.
 * Must run after the battery's check() (standardCheckers orders it
 * so); skips silently when the battery produced no history.
 */
class DetectableExecutionChecker : public InvariantChecker
{
  public:
    explicit DetectableExecutionChecker(const KvConditionsChecker *battery)
        : battery_(battery)
    {
    }

    const char *name() const override { return "detectable-execution"; }
    void prepare(WspSystem &system, const CrashSchedule &schedule) override
    {
        (void)system;
        condition_ = schedule.condition;
    }
    void check(WspSystem &crashed, WspSystem &revived,
               const RestoreReport &restore, bool backend_ran,
               std::vector<std::string> *violations) override;

  private:
    const KvConditionsChecker *battery_;
    ConditionMode condition_ = ConditionMode::All;
};

} // namespace wsp::crashsim::conditions
