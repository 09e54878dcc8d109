/**
 * @file
 * The correctness-conditions battery: FliT tracker mechanics, the
 * durable-linearizability / buffered / detectable checkers against
 * hand-built histories, a differential sweep of the exact checkers
 * against brute-force linearization searchers on small histories, the
 * schedule plumbing for the new condition fields, the end-to-end
 * planted bug: acknowledge-before-apply is caught by the DL checker at
 * every enumerated crash point in the gap, minimizes, and replays —
 * while a buffered-only sweep (correctly) forgives it — the
 * op-stream driver held point for point to the eager schedule it
 * replaced, and the battery's lazily drawn history held to one drawn
 * whole up front.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/failure_injector.h"
#include "crashsim/conditions/conditions.h"
#include "crashsim/conditions/kv_conditions.h"
#include "crashsim/crash_explorer.h"
#include "util/flit.h"
#include "util/logging.h"
#include "util/rng.h"

#include "test_seed.h"

namespace wsp::crashsim::conditions {
namespace {

// Brute-force linearization oracles ------------------------------------

/**
 * Replay the invoked operations of @p ops for which @p include(op)
 * holds, in history order, from the empty state.
 */
template <typename Pred>
KvState
replay(const std::vector<HistoryOp> &ops, Pred include)
{
    KvState state;
    for (const HistoryOp &op : ops) {
        if (!op.invoked || !include(op))
            continue;
        if (op.isErase)
            state.erase(op.key);
        else
            state[op.key] = op.value;
    }
    return state;
}

/**
 * Brute-force durable-linearizability oracle for differential tests:
 * enumerate every subset S with {responded} ⊆ S ⊆ {invoked}, replay
 * in history order, accept if any replay equals @p state. Exponential
 * in the in-flight count; callers keep histories small (≤ ~16 ops).
 */
bool
bruteForceDurablyLinearizable(const std::vector<HistoryOp> &ops,
                              const KvState &state)
{
    // Free choices: invoked operations that never responded.
    std::vector<size_t> optional_idx;
    for (size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].invoked && !ops[i].responded)
            optional_idx.push_back(i);
    }
    WSP_CHECKF(optional_idx.size() <= 20,
               "brute-force oracle: too many in-flight ops (%zu)",
               optional_idx.size());

    const uint64_t combos = 1ull << optional_idx.size();
    for (uint64_t mask = 0; mask < combos; ++mask) {
        std::vector<bool> include(ops.size(), false);
        for (size_t i = 0; i < ops.size(); ++i)
            include[i] = ops[i].invoked && ops[i].responded;
        for (size_t bit = 0; bit < optional_idx.size(); ++bit) {
            if (mask & (1ull << bit))
                include[optional_idx[bit]] = true;
        }
        const KvState replayed = replay(
            ops, [&include, &ops](const HistoryOp &op) {
                return include[static_cast<size_t>(&op - ops.data())];
            });
        if (replayed == state)
            return true;
    }
    return false;
}

/**
 * Brute-force buffered-durable-linearizability oracle: try every
 * prefix cut containing all persisted operations.
 */
bool
bruteForceBufferedDurablyLinearizable(const std::vector<HistoryOp> &ops,
                                      const KvState &state)
{
    for (size_t p = 0; p <= ops.size(); ++p) {
        bool legal = true;
        for (size_t i = p; i < ops.size(); ++i)
            legal = legal && !(ops[i].invoked && ops[i].persisted);
        if (!legal)
            continue;
        KvState replayed;
        for (size_t i = 0; i < p; ++i) {
            if (!ops[i].invoked)
                continue;
            if (ops[i].isErase)
                replayed.erase(ops[i].key);
            else
                replayed[ops[i].key] = ops[i].value;
        }
        if (replayed == state)
            return true;
    }
    return false;
}

// FliT tracker mechanics ----------------------------------------------

TEST(Flit, StoreThenWritebackPersistsTheOp)
{
    util::FlitTracker flit;
    Tick now = 0;
    flit.setClock([&now]() { return now; });

    const uint64_t id = flit.declareOp(0, 1, 42);
    now = 10;
    flit.beginApply(id);
    flit.onStore(128, 8);
    flit.onStore(192, 16); // straddles nothing; second line
    flit.endApply();

    EXPECT_TRUE(flit.op(id).applied);
    EXPECT_EQ(flit.pendingStores(128), 1u);
    EXPECT_FALSE(flit.opPersisted(flit.op(id)));
    EXPECT_EQ(flit.op(id).persistTick, util::kNoTick);

    now = 20;
    flit.onWriteback(128);
    EXPECT_EQ(flit.pendingStores(128), 0u);
    EXPECT_FALSE(flit.opPersisted(flit.op(id))); // line 192 still dirty

    now = 30;
    flit.onWriteback(192);
    EXPECT_TRUE(flit.opPersisted(flit.op(id)));
    EXPECT_EQ(flit.op(id).persistTick, 30u);
}

TEST(Flit, LostLineNeverPersists)
{
    util::FlitTracker flit;
    const uint64_t id = flit.declareOp(0, 1, 42);
    flit.beginApply(id);
    flit.onStore(256, 8);
    flit.endApply();

    // Power loss drops the line: the counter clears (the line is gone)
    // but the op's stores never reached the NV domain.
    flit.onLineLost(256);
    EXPECT_EQ(flit.pendingStores(256), 0u);
    EXPECT_FALSE(flit.opPersisted(flit.op(id)));

    // A later write-back of recovery traffic on the same line must not
    // retroactively persist the lost stores.
    flit.onWriteback(256);
    EXPECT_FALSE(flit.opPersisted(flit.op(id)));
}

TEST(Flit, NewerStoreReopensTheLine)
{
    util::FlitTracker flit;
    const uint64_t a = flit.declareOp(0, 1, 1);
    const uint64_t b = flit.declareOp(0, 1, 2);
    flit.beginApply(a);
    flit.onStore(0, 8);
    flit.endApply();
    flit.onWriteback(0);
    EXPECT_TRUE(flit.opPersisted(flit.op(a)));

    flit.beginApply(b);
    flit.onStore(0, 8); // same line dirtied again
    flit.endApply();
    EXPECT_TRUE(flit.opPersisted(flit.op(a))); // a's seq still covered
    EXPECT_FALSE(flit.opPersisted(flit.op(b)));
}

TEST(Flit, ZeroStoreOpPersistsAtApply)
{
    util::FlitTracker flit;
    Tick now = 7;
    flit.setClock([&now]() { return now; });
    const uint64_t id = flit.declareOp(1, 9, 0); // erase of absent key
    flit.beginApply(id);
    flit.endApply();
    EXPECT_TRUE(flit.opPersisted(flit.op(id)));
    EXPECT_EQ(flit.op(id).persistTick, 7u);
}

TEST(Flit, RespondBeforeApplyStillCountsAsInvoked)
{
    // The ack-before-apply bug responds before any mutation ran; the
    // history must still show an invoked op or the checkers would
    // never see the phantom.
    util::FlitTracker flit;
    const uint64_t id = flit.declareOp(0, 1, 5);
    flit.respond(id, true, 5);
    EXPECT_TRUE(flit.op(id).invoked);
    EXPECT_TRUE(flit.op(id).responded);
    EXPECT_FALSE(flit.op(id).applied);
}

TEST(Flit, CoveredPredicateGatesPersistence)
{
    util::FlitTracker flit;
    const uint64_t id = flit.declareOp(0, 1, 1);
    flit.beginApply(id);
    flit.onStore(64, 8);
    flit.endApply();
    flit.onWriteback(64);
    EXPECT_TRUE(flit.opPersisted(flit.op(id)));
    // ...but the module never programmed that line to flash.
    EXPECT_FALSE(flit.opPersisted(flit.op(id),
                                  [](uint64_t) { return false; }));
    EXPECT_TRUE(flit.opPersisted(flit.op(id),
                                 [](uint64_t) { return true; }));
}

TEST(Flit, MidApplyWritebackThenRestoreKeepsTheOpWaiting)
{
    // A write-back in the middle of an apply settles the op for a
    // moment; its next store to the same line reopens it, so the
    // line's later write-back must still find and settle it.
    util::FlitTracker flit;
    Tick now = 0;
    flit.setClock([&now]() { return now; });
    const uint64_t id = flit.declareOp(0, 1, 1);
    flit.beginApply(id);
    flit.onStore(0, 8);
    now = 5;
    flit.onWriteback(0);
    EXPECT_EQ(flit.op(id).persistTick, 5u);
    flit.onStore(8, 8); // same line again
    EXPECT_EQ(flit.op(id).persistTick, util::kNoTick);
    flit.endApply();
    EXPECT_EQ(flit.op(id).persistTick, util::kNoTick);

    now = 9;
    flit.onWriteback(0);
    EXPECT_TRUE(flit.opPersisted(flit.op(id)));
    EXPECT_EQ(flit.op(id).persistTick, 9u);
}

/**
 * Reference FliT settling for the differential test below: the same
 * per-line counters, but a write-back settles by rescanning every op
 * in the history — the tracker's algorithm before its per-line
 * waiting lists.
 */
class RescanFlit
{
  public:
    struct Op
    {
        std::vector<std::pair<uint64_t, uint64_t>> lines; ///< line, seq
        Tick persistTick = util::kNoTick;
    };

    std::vector<Op> ops;

    void declare() { ops.emplace_back(); }
    void beginApply(uint64_t id) { current_ = id; }

    void endApply(Tick now)
    {
        if (current_ != kNone) {
            Op &op = ops[current_];
            if (op.persistTick == util::kNoTick && persisted(op))
                op.persistTick = now;
        }
        current_ = kNone;
    }

    void store(uint64_t line)
    {
        Line &ls = lines_[line];
        ls.lastStoreSeq = ++seq_;
        if (current_ == kNone)
            return;
        Op &op = ops[current_];
        auto it = std::find_if(op.lines.begin(), op.lines.end(),
                               [line](const auto &entry) {
                                   return entry.first == line;
                               });
        if (it != op.lines.end())
            it->second = ls.lastStoreSeq;
        else
            op.lines.emplace_back(line, ls.lastStoreSeq);
        op.persistTick = util::kNoTick;
    }

    void writeback(uint64_t line, Tick now)
    {
        Line &ls = lines_[line];
        ls.lastWritebackSeq = ls.lastStoreSeq;
        for (Op &op : ops) {
            const bool touches = std::any_of(
                op.lines.begin(), op.lines.end(),
                [line](const auto &entry) { return entry.first == line; });
            if (op.persistTick == util::kNoTick && touches && persisted(op))
                op.persistTick = now;
        }
    }

    void lose(uint64_t line)
    {
        Line &ls = lines_[line];
        ls.wbAtLoss = ls.lastWritebackSeq;
        ls.lostSeq = ls.lastStoreSeq;
    }

    bool persisted(const Op &op) const
    {
        for (const auto &[line, seq] : op.lines) {
            auto it = lines_.find(line);
            if (it == lines_.end() || it->second.lastWritebackSeq < seq)
                return false;
            if (seq > it->second.wbAtLoss && seq <= it->second.lostSeq)
                return false;
        }
        return true;
    }

  private:
    struct Line
    {
        uint64_t lastStoreSeq = 0;
        uint64_t lastWritebackSeq = 0;
        uint64_t lostSeq = 0;
        uint64_t wbAtLoss = 0;
    };
    static constexpr uint64_t kNone = ~0ull;
    std::map<uint64_t, Line> lines_;
    uint64_t current_ = kNone;
    uint64_t seq_ = 0;
};

TEST(Flit, PerLineSettlingMatchesFullRescan)
{
    // Random declare / apply / store / write-back / loss sequences over
    // a few lines, with write-backs and losses in the middle of
    // applies, stores that straddle two lines, stray stores outside
    // any op, and the occasional re-applied op. After every step each
    // op's persist tick and persisted verdict must match the rescan.
    constexpr uint64_t kLines = 6;
    size_t stores_after_mid_apply_writeback = 0;
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        const uint64_t pinned = seed * 0x666c6974ull + seed; // "flit"
        SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                     wsp::testing::seedTrace(pinned));
        Rng rng(wsp::testing::testSeed(pinned));
        for (int round = 0; round < 20; ++round) {
            util::FlitTracker flit;
            RescanFlit ref;
            Tick now = 0;
            flit.setClock([&now]() { return now; });
            const auto compare = [&](const char *step) {
                for (uint64_t id = 0; id < ref.ops.size(); ++id) {
                    ASSERT_EQ(flit.op(id).persistTick,
                              ref.ops[id].persistTick)
                        << step << ", round " << round << ", op " << id;
                    ASSERT_EQ(flit.opPersisted(flit.op(id)),
                              ref.persisted(ref.ops[id]))
                        << step << ", round " << round << ", op " << id;
                }
            };
            // Returns whether it was a write-back.
            const auto writebackOrLoss = [&](const char **step) {
                const uint64_t line = rng.next(kLines);
                if (rng.chance(0.8)) {
                    flit.onWriteback(line * 64);
                    ref.writeback(line, now);
                    *step = "write-back";
                    return true;
                }
                flit.onLineLost(line * 64);
                ref.lose(line);
                *step = "loss";
                return false;
            };
            const auto store = [&]() {
                // Up to two lines; the tracker splits the store by line
                // in ascending order, as the reference does.
                const uint64_t line = rng.next(kLines - 1);
                const bool straddle = rng.chance(0.2);
                flit.onStore(line * 64 + (straddle ? 60 : rng.next(8) * 8),
                             8);
                ref.store(line);
                if (straddle)
                    ref.store(line + 1);
            };

            for (int step = 0; step < 120; ++step) {
                now += 1 + rng.next(3);
                const char *what = "stray store";
                if (rng.chance(0.3)) {
                    // Apply a fresh op, or now and then re-apply one.
                    uint64_t id;
                    if (!ref.ops.empty() && rng.chance(0.1)) {
                        id = rng.next(ref.ops.size());
                    } else {
                        id = flit.declareOp(0, 1, 1);
                        ref.declare();
                    }
                    flit.beginApply(id);
                    ref.beginApply(id);
                    bool wrote_back = false;
                    const int actions = static_cast<int>(rng.next(6));
                    for (int a = 0; a < actions; ++a) {
                        now += rng.next(2);
                        if (rng.chance(0.6)) {
                            store();
                            what = "store in apply";
                            stores_after_mid_apply_writeback +=
                                wrote_back ? 1 : 0;
                        } else {
                            wrote_back =
                                writebackOrLoss(&what) || wrote_back;
                        }
                        compare(what);
                    }
                    flit.endApply();
                    ref.endApply(now);
                    what = "end apply";
                } else if (rng.chance(0.8)) {
                    writebackOrLoss(&what);
                } else {
                    store();
                }
                compare(what);
            }
        }
    }
    EXPECT_GT(stores_after_mid_apply_writeback, 0u);
}

// Checker unit tests ---------------------------------------------------

HistoryOp
op(uint64_t id, uint64_t key, uint64_t value, bool responded,
   bool persisted, bool isErase = false, bool applied = true)
{
    HistoryOp h;
    h.id = id;
    h.isErase = isErase;
    h.key = key;
    h.value = value;
    h.invoked = true;
    h.applied = applied;
    h.responded = responded;
    h.persisted = persisted && applied;
    return h;
}

TEST(DurableLin, RespondedEffectMustSurvive)
{
    // The planted persist-before-response bug in miniature: op 1
    // responded to the caller but its effect is gone.
    const std::vector<HistoryOp> history = {
        op(0, 1, 5, true, true),
        op(1, 1, 7, true, false, false, /*applied=*/false),
    };
    const KvState state{{1, 5}};
    const ConditionResult dl = checkDurableLinearizable(history, state);
    EXPECT_FALSE(dl.ok);
    ASSERT_FALSE(dl.violations.empty());
    EXPECT_NE(dl.violations.front().find("durable-lin"),
              std::string::npos);
    EXPECT_FALSE(bruteForceDurablyLinearizable(history, state));

    // Buffered durable linearizability forgives exactly this: the
    // phantom never persisted, so the cut before it is legal.
    EXPECT_TRUE(checkBufferedDurableLinearizable(history, state).ok);
    EXPECT_TRUE(bruteForceBufferedDurablyLinearizable(history, state));
}

TEST(DurableLin, InFlightOpMaySurfaceOrVanishWhole)
{
    std::vector<HistoryOp> history = {
        op(0, 1, 5, true, true),
        op(1, 1, 7, false, false), // in flight at the crash
    };
    EXPECT_TRUE(checkDurableLinearizable(history, KvState{{1, 5}}).ok);
    EXPECT_TRUE(checkDurableLinearizable(history, KvState{{1, 7}}).ok);
    // ...but not half of it (some other value).
    EXPECT_FALSE(checkDurableLinearizable(history, KvState{{1, 6}}).ok);
}

TEST(DurableLin, InventedKeyIsAlwaysAViolation)
{
    const std::vector<HistoryOp> history = {op(0, 1, 5, true, true)};
    const KvState state{{1, 5}, {9, 1}};
    EXPECT_FALSE(checkDurableLinearizable(history, state).ok);
    EXPECT_FALSE(checkBufferedDurableLinearizable(history, state).ok);
    EXPECT_FALSE(checkDetectableExecution(history, state).ok);
}

TEST(Buffered, PersistedOpMustBeInsideTheCut)
{
    // Op 1 persisted; a surviving state that rolled back before it is
    // a violation even though op 1 never responded.
    const std::vector<HistoryOp> history = {
        op(0, 1, 5, true, true),
        op(1, 1, 7, false, true),
    };
    EXPECT_FALSE(
        checkBufferedDurableLinearizable(history, KvState{{1, 5}}).ok);
    EXPECT_FALSE(
        bruteForceBufferedDurablyLinearizable(history, KvState{{1, 5}}));
    EXPECT_TRUE(
        checkBufferedDurableLinearizable(history, KvState{{1, 7}}).ok);
}

TEST(Buffered, LosesAnUnpersistedRespondedSuffix)
{
    // BDL (unlike DL) tolerates losing responded-but-unpersisted work:
    // the explicit-flush world's contract between flushes.
    const std::vector<HistoryOp> history = {
        op(0, 1, 5, true, true),
        op(1, 2, 9, true, false),
        op(2, 1, 7, true, false),
    };
    const KvState state{{1, 5}};
    EXPECT_TRUE(checkBufferedDurableLinearizable(history, state).ok);
    EXPECT_FALSE(checkDurableLinearizable(history, state).ok);
}

TEST(Detectable, ClassifiesEveryOpOrFails)
{
    const std::vector<HistoryOp> history = {
        op(0, 1, 5, true, true),
        op(1, 2, 3, true, true),
        op(2, 1, 7, false, false), // in flight
    };
    std::vector<std::pair<uint64_t, OpVerdict>> verdicts;
    const ConditionResult ok = checkDetectableExecution(
        history, KvState{{1, 7}, {2, 3}}, &verdicts);
    ASSERT_TRUE(ok.ok);
    ASSERT_EQ(verdicts.size(), 3u);
    EXPECT_EQ(verdicts[2].second, OpVerdict::Committed); // surfaced

    verdicts.clear();
    const ConditionResult rolled = checkDetectableExecution(
        history, KvState{{1, 5}, {2, 3}}, &verdicts);
    ASSERT_TRUE(rolled.ok);
    EXPECT_EQ(verdicts[2].second, OpVerdict::Aborted); // vanished

    // A torn value belongs to no commit/abort assignment.
    const ConditionResult torn = checkDetectableExecution(
        history, KvState{{1, 6}, {2, 3}}, nullptr);
    EXPECT_FALSE(torn.ok);
    ASSERT_FALSE(torn.violations.empty());
    EXPECT_NE(torn.violations.front().find("partial effect"),
              std::string::npos);
}

TEST(Conditions, ViolationStringsAndOrderArePinned)
{
    // Three keys break the conditions (2 and 4 lost responded puts, 3
    // holds a torn value) and key 9 was invented: every checker names
    // them in ascending key order, invented keys last.
    const std::vector<HistoryOp> history = {
        op(0, 4, 40, true, true),
        op(1, 2, 20, true, true),
        op(2, 3, 30, true, true),
        op(3, 1, 10, true, true),
        op(4, 2, 21, true, false),
        op(5, 4, 0, true, false, /*isErase=*/true),
        op(6, 4, 41, true, false),
        op(7, 3, 31, false, false), // in flight
    };
    const KvState state{{1, 10}, {2, 20}, {3, 33}, {4, 40}, {9, 90}};

    EXPECT_EQ(checkDurableLinearizable(history, state).violations,
              (std::vector<std::string>{
                  "durable-lin: key 2 holds 20 after recovery; "
                  "admissible: {21} (last responded op 4)",
                  "durable-lin: key 3 holds 33 after recovery; "
                  "admissible: {30, 31} (last responded op 2)",
                  "durable-lin: key 4 holds 40 after recovery; "
                  "admissible: {41} (last responded op 6)",
                  "durable-lin: key 9=90 survived but no operation in "
                  "the history ever touched it",
              }));
    EXPECT_EQ(checkBufferedDurableLinearizable(history, state).violations,
              (std::vector<std::string>{
                  "buffered: no prefix cut of the 8-op history "
                  "containing all persisted ops (earliest legal cut 4) "
                  "replays to the surviving state",
                  "buffered: key 9=90 survived but no operation in the "
                  "history ever touched it",
              }));
    std::vector<std::pair<uint64_t, OpVerdict>> verdicts;
    const ConditionResult detectable =
        checkDetectableExecution(history, state, &verdicts);
    EXPECT_EQ(detectable.violations,
              (std::vector<std::string>{
                  "detectable: key 2 holds 20 — no commit/abort "
                  "assignment of its 2 ops explains it (partial effect "
                  "survived?)",
                  "detectable: key 3 holds 33 — no commit/abort "
                  "assignment of its 2 ops explains it (partial effect "
                  "survived?)",
                  "detectable: key 4 holds 40 — no commit/abort "
                  "assignment of its 3 ops explains it (partial effect "
                  "survived?)",
                  "detectable: key 9=90 survived but no operation in "
                  "the history ever touched it",
              }));
    EXPECT_TRUE(verdicts.empty()); // no verdicts on failure
}

// Differential battery: exact checkers vs brute-force searchers --------

KvState
randomState(Rng &rng)
{
    KvState state;
    for (uint64_t key = 1; key <= 3; ++key) {
        const uint64_t value = rng.next(6); // 0 = absent
        if (value != 0)
            state[key] = value;
    }
    return state;
}

std::vector<HistoryOp>
randomHistory(Rng &rng, size_t n)
{
    std::vector<HistoryOp> history;
    for (size_t i = 0; i < n; ++i) {
        HistoryOp h;
        h.id = i;
        h.isErase = rng.chance(0.3);
        h.key = 1 + rng.next(3);
        h.value = 1 + rng.next(5);
        h.invoked = rng.chance(0.9);
        h.applied = h.invoked && rng.chance(0.8);
        // Responded-without-applied is the ack-before-apply shape;
        // keep it in the mix so the differential covers the bug.
        h.responded = h.invoked && rng.chance(0.7);
        h.persisted = h.applied && rng.chance(0.7);
        history.push_back(h);
    }
    return history;
}

TEST(Differential, ExactCheckersMatchBruteForceAcrossTenSeeds)
{
    size_t dl_sat = 0, dl_unsat = 0, bdl_sat = 0, bdl_unsat = 0;
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        const uint64_t pinned = seed * 0x636f6e64ull + seed;
        SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                     wsp::testing::seedTrace(pinned));
        Rng rng(wsp::testing::testSeed(pinned));
        for (int round = 0; round < 200; ++round) {
            const size_t n = 1 + rng.next(8);
            const std::vector<HistoryOp> history = randomHistory(rng, n);

            // Half the states replay a random subset of the history
            // (usually close to satisfiable), half are adversarial.
            KvState state;
            if (rng.chance(0.5)) {
                const uint64_t mask = rng.next(1ull << n);
                state = replay(history,
                               [&history, mask](const HistoryOp &h) {
                                   const size_t i = static_cast<size_t>(
                                       &h - history.data());
                                   return (mask >> i) & 1;
                               });
            } else {
                state = randomState(rng);
            }

            const bool dl_exact =
                checkDurableLinearizable(history, state).ok;
            const bool dl_brute =
                bruteForceDurablyLinearizable(history, state);
            ASSERT_EQ(dl_exact, dl_brute)
                << "DL divergence, round " << round;
            (dl_exact ? dl_sat : dl_unsat) += 1;

            const bool bdl_exact =
                checkBufferedDurableLinearizable(history, state).ok;
            const bool bdl_brute =
                bruteForceBufferedDurablyLinearizable(history, state);
            ASSERT_EQ(bdl_exact, bdl_brute)
                << "BDL divergence, round " << round;
            (bdl_exact ? bdl_sat : bdl_unsat) += 1;
        }
    }
    // The sweep must have exercised both verdicts of both checkers.
    EXPECT_GT(dl_sat, 0u);
    EXPECT_GT(dl_unsat, 0u);
    EXPECT_GT(bdl_sat, 0u);
    EXPECT_GT(bdl_unsat, 0u);
}

// Differential battery: grouped checkers vs per-key rescans -----------

/**
 * The checkers as they were before grouping ops by key, kept as
 * oracles: DL and detectable rescan the whole history once per key,
 * and BDL compares whole maps at every prefix cut. The grouped
 * checkers must reproduce their verdicts and violation strings
 * exactly.
 */
namespace rescan {

std::optional<uint64_t>
valueAfter(const HistoryOp &op)
{
    return op.isErase ? std::nullopt : std::optional<uint64_t>(op.value);
}

std::optional<uint64_t>
stateValue(const KvState &state, uint64_t key)
{
    auto it = state.find(key);
    return it == state.end() ? std::nullopt
                             : std::optional<uint64_t>(it->second);
}

std::string
formatValue(const std::optional<uint64_t> &value)
{
    return value ? std::to_string(*value) : "absent";
}

std::vector<uint64_t>
touchedKeys(const std::vector<HistoryOp> &ops)
{
    std::vector<uint64_t> keys;
    for (const HistoryOp &op : ops) {
        if (op.invoked)
            keys.push_back(op.key);
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
}

std::vector<const HistoryOp *>
opsOnKey(const std::vector<HistoryOp> &ops, uint64_t key)
{
    std::vector<const HistoryOp *> result;
    for (const HistoryOp &op : ops) {
        if (op.invoked && op.key == key)
            result.push_back(&op);
    }
    return result;
}

ptrdiff_t
lastResponded(const std::vector<const HistoryOp *> &kops)
{
    ptrdiff_t last = -1;
    for (size_t i = 0; i < kops.size(); ++i) {
        if (kops[i]->responded)
            last = static_cast<ptrdiff_t>(i);
    }
    return last;
}

void
inventedKeys(const std::vector<HistoryOp> &ops, const KvState &state,
             const std::string &checker, std::vector<std::string> *out)
{
    for (const auto &[key, value] : state) {
        bool touched = false;
        for (const HistoryOp &op : ops)
            touched = touched || (op.invoked && op.key == key);
        if (!touched)
            out->push_back(checker + ": key " + std::to_string(key) + "=" +
                           std::to_string(value) +
                           " survived but no operation in the history "
                           "ever touched it");
    }
}

std::vector<std::string>
durableLin(const std::vector<HistoryOp> &ops, const KvState &state)
{
    std::vector<std::string> out;
    for (uint64_t key : touchedKeys(ops)) {
        const auto kops = opsOnKey(ops, key);
        const ptrdiff_t last = lastResponded(kops);
        std::vector<std::optional<uint64_t>> admissible = {
            last >= 0 ? valueAfter(*kops[last]) : std::nullopt};
        for (size_t i = static_cast<size_t>(last + 1); i < kops.size(); ++i)
            admissible.push_back(valueAfter(*kops[i]));
        const std::optional<uint64_t> got = stateValue(state, key);
        if (std::find(admissible.begin(), admissible.end(), got) !=
            admissible.end())
            continue;
        std::string options;
        for (const auto &candidate : admissible)
            options += (options.empty() ? "" : ", ") + formatValue(candidate);
        out.push_back("durable-lin: key " + std::to_string(key) + " holds " +
                      formatValue(got) + " after recovery; admissible: {" +
                      options + "} (last responded op " +
                      (last >= 0 ? std::to_string(kops[last]->id) : "none") +
                      ")");
    }
    inventedKeys(ops, state, "durable-lin", &out);
    return out;
}

std::vector<std::string>
buffered(const std::vector<HistoryOp> &ops, const KvState &state)
{
    size_t min_cut = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].invoked && ops[i].persisted)
            min_cut = i + 1;
    }
    KvState replayed;
    for (size_t p = 0; p <= ops.size(); ++p) {
        if (p > 0 && ops[p - 1].invoked) {
            if (ops[p - 1].isErase)
                replayed.erase(ops[p - 1].key);
            else
                replayed[ops[p - 1].key] = ops[p - 1].value;
        }
        if (p >= min_cut && replayed == state)
            return {};
    }
    std::vector<std::string> out = {
        "buffered: no prefix cut of the " + std::to_string(ops.size()) +
        "-op history containing all persisted ops (earliest legal cut " +
        std::to_string(min_cut) + ") replays to the surviving state"};
    inventedKeys(ops, state, "buffered", &out);
    return out;
}

std::vector<std::string>
detectable(const std::vector<HistoryOp> &ops, const KvState &state,
           std::vector<std::pair<uint64_t, OpVerdict>> *verdicts)
{
    std::vector<std::string> out;
    std::vector<std::pair<uint64_t, OpVerdict>> assigned;
    for (uint64_t key : touchedKeys(ops)) {
        const auto kops = opsOnKey(ops, key);
        const ptrdiff_t last = lastResponded(kops);
        const std::optional<uint64_t> got = stateValue(state, key);
        ptrdiff_t chosen = -2;
        if ((last >= 0 ? valueAfter(*kops[last]) : std::nullopt) == got)
            chosen = last;
        for (size_t i = static_cast<size_t>(last + 1); i < kops.size(); ++i) {
            if (valueAfter(*kops[i]) == got)
                chosen = static_cast<ptrdiff_t>(i);
        }
        if (chosen == -2) {
            out.push_back("detectable: key " + std::to_string(key) +
                          " holds " + formatValue(got) +
                          " — no commit/abort assignment of its " +
                          std::to_string(kops.size()) +
                          " ops explains it (partial effect survived?)");
            continue;
        }
        for (size_t i = 0; i < kops.size(); ++i)
            assigned.emplace_back(kops[i]->id,
                                  static_cast<ptrdiff_t>(i) <= chosen
                                      ? OpVerdict::Committed
                                      : OpVerdict::Aborted);
    }
    inventedKeys(ops, state, "detectable", &out);
    if (out.empty()) {
        std::sort(assigned.begin(), assigned.end());
        *verdicts = std::move(assigned);
    }
    return out;
}

} // namespace rescan

TEST(Differential, GroupedCheckersMatchPerKeyRescans)
{
    // Histories far beyond brute-force reach (up to 300 ops over 12
    // keys), states that replay a random subset, mutate it, or invent
    // keys: verdicts, violation strings and reboot verdicts must all be
    // identical to the rescanning checkers'.
    size_t failing = 0;
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        const uint64_t pinned = seed * 0x67727570ull + seed; // "grup"
        SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                     wsp::testing::seedTrace(pinned));
        Rng rng(wsp::testing::testSeed(pinned));
        for (int round = 0; round < 60; ++round) {
            std::vector<HistoryOp> history;
            const size_t n = rng.next(300);
            for (size_t i = 0; i < n; ++i) {
                HistoryOp h;
                h.id = i;
                h.isErase = rng.chance(0.25);
                h.key = 1 + rng.next(12);
                h.value = 1 + rng.next(4);
                h.invoked = rng.chance(0.95);
                h.applied = h.invoked && rng.chance(0.9);
                h.responded = h.invoked && rng.chance(0.8);
                h.persisted = h.applied && rng.chance(0.6);
                history.push_back(h);
            }
            const size_t cut = rng.next(n + 1);
            KvState state = replay(history, [&](const HistoryOp &h) {
                return h.id < cut || rng.chance(0.05);
            });
            if (rng.chance(0.3) && !state.empty())
                state.begin()->second += 1; // a torn value
            if (rng.chance(0.2))
                state[100 + rng.next(3)] = 7; // an invented key

            const ConditionResult dl = checkDurableLinearizable(history, state);
            ASSERT_EQ(dl.violations, rescan::durableLin(history, state))
                << "round " << round;
            EXPECT_EQ(dl.ok, dl.violations.empty());

            const ConditionResult bdl =
                checkBufferedDurableLinearizable(history, state);
            ASSERT_EQ(bdl.violations, rescan::buffered(history, state))
                << "round " << round;
            EXPECT_EQ(bdl.ok, bdl.violations.empty());

            std::vector<std::pair<uint64_t, OpVerdict>> verdicts, expected;
            const ConditionResult de =
                checkDetectableExecution(history, state, &verdicts);
            ASSERT_EQ(de.violations,
                      rescan::detectable(history, state, &expected))
                << "round " << round;
            EXPECT_EQ(verdicts, expected) << "round " << round;
            failing += dl.ok ? 0 : 1;
        }
    }
    // Both verdicts must have been exercised.
    EXPECT_GT(failing, 0u);
    EXPECT_LT(failing, 600u);
}

// Schedule plumbing ----------------------------------------------------

TEST(ConditionSchedule, SerializationRoundTripsConditionFields)
{
    CrashSchedule schedule;
    schedule.condition = ConditionMode::BufferedDurableLin;
    schedule.ackDelay = fromMicros(30.0) + 3;
    schedule.ackBeforeApply = true;
    const auto reread = CrashSchedule::parse(schedule.serialize());
    ASSERT_TRUE(reread.has_value());
    EXPECT_TRUE(*reread == schedule);
    EXPECT_NE(schedule.summary().find("condition=buffered"),
              std::string::npos);
    EXPECT_NE(schedule.summary().find("ACK-BEFORE-APPLY"),
              std::string::npos);
}

TEST(ConditionSchedule, ParseRejectsBadConditionAndNonSequentialAck)
{
    CrashSchedule schedule;
    std::string text = schedule.serialize();
    const size_t pos = text.find("condition=all");
    ASSERT_NE(pos, std::string::npos);
    std::string bad = text;
    bad.replace(pos, 13, "condition=zzz");
    EXPECT_FALSE(CrashSchedule::parse(bad).has_value());

    // ackDelay >= opSpacing would overlap consecutive operations; the
    // checkers assume a sequential history, so the file is refused.
    CrashSchedule overlapping;
    overlapping.ackDelay = overlapping.opSpacing;
    EXPECT_FALSE(
        CrashSchedule::parse(overlapping.serialize()).has_value());
}

TEST(ConditionSchedule, ParseRefusesCountsThatDoNotFitTheirField)
{
    const std::string text = CrashSchedule{}.serialize();
    const auto with = [&text](const std::string &key,
                              const std::string &value) {
        const size_t line = text.find("\n" + key + "=");
        EXPECT_NE(line, std::string::npos) << key;
        const size_t from = line + key.size() + 2;
        return text.substr(0, from) + value +
               text.substr(text.find('\n', from));
    };
    // Each of the first eight used to wrap into range: 1 op, 2 shards
    // (a power of two), 1 fleet node, 0 media faults, and so on. The
    // next five used to be read as a prefix (33 ns, 64 ops, module 1,
    // 4.5 V) or wrapped (seed 2^64 - 1), and the last two, misspelled,
    // as the default: no salvage, and the correct marker order.
    const std::pair<const char *, const char *> refused[] = {
        {"ops", "4294967297"},
        {"shards", "4294967298"},
        {"fleet_nodes", "4294967297"},
        {"media_faults", "4294967296"},
        {"train_cycles", "4294967297"},
        {"drop_save_cmds", "4294967296"},
        {"fleet_replication", "4294967299"},
        {"ops", "-1"},
        {"window_ns", "33ms"},
        {"ops", "64x"},
        {"drain_module", "1x"},
        {"drain_voltage", "4.5V"},
        {"seed", "-1"},
        {"salvage", "yes"},
        {"save_order", "marker-before-flsuh"},
    };
    for (const auto &[key, value] : refused)
        EXPECT_FALSE(CrashSchedule::parse(with(key, value)).has_value())
            << key << "=" << value;
    const auto widest = CrashSchedule::parse(with("ops", "4294967295"));
    ASSERT_TRUE(widest.has_value());
    EXPECT_EQ(widest->ops, 4294967295u);
}

TEST(ConditionSchedule, ModeNamesRoundTrip)
{
    for (ConditionMode mode :
         {ConditionMode::All, ConditionMode::DurableLin,
          ConditionMode::BufferedDurableLin, ConditionMode::Detectable}) {
        const auto back = conditionModeFromName(conditionModeName(mode));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, mode);
    }
    EXPECT_FALSE(conditionModeFromName("linearizable").has_value());
}

// End-to-end: the planted ack-before-apply bug -------------------------

/**
 * ackDelay=30us puts each op's respond/apply pair at t and t+30us on a
 * 50us grid; failDelay=5.01ms lands strictly inside op 99's gap (ack
 * at 5.000ms, apply gated at 5.030ms), so a phantom — responded,
 * never applied — exists at every enumerated window.
 */
CrashSchedule
ackBugSchedule()
{
    CrashSchedule schedule;
    schedule.ops = 128;
    schedule.ackDelay = fromMicros(30.0);
    schedule.failDelay = fromMillis(5.0) + fromMicros(10.0);
    schedule.ackBeforeApply = true;
    schedule.outage = fromMillis(500.0);
    return schedule;
}

TEST(AckBeforeApply, IsCaughtMinimizedAndReplayable)
{
    CrashExplorer explorer(ackBugSchedule());
    const SweepReport report = explorer.sweepEnumerated(true, 120);
    ASSERT_FALSE(report.allHeld())
        << "ack-before-apply survived the sweep";
    const CrashPointResult &failure = report.failures.front();
    ASSERT_FALSE(failure.violations.empty());
    bool named_dl = false;
    for (const std::string &violation : failure.violations)
        named_dl = named_dl ||
                   violation.find("durable-lin") != std::string::npos;
    EXPECT_TRUE(named_dl) << failure.violations.front();

    // Minimization keeps the phantom alive...
    const CrashSchedule minimized =
        CrashExplorer::minimize(failure.schedule, 32);
    EXPECT_TRUE(minimized.ackBeforeApply);
    const CrashPointResult replayed =
        CrashExplorer::runSchedule(minimized);
    EXPECT_FALSE(replayed.held());

    // ...and the replay file reproduces it bit-for-bit.
    const std::string path = ::testing::TempDir() +
                             "wsp_conditions_replay_" +
                             std::to_string(::getpid()) + ".txt";
    ASSERT_TRUE(minimized.writeFile(path));
    const auto reread = CrashSchedule::readFile(path);
    ASSERT_TRUE(reread.has_value());
    EXPECT_TRUE(*reread == minimized);
    EXPECT_FALSE(CrashExplorer::runSchedule(*reread).held());
    std::remove(path.c_str());
}

TEST(AckBeforeApply, BufferedModeForgivesTheSameSchedule)
{
    // The phantom never persisted, so buffered durable linearizability
    // admits the cut just before it: a buffered-only sweep of the very
    // same buggy schedule must hold. This is the DL ⊊ BDL separation,
    // end to end.
    CrashSchedule schedule = ackBugSchedule();
    schedule.condition = ConditionMode::BufferedDurableLin;
    CrashExplorer explorer(schedule);
    const SweepReport report = explorer.sweepEnumerated(false, 60);
    EXPECT_TRUE(report.allHeld())
        << report.failures.front().violations.front();
}

TEST(AckBeforeApply, DetectableModeAlsoCatchesThePhantom)
{
    // A responded op with no surviving effect cannot be classified
    // committed, so detectability flags the same bug independently.
    CrashSchedule schedule = ackBugSchedule();
    schedule.condition = ConditionMode::Detectable;
    const CrashPointResult result = CrashExplorer::runSchedule(schedule);
    ASSERT_FALSE(result.held());
    bool named = false;
    for (const std::string &violation : result.violations)
        named = named || violation.find("detectable-execution") !=
                             std::string::npos;
    EXPECT_TRUE(named) << result.violations.front();
}

TEST(ConditionsBattery, CorrectModeHoldsWithAnOpInFlightAtTheCrash)
{
    // Same timing, bug disabled: op 99 applies at 5.000ms and its
    // response (5.030ms) is cut off by the failure — a genuinely
    // in-flight op at every window. DL must accept it surfacing.
    CrashSchedule schedule = ackBugSchedule();
    schedule.ackBeforeApply = false;
    CrashExplorer explorer(schedule);
    const SweepReport report = explorer.sweepEnumerated(false, 60);
    EXPECT_TRUE(report.allHeld())
        << report.failures.front().violations.front();
}

// Op-stream driver against the eager schedule --------------------------

/**
 * The reference: the battery as it drove its operations before the
 * op-stream driver — both slot events of every operation queued up
 * front at prepare time, op by op, firing the same per-op actions the
 * driver fires. Nothing outside this test can select it.
 */
class EagerKvChecker : public KvConditionsChecker
{
  public:
    void prepare(WspSystem &system, const CrashSchedule &schedule) override
    {
        prepareWorkload(system, schedule);
        EventQueue &queue = system.queue();
        for (unsigned i = 0; i < schedule.ops; ++i) {
            const Tick invoke_at =
                static_cast<Tick>(i + 1) * schedule.opSpacing;
            const auto apply = [this, &system, i]() { applyOp(system, i); };
            const auto respond = [this, &system, i]() {
                respondOp(system, i);
            };
            if (!schedule.ackBeforeApply) {
                queue.scheduleAfter(invoke_at, apply);
                queue.scheduleAfter(invoke_at + schedule.ackDelay, respond);
            } else {
                queue.scheduleAfter(invoke_at, respond);
                queue.scheduleAfter(invoke_at + schedule.ackDelay, apply);
            }
        }
    }
};

using Checkers = std::vector<std::unique_ptr<InvariantChecker>>;

/** standardCheckers() with the battery swapped for a @p Battery. */
template <typename Battery>
Checkers
checkersWith()
{
    Checkers checkers = standardCheckers();
    auto battery = std::make_unique<Battery>();
    checkers[1] =
        std::make_unique<DetectableExecutionChecker>(battery.get());
    checkers[0] = std::move(battery);
    return checkers;
}

/** Every dispatch tick of an enumeration reference run. */
struct ReferenceRun
{
    Tick failAt = 0;
    std::vector<Tick> dispatches;
};

/** CrashExplorer::enumerateCrashPoints' reference run, @p checkers. */
ReferenceRun
observeReferenceRun(const CrashSchedule &base, Checkers checkers)
{
    CrashSchedule reference = base;
    reference.window = fromSeconds(2.0);
    reference.trainCycles = 1;
    ReferenceRun run;
    WspSystem system(CrashExplorer::configFor(reference));
    system.start();
    for (auto &checker : checkers)
        checker->prepare(system, reference);
    run.failAt = system.queue().now() + reference.failDelay;
    system.queue().setDispatchObserver(
        [&run](Tick when) { run.dispatches.push_back(when); });
    system.psu().failInputAt(run.failAt);
    system.runFor(reference.failDelay + fromMillis(500.0));
    system.queue().setDispatchObserver(nullptr);
    checkers.clear(); // checkers go before their system
    return run;
}

/** enumerateCrashPoints' window rule, unthinned, over @p run. */
std::vector<Tick>
windowsOf(const ReferenceRun &run)
{
    std::set<Tick> points{0, 1};
    Tick prev = run.failAt;
    for (Tick when : run.dispatches) {
        if (when < run.failAt)
            continue;
        const Tick offset = when - run.failAt;
        points.insert(offset);
        points.insert(offset + 1);
        if (when > prev + 1)
            points.insert(((prev - run.failAt) + offset) / 2);
        prev = when;
    }
    return {points.begin(), points.end()};
}

/**
 * CrashExplorer::runSchedule, call for call, with @p checkers; the
 * battery's history lands in @p history when it is given.
 */
CrashPointResult
runWithCheckers(const CrashSchedule &schedule, Checkers checkers,
                NvramImage *image,
                std::vector<HistoryOp> *history = nullptr)
{
    CrashPointResult result;
    result.schedule = schedule;
    WspSystem crashed(CrashExplorer::configFor(schedule));
    crashed.start();
    auto *kv = static_cast<KvConditionsChecker *>(checkers.front().get());
    for (auto &checker : checkers)
        checker->prepare(crashed, schedule);
    if (schedule.salvage) {
        crashed.setRegionRecovery(
            [kv, &crashed](const RegionOutcome &region) {
                kv->onRegionRecovery(crashed, region);
            });
    }
    FailureInjector injector(crashed);
    if (schedule.drainModule >= 0 &&
        static_cast<size_t>(schedule.drainModule) <
            crashed.memory().moduleCount())
        injector.drainUltracap(static_cast<size_t>(schedule.drainModule),
                               schedule.drainVoltage);
    if (schedule.dropSaveCommands > 0)
        injector.dropSaveCommands(schedule.dropSaveCommands);
    const auto backendOnCrashed = [&checkers, &crashed]() {
        for (auto &checker : checkers)
            checker->onBackendRecovery(crashed);
    };
    for (unsigned cycle = 1; cycle < schedule.trainCycles; ++cycle)
        crashed.powerFailAndRestore(schedule.trainSpacing,
                                    schedule.outage, backendOnCrashed);
    crashed.psu().failInputAt(crashed.queue().now() +
                              schedule.failDelay);
    crashed.runFor(schedule.failDelay + schedule.outage);
    unsigned guard = 0;
    while (!crashed.nvdimms().allIdle() && guard++ < 1000)
        crashed.runFor(fromMillis(10.0));
    for (const PlannedMediaFault &fault :
         plannedMediaFaults(schedule, crashed.memory().moduleCount(),
                            crashed.memory().module(0).capacity()))
        crashed.memory().module(fault.module).injectFlashFault(
            fault.kind, fault.addr);
    *image = crashed.captureNvramImage();

    WspSystem revived(CrashExplorer::configFor(schedule));
    if (schedule.salvage) {
        revived.setRegionRecovery(
            [kv, &revived](const RegionOutcome &region) {
                kv->onRegionRecovery(revived, region);
            });
    }
    bool backend_ran = false;
    result.restore = revived.bootFromImage(
        *image, [&checkers, &revived, &backend_ran]() {
            backend_ran = true;
            for (auto &checker : checkers)
                checker->onBackendRecovery(revived);
        });
    result.backendRan = backend_ran;
    result.appliedOps = kv->appliedOps();
    for (auto &checker : checkers)
        checker->check(crashed, revived, result.restore, backend_ran,
                       &result.violations);
    if (history != nullptr)
        *history = kv->history();
    checkers.clear(); // checkers go before their systems
    return result;
}

/** What differs between two runs of one window; empty if nothing. */
std::string
pointDifference(const CrashPointResult &a, const NvramImage &image_a,
                const CrashPointResult &b, const NvramImage &image_b)
{
    std::ostringstream out;
    const auto field = [&out](const char *name, auto x, auto y) {
        if (x != y)
            out << " " << name << " " << x << " vs " << y;
    };
    field("applied-ops", a.appliedOps, b.appliedOps);
    field("backend-ran", a.backendRan, b.backendRan);
    field("used-wsp", a.restore.usedWsp, b.restore.usedWsp);
    field("salvage-mode", a.restore.salvageMode, b.restore.salvageMode);
    field("restore-ns", a.restore.duration(), b.restore.duration());
    field("salvaged", a.restore.regionsSalvaged,
          b.restore.regionsSalvaged);
    field("quarantined", a.restore.regionsQuarantined,
          b.restore.regionsQuarantined);
    field("recovered", a.restore.regionsRecovered,
          b.restore.regionsRecovered);
    if (a.violations != b.violations)
        out << " verdicts (" << a.violations.size() << " vs "
            << b.violations.size() << " violations)";
    field("modules", image_a.moduleCount(), image_b.moduleCount());
    for (size_t m = 0;
         m < std::min(image_a.moduleCount(), image_b.moduleCount()); ++m) {
        const NvramImage::ModuleImage &x = image_a.module(m);
        const NvramImage::ModuleImage &y = image_b.module(m);
        field("valid", x.valid, y.valid);
        field("generation", x.generation, y.generation);
        field("epoch", x.epoch, y.epoch);
        field("saved-bytes", x.savedBytes, y.savedBytes);
        if (!x.flash.contentEquals(y.flash))
            out << " flash of module " << m;
    }
    return out.str();
}

/**
 * The machine keeps running, so op slots keep taking effect, until the
 * power-fail interrupt lands 310 us (detect + serial latency) after
 * PWR_OK drops. In that span a slot that ties with the hard loss
 * decides whether its op happened, so the differential sweeps every
 * window of it on top of the evenly thinned ones.
 */
constexpr Tick kLiveSpan = fromMicros(400.0);

/**
 * Runs @p base through the product (the op-stream driver) and the
 * eager reference: identical dispatch ticks and enumerated windows,
 * then, at every window in kLiveSpan plus the enumeration thinned to
 * @p max_points, identical verdicts, restore reports, applied ops and
 * surviving images, byte for byte. The machines run no flight
 * recorder unless @p nvram_recorder turns it on (as sweeps run it);
 * its ring holds simulated time only, so the images still compare
 * whole. Returns the product's results, window by window.
 */
std::vector<CrashPointResult>
expectDriverMatchesEager(CrashSchedule base, size_t max_points,
                         bool nvram_recorder = false)
{
    base.blackBox = nvram_recorder;
    const ReferenceRun driven = observeReferenceRun(base, standardCheckers());
    const ReferenceRun eager =
        observeReferenceRun(base, checkersWith<EagerKvChecker>());
    EXPECT_EQ(driven.dispatches, eager.dispatches);
    CrashExplorer explorer(base);
    const std::vector<Tick> all = explorer.enumerateCrashPoints(SIZE_MAX);
    EXPECT_EQ(all, windowsOf(eager));
    const std::vector<Tick> thinned =
        explorer.enumerateCrashPoints(max_points);
    std::set<Tick> windows(thinned.begin(), thinned.end());
    for (Tick window : all) {
        if (window <= kLiveSpan)
            windows.insert(window);
    }

    std::vector<CrashPointResult> results;
    std::vector<std::string> diverged;
    for (Tick window : windows) {
        CrashSchedule schedule = base;
        schedule.window = window;
        NvramImage driven_image;
        NvramImage eager_image;
        results.push_back(
            CrashExplorer::runSchedule(schedule, &driven_image));
        const CrashPointResult reference =
            runWithCheckers(schedule, checkersWith<EagerKvChecker>(),
                            &eager_image);
        const std::string diff =
            pointDifference(results.back(), driven_image, reference,
                            eager_image);
        if (!diff.empty())
            diverged.push_back(formatTime(window) + ":" + diff);
    }
    EXPECT_TRUE(diverged.empty())
        << diverged.size() << " of " << results.size()
        << " windows diverged from the eager schedule; first at "
        << diverged.front();
    return results;
}

size_t
failingPoints(const std::vector<CrashPointResult> &results)
{
    return static_cast<size_t>(std::count_if(
        results.begin(), results.end(),
        [](const CrashPointResult &r) { return !r.held(); }));
}

TEST(DriverDifferential, DefaultSchedule)
{
    // ops=64 ends at 3.2 ms, before the failure: no slot can tie.
    const auto results = expectDriverMatchesEager(CrashSchedule{}, 160);
    EXPECT_EQ(failingPoints(results), 0u);
}

/** A stream of 200 ops runs to 10 ms, past the 5 ms failure. */
CrashSchedule
spanningSchedule()
{
    CrashSchedule schedule;
    schedule.ops = 200;
    return schedule;
}

TEST(DriverDifferential, CrashSweepShapeTwoThousandOps)
{
    // perfbench's crash-sweep: the stream runs 100 ms, far past the
    // failure, so most slots fire into a dark machine.
    CrashSchedule schedule;
    schedule.ops = 2000;
    const auto results = expectDriverMatchesEager(schedule, 400);
    EXPECT_GE(results.size(), 400u);
    EXPECT_EQ(failingPoints(results), 0u);
}

TEST(DriverDifferential, CrashSweepShapeWithTheNvramRecorder)
{
    // As crash-sweep runs it: the black box rides the save, and its
    // checker decodes the ring at every point.
    CrashSchedule schedule;
    schedule.ops = 2000;
    const auto results = expectDriverMatchesEager(schedule, 160, true);
    EXPECT_EQ(failingPoints(results), 0u);
}

TEST(DriverDifferential, AckBeforeApplyStreamSpanningTheFailure)
{
    CrashSchedule schedule = ackBugSchedule();
    schedule.ops = 200;
    const auto results = expectDriverMatchesEager(schedule, 160);
    EXPECT_GT(failingPoints(results), 0u); // the planted bug is caught
}

TEST(DriverDifferential, TrainWhoseOpSlotsOutlastTheRestore)
{
    CrashSchedule schedule;
    schedule.trainCycles = 2;
    schedule.outage = fromMillis(200.0);
    schedule.opSpacing = fromMillis(1.0);
    schedule.ops = 600;
    const auto results = expectDriverMatchesEager(schedule, 160);
    EXPECT_EQ(failingPoints(results), 0u);

    // Ops applied after the train's restore: the same stream with no
    // train and the first cycle's failure delay applies only the ops
    // before that failure.
    CrashSchedule first_cycle = schedule;
    first_cycle.trainCycles = 1;
    first_cycle.failDelay = schedule.trainSpacing;
    first_cycle.blackBox = false;
    const uint64_t before_restore =
        CrashExplorer::runSchedule(first_cycle).appliedOps;
    EXPECT_GE(results.back().appliedOps, before_restore + 5);
}

TEST(DriverDifferential, SalvageWithMediaFaults)
{
    CrashSchedule schedule = spanningSchedule();
    schedule.salvage = true;
    schedule.mediaFaults = 3;
    schedule.mediaFaultSeed = 0x5eed;
    expectDriverMatchesEager(schedule, 160);
}

TEST(DriverDifferential, ForcedDegradedTier)
{
    CrashSchedule schedule = spanningSchedule();
    schedule.salvage = true;
    schedule.degradeTier = 1;
    expectDriverMatchesEager(schedule, 160);
}

TEST(DriverDifferential, EightShardParallelSave)
{
    CrashSchedule schedule = spanningSchedule();
    schedule.shards = 8;
    schedule.parallelSave = true;
    expectDriverMatchesEager(schedule, 160);
}

TEST(DriverDifferential, WithDevices)
{
    CrashSchedule schedule = spanningSchedule();
    schedule.withDevices = true;
    expectDriverMatchesEager(schedule, 160);
}

TEST(DriverDifferential, FullSavesWithLazyRestore)
{
    CrashSchedule schedule = spanningSchedule();
    schedule.incrementalSave = false;
    schedule.lazyRestore = true;
    expectDriverMatchesEager(schedule, 160);
}

TEST(DriverDifferential, AckDelayJustUnderTheOpSpacing)
{
    CrashSchedule schedule = spanningSchedule();
    schedule.ackDelay = fromMicros(49.0);
    expectDriverMatchesEager(schedule, 160);
}

TEST(DriverDifferential, FailDelayOffTheOpGrid)
{
    CrashSchedule schedule = spanningSchedule();
    schedule.failDelay = fromMillis(5.0) + fromMicros(10.0);
    expectDriverMatchesEager(schedule, 160);
}

TEST(DriverDifferential, MarkerBeforeFlush)
{
    CrashSchedule schedule = spanningSchedule();
    schedule.saveOrder = SaveOrder::MarkerBeforeFlush;
    const auto results = expectDriverMatchesEager(schedule, 160);
    EXPECT_GT(failingPoints(results), 0u); // the planted bug is caught
}

// The drawn history against one drawn up front ------------------------

/**
 * The reference for the battery's history: the whole stream drawn, and
 * every op's record declared, at prepare time. Nothing outside this
 * test can select it.
 */
class UpFrontKvChecker : public KvConditionsChecker
{
  public:
    void prepare(WspSystem &system, const CrashSchedule &schedule) override
    {
        KvConditionsChecker::prepare(system, schedule);
        if (schedule.ops > 0)
            drawThrough(schedule.ops - 1);
    }
};

bool
sameOp(const HistoryOp &a, const HistoryOp &b)
{
    const auto fields = [](const HistoryOp &op) {
        return std::tie(op.id, op.isErase, op.key, op.value, op.invoked,
                        op.applied, op.responded, op.persisted);
    };
    return fields(a) == fields(b);
}

/** One past the last invoked op of @p history (0 if none ran). */
size_t
throughLastInvoked(const std::vector<HistoryOp> &history)
{
    size_t through = 0;
    for (size_t i = 0; i < history.size(); ++i) {
        if (history[i].invoked)
            through = i + 1;
    }
    return through;
}

/**
 * Runs @p base at @p points of its enumerated windows with the standard
 * battery and with the up-front reference. The battery's history must
 * hold exactly the ops through the last one a point invoked, each equal
 * to the reference's record at its position; applied ops and verdicts
 * must agree. Returns the battery's histories, window by window.
 */
std::vector<std::vector<HistoryOp>>
expectHistoryIsTheDrawnPrefix(const CrashSchedule &base, size_t points)
{
    std::vector<std::vector<HistoryOp>> histories;
    CrashExplorer explorer(base);
    const std::vector<Tick> windows = explorer.enumerateCrashPoints(points);
    EXPECT_EQ(windows.size(), points);
    for (Tick window : windows) {
        SCOPED_TRACE("window " + formatTime(window));
        CrashSchedule schedule = base;
        schedule.window = window;
        NvramImage image;
        NvramImage reference_image;
        std::vector<HistoryOp> drawn;
        std::vector<HistoryOp> reference;
        const CrashPointResult got =
            runWithCheckers(schedule, standardCheckers(), &image, &drawn);
        const CrashPointResult want =
            runWithCheckers(schedule, checkersWith<UpFrontKvChecker>(),
                            &reference_image, &reference);
        EXPECT_EQ(reference.size(), schedule.ops);
        EXPECT_EQ(drawn.size(), throughLastInvoked(reference));
        EXPECT_LT(drawn.size(), schedule.ops);
        for (size_t i = 0; i < std::min(drawn.size(), reference.size());
             ++i)
            EXPECT_TRUE(sameOp(drawn[i], reference[i])) << "op " << i;
        EXPECT_EQ(got.appliedOps, want.appliedOps);
        EXPECT_EQ(got.violations, want.violations);
        histories.push_back(std::move(drawn));
    }
    return histories;
}

TEST(ConditionsBattery, HistoryHoldsTheOpsThroughTheLastInvoked)
{
    // crash-sweep's schedule: the failure lands 5 ms into a 100 ms
    // stream, so a point invokes about 100 of its 2000 ops.
    CrashSchedule schedule;
    schedule.ops = 2000;
    for (const auto &history : expectHistoryIsTheDrawnPrefix(schedule, 8)) {
        EXPECT_GE(history.size(), 100u);
        EXPECT_LE(history.size(), 110u);
    }
}

TEST(ConditionsBattery, HistoryKeepsTheDarkGapOfATrain)
{
    // The train's first cycle goes dark at 5 ms and resumes after a
    // 200 ms outage: the ops whose slots fired into the dark gap are
    // drawn, never invoked, and ops after them run.
    CrashSchedule schedule;
    schedule.ops = 2000;
    schedule.trainCycles = 2;
    schedule.outage = fromMillis(200.0);
    schedule.opSpacing = fromMillis(1.0);
    for (const auto &history : expectHistoryIsTheDrawnPrefix(schedule, 8)) {
        const size_t dark = static_cast<size_t>(std::count_if(
            history.begin(), history.end(),
            [](const HistoryOp &op) { return !op.invoked; }));
        EXPECT_GE(dark, 100u);
        ASSERT_FALSE(history.empty());
        EXPECT_TRUE(history.back().invoked);
    }
}

TEST(ConditionsBattery, HistoryOfAnAckBeforeApplyStream)
{
    // The planted bug responds before it applies: an op the crash cut
    // between the two slots is invoked, responded and never applied.
    CrashSchedule schedule = ackBugSchedule();
    schedule.ops = 2000;
    for (const auto &history : expectHistoryIsTheDrawnPrefix(schedule, 8)) {
        ASSERT_FALSE(history.empty());
        EXPECT_TRUE(history.back().responded);
        EXPECT_FALSE(history.back().applied);
    }
}

} // namespace
} // namespace wsp::crashsim::conditions
