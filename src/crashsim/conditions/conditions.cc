#include "crashsim/conditions/conditions.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <span>
#include <unordered_map>

#include "util/logging.h"

namespace wsp::crashsim::conditions {

namespace {

/** A key's value after an operation takes effect (nullopt = absent). */
std::optional<uint64_t>
valueAfter(const HistoryOp &op)
{
    if (op.isErase)
        return std::nullopt;
    return op.value;
}

std::string
formatValue(const std::optional<uint64_t> &value)
{
    if (!value)
        return "absent";
    return std::to_string(*value);
}

/**
 * The invoked operations of a history grouped by key: keys ascending,
 * each key's operations in history order. Built with one sort of the
 * invoked operations (O(n log n)), so the per-key checkers visit every
 * operation once instead of rescanning the history for each key.
 */
class KeyGroups
{
  public:
    using Group = std::span<const HistoryOp *const>;

    explicit KeyGroups(const std::vector<HistoryOp> &ops)
    {
        byKey_.reserve(ops.size());
        for (const HistoryOp &op : ops) {
            if (op.invoked)
                byKey_.push_back(&op);
        }
        // Ties on key fall back to history position (the ops live in
        // one vector), keeping each group in history order.
        std::sort(byKey_.begin(), byKey_.end(),
                  [](const HistoryOp *a, const HistoryOp *b) {
                      return a->key != b->key ? a->key < b->key : a < b;
                  });
    }

    /** Call @p fn(key, ops on key) for every touched key, ascending. */
    template <typename Fn>
    void forEach(Fn fn) const
    {
        for (size_t begin = 0; begin < byKey_.size();) {
            const uint64_t key = byKey_[begin]->key;
            size_t end = begin + 1;
            while (end < byKey_.size() && byKey_[end]->key == key)
                ++end;
            fn(key, Group(byKey_).subspan(begin, end - begin));
            begin = end;
        }
    }

    /** Some invoked operation touched @p key. */
    bool touches(uint64_t key) const
    {
        auto it = std::lower_bound(
            byKey_.begin(), byKey_.end(), key,
            [](const HistoryOp *op, uint64_t k) { return op->key < k; });
        return it != byKey_.end() && (*it)->key == key;
    }

  private:
    std::vector<const HistoryOp *> byKey_;
};

/** Index of the last responded op in @p kops, or -1. */
ptrdiff_t
lastResponded(KeyGroups::Group kops)
{
    ptrdiff_t last = -1;
    for (size_t i = 0; i < kops.size(); ++i) {
        if (kops[i]->responded)
            last = static_cast<ptrdiff_t>(i);
    }
    return last;
}

std::optional<uint64_t>
stateValue(const KvState &state, uint64_t key)
{
    auto it = state.find(key);
    if (it == state.end())
        return std::nullopt;
    return it->second;
}

void
appendViolation(ConditionResult *result, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
appendViolation(ConditionResult *result, const char *fmt, ...)
{
    char line[512];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(line, sizeof(line), fmt, args);
    va_end(args);
    result->ok = false;
    result->violations.emplace_back(line);
}

/**
 * Flag keys present in @p state that no invoked operation ever put —
 * common to every condition (no checker admits invented keys).
 */
void
checkNoInventedKeys(const KeyGroups &groups, const KvState &state,
                    const char *checker, ConditionResult *result)
{
    for (const auto &[key, value] : state) {
        if (!groups.touches(key))
            appendViolation(result,
                            "%s: key %llu=%llu survived but no operation "
                            "in the history ever touched it",
                            checker, static_cast<unsigned long long>(key),
                            static_cast<unsigned long long>(value));
    }
}

} // namespace

ConditionResult
checkDurableLinearizable(const std::vector<HistoryOp> &ops,
                         const KvState &state)
{
    ConditionResult result;
    // Per key: the ops on it are totally ordered and inclusion of each
    // in-flight op is a free choice, so the admissible final values
    // are the value after the last *responded* op (all responded ops
    // must be included; earlier in-flight inclusions are overwritten)
    // plus the value after each later in-flight op.
    const KeyGroups groups(ops);
    groups.forEach([&](uint64_t key, KeyGroups::Group kops) {
        const ptrdiff_t last_responded = lastResponded(kops);

        std::vector<std::optional<uint64_t>> admissible;
        admissible.push_back(last_responded >= 0
                                 ? valueAfter(*kops[last_responded])
                                 : std::nullopt);
        for (size_t i = static_cast<size_t>(last_responded + 1);
             i < kops.size(); ++i)
            admissible.push_back(valueAfter(*kops[i]));

        const std::optional<uint64_t> got = stateValue(state, key);
        bool match = false;
        for (const auto &candidate : admissible)
            match = match || candidate == got;
        if (!match) {
            std::string options;
            for (const auto &candidate : admissible) {
                if (!options.empty())
                    options += ", ";
                options += formatValue(candidate);
            }
            appendViolation(&result,
                            "durable-lin: key %llu holds %s after "
                            "recovery; admissible: {%s} (last responded "
                            "op %s)",
                            static_cast<unsigned long long>(key),
                            formatValue(got).c_str(), options.c_str(),
                            last_responded >= 0
                                ? std::to_string(
                                      kops[last_responded]->id).c_str()
                                : "none");
        }
    });
    checkNoInventedKeys(groups, state, "durable-lin", &result);
    return result;
}

ConditionResult
checkBufferedDurableLinearizable(const std::vector<HistoryOp> &ops,
                                 const KvState &state)
{
    ConditionResult result;
    // The history is sequential, so a consistent cut is a prefix. The
    // cut must contain every persisted operation.
    size_t min_cut = 0;
    for (size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].invoked && ops[i].persisted)
            min_cut = i + 1;
    }

    // Replay the prefix while counting the keys on which it disagrees
    // with the surviving state: the prefix replays to the state
    // exactly when that count is zero, so no cut compares whole maps.
    std::unordered_map<uint64_t, std::optional<uint64_t>> replayed;
    size_t mismatched = state.size();
    bool found = mismatched == 0 && min_cut == 0;
    for (size_t p = 1; p <= ops.size() && !found; ++p) {
        const HistoryOp &op = ops[p - 1];
        if (op.invoked) {
            const std::optional<uint64_t> want = stateValue(state, op.key);
            std::optional<uint64_t> &value = replayed[op.key];
            const std::optional<uint64_t> after = valueAfter(op);
            mismatched -= value != want ? 1 : 0;
            mismatched += after != want ? 1 : 0;
            value = after;
        }
        found = p >= min_cut && mismatched == 0;
    }
    if (!found) {
        appendViolation(&result,
                        "buffered: no prefix cut of the %zu-op history "
                        "containing all persisted ops (earliest legal "
                        "cut %zu) replays to the surviving state",
                        ops.size(), min_cut);
        checkNoInventedKeys(KeyGroups(ops), state, "buffered", &result);
    }
    return result;
}

ConditionResult
checkDetectableExecution(
    const std::vector<HistoryOp> &ops, const KvState &state,
    std::vector<std::pair<uint64_t, OpVerdict>> *verdicts)
{
    ConditionResult result;
    std::vector<std::pair<uint64_t, OpVerdict>> assigned;

    const KeyGroups groups(ops);
    groups.forEach([&](uint64_t key, KeyGroups::Group kops) {
        const ptrdiff_t last_responded = lastResponded(kops);
        const std::optional<uint64_t> got = stateValue(state, key);

        // Find the cut within this key's ops that explains the
        // surviving value: all ops up to it committed, the rest
        // aborted. Prefer the latest explanation (most-recent op
        // committed) for determinism; any consistent one suffices for
        // detectability.
        ptrdiff_t chosen = -2; // -2 = no explanation
        {
            const std::optional<uint64_t> base =
                last_responded >= 0 ? valueAfter(*kops[last_responded])
                                    : std::nullopt;
            if (base == got)
                chosen = last_responded;
            for (size_t i = static_cast<size_t>(last_responded + 1);
                 i < kops.size(); ++i) {
                if (valueAfter(*kops[i]) == got)
                    chosen = static_cast<ptrdiff_t>(i);
            }
        }
        if (chosen == -2) {
            appendViolation(&result,
                            "detectable: key %llu holds %s — no "
                            "commit/abort assignment of its %zu ops "
                            "explains it (partial effect survived?)",
                            static_cast<unsigned long long>(key),
                            formatValue(got).c_str(), kops.size());
            return;
        }
        for (size_t i = 0; i < kops.size(); ++i) {
            assigned.emplace_back(kops[i]->id,
                                  static_cast<ptrdiff_t>(i) <= chosen
                                      ? OpVerdict::Committed
                                      : OpVerdict::Aborted);
        }
    });

    checkNoInventedKeys(groups, state, "detectable", &result);
    if (result.ok && verdicts != nullptr) {
        std::sort(assigned.begin(), assigned.end());
        *verdicts = std::move(assigned);
    }
    return result;
}

} // namespace wsp::crashsim::conditions
