#include "crashsim/conditions/kv_conditions.h"

#include <cstdio>

#include "apps/kv_store.h"
#include "core/salvage_directory.h"
#include "util/logging.h"
#include "util/rng.h"

namespace wsp::crashsim::conditions {

namespace {

/** Keys are drawn from [1, kKeyUniverse] so absence is checkable. */
constexpr uint64_t kKeyUniverse = 128;

/** KvStore header bytes ahead of a shard's slot array. */
constexpr uint64_t kKvHeaderBytes = 64;

/**
 * Mirrors ShardedKvStore::shardOf so a single wounded shard can be
 * replayed without attaching the whole store (whose sibling headers
 * may themselves be scrubbed at that point).
 */
unsigned
shardOfKey(uint64_t key, unsigned shards)
{
    uint64_t h = key;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 29;
    return static_cast<unsigned>(h & (shards - 1));
}

/**
 * Attach the checker's store as @p shards stripes over the system's
 * (single) cache. The striped layout with shards == 1 is bit-for-bit
 * the plain KvStore layout, so one code path covers both regimes.
 */
std::optional<apps::ShardedKvStore>
attachCheckerStore(WspSystem &system, unsigned shards)
{
    std::vector<CacheModel *> caches(shards, &system.cache());
    return apps::ShardedKvStore::attach(
        std::span<CacheModel *const>(caches), KvConditionsChecker::kBase);
}

apps::ShardedKvStore
createCheckerStore(WspSystem &system, unsigned shards)
{
    std::vector<CacheModel *> caches(shards, &system.cache());
    return apps::ShardedKvStore(std::span<CacheModel *const>(caches),
                                KvConditionsChecker::kBase,
                                KvConditionsChecker::kCapacity / shards);
}

bool
runsCondition(ConditionMode selected, ConditionMode wanted)
{
    return selected == ConditionMode::All || selected == wanted;
}

/** Operations take effect only on a running, powered machine. */
bool
powered(WspSystem &system)
{
    return system.wsp().running() && system.machine().powerOn();
}

} // namespace

void
KvConditionsChecker::prepare(WspSystem &system,
                             const CrashSchedule &schedule)
{
    prepareWorkload(system, schedule);
    // Each operation has two slots — apply and respond, ackDelay apart
    // — so both the mutation boundary and the completion boundary are
    // distinguishable crash points, and ops silently stop while the
    // machine is down (then resume if a train cycle brings it back
    // with time to spare).
    driver_.start(*this, system, schedule);
}

void
KvConditionsChecker::prepareWorkload(WspSystem &system,
                                     const CrashSchedule &schedule)
{
    model_.clear();
    appliedOps_ = 0;
    historyValid_ = false;
    history_.clear();
    survivingState_.clear();
    shards_ = schedule.shards;
    ackBeforeApply_ = schedule.ackBeforeApply;
    condition_ = schedule.condition;
    WSP_CHECKF(shards_ >= 1 && kCapacity % shards_ == 0,
               "kv-conditions shard count must divide the capacity");
    WSP_CHECKF(schedule.ackDelay < schedule.opSpacing,
               "kv-conditions needs ackDelay < opSpacing (sequential "
               "history)");

    // The FliT tracker: the store reports its stores into it, the
    // cache reports write-backs and losses, and the combination is
    // the persist point of every operation. Shared so the cache
    // observer stays valid whatever is destroyed first.
    flit_ = std::make_shared<util::FlitTracker>();
    flit_->setClock([queue = &system.queue()]() { return queue->now(); });
    system.cache().setWritebackObserver(
        [flit = flit_](uint64_t line_base, bool lost) {
            if (lost)
                flit->onLineLost(line_base);
            else
                flit->onWriteback(line_base);
        });

    createCheckerStore(system, shards_);

    if (schedule.salvage) {
        // Tiered regions: shard headers outrank the bulk slot arrays,
        // so a degraded save keeps the cheap metadata and a restore
        // rebuilds only the shards whose data was sacrificed.
        const uint64_t per_shard = kCapacity / shards_;
        const uint64_t stride =
            apps::ShardedKvStore::shardStride(per_shard);
        for (unsigned i = 0; i < shards_; ++i) {
            const uint64_t shard_base = kBase + i * stride;
            char name[SalvageDirectory::kMaxNameBytes + 1];
            std::snprintf(name, sizeof(name), "kv%u.meta", i);
            system.registerSalvageRegion(SalvageRegionSpec{
                name, shard_base, kKvHeaderBytes, SaveTier::Metadata});
            std::snprintf(name, sizeof(name), "kv%u.data", i);
            system.registerSalvageRegion(SalvageRegionSpec{
                name, shard_base + kKvHeaderBytes, per_shard * 16,
                SaveTier::Bulk});
        }
    }

    // Pre-draw the whole operation stream (and declare its history
    // records) so determinism does not depend on how far the run gets
    // before the lights go out.
    Rng rng(schedule.seed ^ 0x6b76ull); // "kv"
    ops_.clear();
    ops_.reserve(schedule.ops);
    for (unsigned i = 0; i < schedule.ops; ++i) {
        Op op;
        op.isPut = rng.chance(0.8);
        op.key = rng.next(kKeyUniverse) + 1;
        op.value = rng.next(1u << 20) + 1;
        ops_.push_back(op);
        const uint64_t id =
            flit_->declareOp(op.isPut ? 0 : 1, op.key, op.value);
        WSP_CHECK(id == i);
    }
}

void
KvConditionsChecker::applyOp(WspSystem &system, unsigned i)
{
    if (!powered(system))
        return;
    auto store = attachCheckerStore(system, shards_);
    if (!store)
        return;
    store->setFlitTracker(flit_.get());
    const Op &op = ops_[i];
    flit_->beginApply(i);
    bool ok;
    if (op.isPut) {
        ok = store->put(op.key, op.value);
        if (ok)
            model_[op.key] = op.value;
    } else {
        ok = store->erase(op.key);
        model_.erase(op.key);
    }
    flit_->endApply();
    flit_->op(i).ok = ok;
    ++appliedOps_;
}

void
KvConditionsChecker::respondOp(WspSystem &system, unsigned i)
{
    if (!powered(system))
        return;
    if (ackBeforeApply_) {
        // Planted bug: acknowledge first, mutate later. A crash in the
        // gap completes an operation that never happened.
        flit_->respond(i, true, ops_[i].value);
        return;
    }
    if (flit_->op(i).applied)
        flit_->respond(i, flit_->op(i).ok, ops_[i].value);
}

void
KvConditionsChecker::onBackendRecovery(WspSystem &system)
{
    // "Fetch from the storage back end": rebuild the store from the
    // applied model, exactly what a real KV server would do from its
    // log. The rebuild's stores are recovery traffic, not operations,
    // so they are not attributed to any history record.
    apps::ShardedKvStore store = createCheckerStore(system, shards_);
    for (const auto &[key, value] : model_)
        store.put(key, value);
}

void
KvConditionsChecker::onRegionRecovery(WspSystem &system,
                                      const RegionOutcome &region)
{
    unsigned shard = 0;
    if (std::sscanf(region.name.c_str(), "kv%u.", &shard) != 1 ||
        shard >= shards_)
        return;
    const uint64_t per_shard = kCapacity / shards_;
    const uint64_t stride = apps::ShardedKvStore::shardStride(per_shard);
    // Reformat exactly the wounded shard, then replay its keys from
    // the model — the "fetch from the back end" of one shard, not the
    // whole store. A second quarantine of the same shard (header and
    // slots both hit) just repeats the idempotent rebuild.
    apps::KvStore fresh(system.cache(), kBase + shard * stride,
                        per_shard);
    for (const auto &[key, value] : model_) {
        if (shardOfKey(key, shards_) == shard)
            fresh.put(key, value);
    }
}

void
KvConditionsChecker::check(WspSystem &crashed, WspSystem &revived,
                           const RestoreReport &restore, bool backend_ran,
                           std::vector<std::string> *violations)
{
    if (!restore.usedWsp && !backend_ran && !restore.salvageMode) {
        addViolation(violations,
                     "kv-conditions: neither WSP restore, region "
                     "salvage, nor back-end recovery ran; store state "
                     "is undefined");
        return;
    }

    auto store = attachCheckerStore(revived, shards_);
    if (!store) {
        addViolation(violations,
                     "kv-conditions: no valid store header after %s "
                     "(applied ops: %llu)",
                     restore.usedWsp      ? "WSP restore"
                     : restore.salvageMode ? "region salvage"
                                           : "back-end recovery",
                     static_cast<unsigned long long>(appliedOps_));
        return;
    }

    // The surviving state, as the store itself reports it — a slot a
    // torn write invented shows up here and fails every condition.
    survivingState_.clear();
    store->forEach([this](uint64_t key, uint64_t value) {
        survivingState_[key] = value;
    });

    // A line's content reached the NV domain only if its module
    // actually programmed it: the copy engine writes the suffix
    // [capacity - savedBytes, capacity) of each module, top down.
    NvramSpace &memory = crashed.memory();
    const auto flashCovered = [&memory](uint64_t line) {
        for (size_t i = 0; i < memory.moduleCount(); ++i) {
            const NvdimmModule &module = memory.module(i);
            const uint64_t mbase = memory.moduleBase(i);
            const uint64_t mend = mbase + module.capacity();
            if (line < mbase || line >= mend)
                continue;
            return line >= mend - module.flashSavedBytes();
        }
        return false;
    };

    // Assemble the formal history from the FliT records.
    history_.clear();
    history_.reserve(flit_->ops().size());
    for (const util::FlitOp &op : flit_->ops()) {
        HistoryOp h;
        h.id = op.id;
        h.isErase = op.kind == 1;
        h.key = op.a;
        h.value = op.b;
        h.invoked = op.invoked;
        h.applied = op.applied;
        h.responded = op.responded;
        h.persisted =
            op.applied && flit_->opPersisted(op, flashCovered);
        history_.push_back(h);
    }
    historyValid_ = true;

    if (runsCondition(condition_, ConditionMode::DurableLin)) {
        const ConditionResult dl =
            checkDurableLinearizable(history_, survivingState_);
        for (const std::string &violation : dl.violations)
            addViolation(violations, "kv-conditions: %s",
                         violation.c_str());
    }
    if (runsCondition(condition_, ConditionMode::BufferedDurableLin)) {
        const ConditionResult bdl = checkBufferedDurableLinearizable(
            history_, survivingState_);
        for (const std::string &violation : bdl.violations)
            addViolation(violations, "kv-conditions: %s",
                         violation.c_str());
    }
}

void
DetectableExecutionChecker::check(WspSystem &crashed, WspSystem &revived,
                                  const RestoreReport &restore,
                                  bool backend_ran,
                                  std::vector<std::string> *violations)
{
    (void)crashed;
    (void)revived;
    (void)restore;
    (void)backend_ran;
    if (!battery_->historyValid() ||
        !(condition_ == ConditionMode::All ||
          condition_ == ConditionMode::Detectable))
        return;

    std::vector<std::pair<uint64_t, OpVerdict>> verdicts;
    const ConditionResult result = checkDetectableExecution(
        battery_->history(), battery_->survivingState(), &verdicts);
    for (const std::string &violation : result.violations)
        addViolation(violations, "detectable-execution: %s",
                     violation.c_str());
    if (!result.ok)
        return;

    // Every invoked operation — the in-flight ones included — must
    // have received a reboot verdict.
    size_t invoked = 0;
    for (const HistoryOp &op : battery_->history())
        invoked += op.invoked ? 1 : 0;
    if (verdicts.size() != invoked)
        addViolation(violations,
                     "detectable-execution: %zu of %zu invoked ops "
                     "received a commit/abort verdict",
                     verdicts.size(), invoked);
}

} // namespace wsp::crashsim::conditions
