#include "util/flit.h"

namespace wsp::util {

namespace {
constexpr uint64_t kLineSize = 64;
constexpr uint64_t lineBase(uint64_t addr) { return addr & ~(kLineSize - 1); }
} // namespace

uint64_t
FlitTracker::declareOp(uint8_t kind, uint64_t a, uint64_t b)
{
    FlitOp op;
    op.id = ops_.size();
    op.kind = kind;
    op.a = a;
    op.b = b;
    ops_.push_back(std::move(op));
    return ops_.back().id;
}

void
FlitTracker::beginApply(uint64_t id)
{
    FlitOp &op = ops_.at(id);
    op.invoked = true;
    op.invokeTick = now();
    currentOp_ = id;
    // A re-applied op may have left the waiting lists of lines it
    // already dirtied; it can store to them again.
    for (const auto &entry : op.lines)
        lines_[entry.first].waiting.push_back(id);
}

void
FlitTracker::endApply()
{
    if (currentOp_ != kNoOp) {
        FlitOp &op = ops_[currentOp_];
        op.applied = true;
        // An op whose stores were all clean hits (or that stored
        // nothing) has no outstanding line: it persisted the moment
        // it applied.
        if (op.persistTick == kNoTick && opPersisted(op))
            op.persistTick = now();
    }
    currentOp_ = kNoOp;
}

void
FlitTracker::respond(uint64_t id, bool ok, uint64_t b)
{
    FlitOp &op = ops_.at(id);
    // A response implies the operation started: a caller that hears an
    // acknowledgement before any mutation ran (the ack-before-apply
    // bug) still produced an invoked op the checkers must account for.
    if (!op.invoked) {
        op.invoked = true;
        op.invokeTick = now();
    }
    op.responded = true;
    op.ok = ok;
    op.b = b;
    op.responseTick = now();
}

void
FlitTracker::onStore(uint64_t addr, uint64_t len)
{
    const uint64_t first = lineBase(addr);
    const uint64_t last = len > 0 ? lineBase(addr + len - 1) : first;
    for (uint64_t line = first; line <= last; line += kLineSize) {
        LineState &ls = lines_[line];
        ++ls.pending;
        ls.lastStoreSeq = ++storeSeq_;
        if (currentOp_ == kNoOp)
            continue;
        FlitOp &op = ops_[currentOp_];
        bool found = false;
        for (auto &entry : op.lines) {
            if (entry.first == line) {
                entry.second = ls.lastStoreSeq;
                found = true;
                break;
            }
        }
        if (!found) {
            op.lines.emplace_back(line, ls.lastStoreSeq);
            ls.waiting.push_back(currentOp_);
        }
        op.persistTick = kNoTick;
    }
}

void
FlitTracker::onWriteback(uint64_t line_base)
{
    LineState &ls = lines_[lineBase(line_base)];
    ls.pending = 0;
    ls.lastWritebackSeq = ls.lastStoreSeq;
    ls.lastWritebackTick = now();
    settleOpsOn(ls);
}

void
FlitTracker::onLineLost(uint64_t line_base)
{
    // The counter clears (the line is gone from the cache) but
    // lastWritebackSeq does not advance: pending stores never reached
    // the NV domain, so the ops that issued them stay unpersisted.
    // Remember the discarded interval so a later write-back of the
    // reestablished line cannot retroactively certify the dead stores.
    LineState &ls = lines_[lineBase(line_base)];
    ls.pending = 0;
    ls.wbAtLoss = ls.lastWritebackSeq;
    ls.lostSeq = ls.lastStoreSeq;
}

uint64_t
FlitTracker::pendingStores(uint64_t line_base) const
{
    auto it = lines_.find(lineBase(line_base));
    return it == lines_.end() ? 0 : it->second.pending;
}

bool
FlitTracker::opPersisted(const FlitOp &op) const
{
    for (const auto &[line, seq] : op.lines) {
        auto it = lines_.find(line);
        if (it == lines_.end() || it->second.lastWritebackSeq < seq)
            return false;
        // Written back, unless the store died in a cache loss first.
        const LineState &ls = it->second;
        if (seq > ls.wbAtLoss && seq <= ls.lostSeq)
            return false;
    }
    return true;
}

bool
FlitTracker::opPersisted(const FlitOp &op,
                         const std::function<bool(uint64_t)> &covered) const
{
    if (!opPersisted(op))
        return false;
    for (const auto &[line, seq] : op.lines) {
        (void)seq;
        if (!covered(line))
            return false;
    }
    return true;
}

void
FlitTracker::settleOpsOn(LineState &ls)
{
    // Only this line's waiters can have just completed: the write-back
    // changed no other line. Settled ops leave the list (the op being
    // applied excepted); the rest wait for a later write-back.
    size_t kept = 0;
    for (const uint64_t id : ls.waiting) {
        FlitOp &op = ops_[id];
        if (op.persistTick == kNoTick && opPersisted(op))
            op.persistTick = now();
        if (op.persistTick == kNoTick || id == currentOp_)
            ls.waiting[kept++] = id;
    }
    ls.waiting.resize(kept);
}

void
FlitTracker::reset()
{
    ops_.clear();
    lines_.clear();
    currentOp_ = kNoOp;
    storeSeq_ = 0;
}

} // namespace wsp::util
