#include "sim/event_queue.h"

#include <atomic>

#include "util/logging.h"

namespace wsp {

namespace {

/** Last machine id handed out; 0 stays free for the host clock. */
std::atomic<uint64_t> lastMachineId{0};

} // namespace

EventQueue::EventQueue()
    : machineId_(lastMachineId.fetch_add(1, std::memory_order_relaxed) + 1)
{
}

void
EventQueue::dispatchTop()
{
    const uint32_t slot = heap_.front().slot();
    const Tick when = heap_.front().when;
    WSP_CHECK(when >= now_);
    // Move the callback out and retire the slot before firing: the
    // callback is free to schedule (possibly reusing this slot under a
    // fresh generation) or cancel anything it likes.
    EventFn fn = std::move(slots_[slot]);
    popTop();
    heapIndex_[slot] = kNotQueued;
    slots_.release(slot);
    now_ = when;
    if (dispatchObserver_)
        dispatchObserver_(when);
    fn();
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    dispatchTop();
    return true;
}

Tick
EventQueue::run()
{
    while (!stopRequested_ && step()) {
    }
    return now_;
}

Tick
EventQueue::runUntil(Tick when)
{
    WSP_CHECK(when >= now_);
    // A callback may stop the drain (leaving now() at its own tick)
    // or schedule new events at or before the target, which must fire
    // in this drain; events exactly at the target tick are included.
    while (!stopRequested_ && !heap_.empty() && heap_.front().when <= when) {
        dispatchTop();
    }
    if (!stopRequested_)
        now_ = when;
    return now_;
}

void
EventQueue::checkConsistency() const
{
    for (uint32_t pos = 0; pos < heap_.size(); ++pos) {
        const HeapEntry &entry = heap_[pos];
        const uint32_t slot = entry.slot();
        WSP_CHECKF(slot < slots_.capacity(),
                   "heap names slot %u beyond the slab", slot);
        WSP_CHECKF(heapIndex_[slot] == pos,
                   "slot %u heapIndex %u disagrees with position %u",
                   slot, heapIndex_[slot], pos);
        if (pos > 0) {
            const HeapEntry &parent = heap_[(pos - 1) / kArity];
            WSP_CHECKF(!firesBefore(entry, parent),
                       "heap order violated at position %u", pos);
        }
    }
    WSP_CHECKF(slots_.liveCount() == heap_.size(),
               "%zu live slots but %zu queued events",
               slots_.liveCount(), heap_.size());
}

} // namespace wsp
