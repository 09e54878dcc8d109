/**
 * @file
 * Discrete-event simulation engine.
 *
 * The hardware substrates (power supply, NVDIMMs, machine, devices)
 * advance simulated time through a single EventQueue. Events at the
 * same tick fire in scheduling order (FIFO), which keeps runs fully
 * deterministic for a given seed.
 *
 * Hot-path layout (see DESIGN.md §12): callbacks live in a
 * generational slot slab (util::Slab, one 64-byte line per slot), and
 * the priority structure is a 4-ary min-heap of 16-byte entries that
 * carry their own sort key — the tick plus a packed (schedule seq,
 * slot) word — so sift comparisons never leave the heap array and
 * four siblings share a cache line. Slot generations and heap
 * positions live in dense 32-bit side arrays, so the bookkeeping a
 * sift or a stale-handle check touches stays hot even when the slab
 * itself does not: cancel() is a direct O(log n) heap removal — no
 * tombstone sets, no lazy purging, and pending() is exactly the heap
 * size. EventIds pack (slot, generation) so a handle to a fired or
 * cancelled event goes stale the moment the slot is recycled;
 * cancellation of a stale handle is a two-compare rejection.
 * Callbacks are util::SmallFn with a 48-byte inline buffer, so the
 * closures models actually schedule (an object pointer plus a few
 * arguments) never touch the general-purpose heap.
 *
 * Reserved dispatch order: reserve() hands out a block of sequence
 * numbers now, and scheduleReserved() inserts an event under one of
 * them later. At equal ticks that event fires exactly where it would
 * have fired had it been scheduled at reservation time, so a model
 * can keep one pending event per stream and re-arm it lazily without
 * changing any equal-tick tie an up-front schedule would have had.
 *
 * Machine id: each queue is one simulated machine's clock, and takes a
 * process-unique id at construction (never 0, never reused). The trace
 * layer stamps simulated-time records with (machineId(), now()), so
 * records from machines that are alive at once stay on separate
 * timelines.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/arena.h"
#include "util/logging.h"
#include "util/small_fn.h"
#include "util/units.h"

namespace wsp {

/**
 * Opaque handle to a scheduled event, usable for cancellation.
 * Packs (slot index + 1) in the high 32 bits and the slot's
 * generation in the low 32; kEventNone (0) never names an event.
 */
using EventId = uint64_t;

/** Sentinel EventId returned for no event. */
constexpr EventId kEventNone = 0;

/** Event callback: move-only, 48 bytes of inline capture space. */
using EventFn = util::SmallFn<48>;

/**
 * Priority queue of timed callbacks over simulated nanoseconds.
 *
 * The queue owns no simulation objects; models hold a reference to it
 * and schedule closures. run() drains events until the queue empties
 * or a stop condition fires; runUntil() advances to a target tick.
 */
class EventQueue
{
  public:
    EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** This queue's process-unique machine id (>= 1). */
    uint64_t machineId() const { return machineId_; }

    /**
     * Schedule @p fn at absolute tick @p when (>= now).
     * @return handle usable with cancel().
     *
     * Defined inline below (with cancel and the sift helpers): the
     * schedule/cancel pair is the per-event cost of every model, and
     * keeping it visible to callers lets the closure construction
     * fuse with the slab store.
     */
    EventId schedule(Tick when, EventFn fn);

    /** Schedule @p fn @p delay ticks from now. */
    EventId scheduleAfter(Tick delay, EventFn fn);

    /**
     * Reserve @p count consecutive dispatch-order sequence numbers,
     * as if @p count events were scheduled right now, and return the
     * first. Aborts if the block would leave the sequence space.
     */
    uint64_t reserve(uint64_t count);

    /**
     * Schedule @p fn at absolute tick @p when (>= now) under sequence
     * number @p seq, taken from an earlier reserve(). Against every
     * other event at the same tick it fires exactly where an event
     * scheduled at reservation time would have fired. Each reserved
     * number may be used at most once; the caller must schedule it
     * before the dispatch position passes (when, seq), which holds
     * when it is armed from an event that fires earlier in the same
     * order (the op-stream driver re-arms from the preceding slot).
     * @return handle usable with cancel().
     */
    EventId scheduleReserved(Tick when, uint64_t seq, EventFn fn);

    /** Cancel a pending event; returns false if already fired/unknown. */
    bool cancel(EventId id);

    /** Number of events still pending. */
    size_t pending() const { return heap_.size(); }

    /** Run until the queue is empty. Returns the final tick. */
    Tick run();

    /**
     * Run events with tick <= @p when, then set now() to @p when even
     * if no event fired. Returns now().
     */
    Tick runUntil(Tick when);

    /** Fire exactly one event if any is pending; returns true if so. */
    bool step();

    /**
     * Request that run()/runUntil() return before dispatching further
     * events. Used by models that must freeze the world (e.g. the
     * instant system power is truly lost).
     */
    void requestStop() { stopRequested_ = true; }

    /** True if a stop was requested and not yet cleared. */
    bool stopRequested() const { return stopRequested_; }

    /** Clear a pending stop request. */
    void clearStop() { stopRequested_ = false; }

    /**
     * Install a callback invoked with the dispatch tick just before
     * every event fires (nullptr uninstalls). Event boundaries are
     * exactly the instants at which simulated state changes, so an
     * observer sees the complete set of distinguishable crash points
     * of a run; the crashsim enumerator uses this to build its sweep.
     */
    void setDispatchObserver(std::function<void(Tick)> observer)
    {
        dispatchObserver_ = std::move(observer);
    }

    /**
     * Verify the heap invariant and the slot/heap index cross-links;
     * aborts on corruption. For the differential test battery.
     */
    void checkConsistency() const;

  private:
    /** Children per heap node; 4 keeps the tree shallow and the
     *  sift loops within one or two cache lines of indices. */
    static constexpr uint32_t kArity = 4;

    /** heapIndex value marking a slot that is not queued. */
    static constexpr uint32_t kNotQueued = ~0u;

    /** Bits of the packed seq/slot word naming the slot. Bounds the
     *  queue at 16M concurrent events and 2^40 lifetime schedules
     *  (reserved sequence numbers included). */
    static constexpr uint32_t kSlotBits = 24;
    static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;
    static constexpr uint64_t kSeqLimit = uint64_t{1} << (64 - kSlotBits);

    /**
     * Heap entry: the full sort key travels with the slot index so
     * sift comparisons stay inside the heap array. seq occupies the
     * high bits of the packed word, so comparing the words compares
     * seqs (they are unique; the slot bits never decide).
     */
    struct HeapEntry
    {
        Tick when;
        uint64_t seqSlot;

        uint32_t slot() const
        {
            return static_cast<uint32_t>(seqSlot & kSlotMask);
        }
    };

    static EventId makeId(uint32_t slot, uint32_t generation)
    {
        return (static_cast<uint64_t>(slot + 1) << 32) | generation;
    }

    /** True when entry @p a fires strictly before entry @p b. */
    static bool firesBefore(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.seqSlot < b.seqSlot;
    }

    /** Put @p entry at heap position @p pos and record the position. */
    void place(uint32_t pos, const HeapEntry &entry)
    {
        heap_[pos] = entry;
        heapIndex_[entry.slot()] = pos;
    }

    /**
     * The insert path schedule() and scheduleReserved() share, in two
     * halves so schedule() draws its sequence number between them, as
     * it did before the path was shared: claimSlot() moves @p fn
     * straight into a fresh slot, enqueue() queues that slot at
     * (when, seq).
     */
    uint32_t claimSlot(EventFn &&fn);
    EventId enqueue(Tick when, uint64_t seq, uint32_t slot);

    void siftUp(uint32_t pos);
    void siftDown(uint32_t pos);

    /** Remove the heap entry at @p pos, restoring the invariant. */
    void removeHeapAt(uint32_t pos);

    /** Remove the root entry (bottom-up hole sink; see definition). */
    void popTop();

    /** Fire the root event (sets now(), notifies the observer). */
    void dispatchTop();

    util::Slab<EventFn> slots_;
    std::vector<uint32_t> heapIndex_; ///< per-slot heap position
    std::vector<HeapEntry> heap_;
    std::function<void(Tick)> dispatchObserver_;
    const uint64_t machineId_;
    Tick now_ = 0;
    uint64_t nextSeq_ = 0;
    bool stopRequested_ = false;
};

inline uint32_t
EventQueue::claimSlot(EventFn &&fn)
{
    WSP_CHECK(static_cast<bool>(fn));
    const uint32_t slot = slots_.acquire();
    WSP_CHECKF(slot < kSlotMask, "EventQueue slot space exhausted");
    if (slot >= heapIndex_.size())
        heapIndex_.resize(slot + 1, kNotQueued);
    slots_[slot] = std::move(fn);
    return slot;
}

inline EventId
EventQueue::enqueue(Tick when, uint64_t seq, uint32_t slot)
{
    if (when < now_)
        when = now_;
    const uint32_t pos = static_cast<uint32_t>(heap_.size());
    heap_.push_back(HeapEntry{when, (seq << kSlotBits) | slot});
    heapIndex_[slot] = pos;
    siftUp(pos);
    return makeId(slot, slots_.generation(slot));
}

inline EventId
EventQueue::schedule(Tick when, EventFn fn)
{
    const uint32_t slot = claimSlot(std::move(fn));
    WSP_CHECKF(nextSeq_ < kSeqLimit, "EventQueue sequence space exhausted");
    return enqueue(when, nextSeq_++, slot);
}

inline uint64_t
EventQueue::reserve(uint64_t count)
{
    WSP_CHECKF(count <= kSeqLimit - nextSeq_,
               "EventQueue sequence space exhausted");
    const uint64_t first = nextSeq_;
    nextSeq_ += count;
    return first;
}

inline EventId
EventQueue::scheduleReserved(Tick when, uint64_t seq, EventFn fn)
{
    WSP_CHECKF(seq < nextSeq_, "EventQueue sequence %llu was not reserved",
               static_cast<unsigned long long>(seq));
    WSP_CHECK(when >= now_);
    return enqueue(when, seq, claimSlot(std::move(fn)));
}

inline EventId
EventQueue::scheduleAfter(Tick delay, EventFn fn)
{
    WSP_CHECK(delay <= kTickNever - now_);
    return schedule(now_ + delay, std::move(fn));
}

inline bool
EventQueue::cancel(EventId id)
{
    const uint32_t index = static_cast<uint32_t>(id >> 32);
    if (index == 0)
        return false;
    const uint32_t slot = index - 1;
    const uint32_t generation = static_cast<uint32_t>(id);
    // Stale handles (fired or cancelled events) fail the generation
    // check; the heapIndex check rejects a recycled-but-idle slot.
    if (!slots_.alive(slot, generation))
        return false;
    if (heapIndex_[slot] == kNotQueued)
        return false;
    removeHeapAt(heapIndex_[slot]);
    slots_[slot] = EventFn(); // release the callback's resources now
    heapIndex_[slot] = kNotQueued;
    slots_.release(slot);
    return true;
}

inline void
EventQueue::siftUp(uint32_t pos)
{
    const HeapEntry moving = heap_[pos];
    while (pos > 0) {
        const uint32_t parent = (pos - 1) / kArity;
        if (!firesBefore(moving, heap_[parent]))
            break;
        place(pos, heap_[parent]);
        pos = parent;
    }
    place(pos, moving);
}

inline void
EventQueue::siftDown(uint32_t pos)
{
    const HeapEntry moving = heap_[pos];
    const uint32_t size = static_cast<uint32_t>(heap_.size());
    while (true) {
        const uint64_t first = uint64_t{pos} * kArity + 1;
        if (first >= size)
            break;
        const uint32_t last = static_cast<uint32_t>(
            first + kArity < size ? first + kArity : size);
        uint32_t best = static_cast<uint32_t>(first);
        for (uint32_t child = best + 1; child < last; ++child) {
            if (firesBefore(heap_[child], heap_[best]))
                best = child;
        }
        if (!firesBefore(heap_[best], moving))
            break;
        place(pos, heap_[best]);
        pos = best;
    }
    place(pos, moving);
}

inline void
EventQueue::removeHeapAt(uint32_t pos)
{
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size())
        return;
    place(pos, last);
    // The hole filler may belong above or below its new position.
    if (pos > 0 && firesBefore(last, heap_[(pos - 1) / kArity]))
        siftUp(pos);
    else
        siftDown(pos);
}

inline void
EventQueue::popTop()
{
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    const uint32_t size = static_cast<uint32_t>(heap_.size());
    if (size == 0)
        return;
    // Bottom-up removal: sink the root hole along the min-child path
    // to a leaf, then drop the ex-tail entry there and bubble it up.
    // Versus sifting the tail down from the root this skips the
    // per-level filler comparison, and because the tail is usually one
    // of the latest-firing entries, the bubble-up almost never moves.
    uint32_t pos = 0;
    while (true) {
        const uint64_t first = uint64_t{pos} * kArity + 1;
        if (first >= size)
            break;
        const uint32_t end = static_cast<uint32_t>(
            first + kArity < size ? first + kArity : size);
        uint32_t best = static_cast<uint32_t>(first);
        for (uint32_t child = best + 1; child < end; ++child) {
            if (firesBefore(heap_[child], heap_[best]))
                best = child;
        }
        place(pos, heap_[best]);
        pos = best;
    }
    place(pos, last);
    siftUp(pos);
}

} // namespace wsp
