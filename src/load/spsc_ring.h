/**
 * @file
 * Single-producer / single-consumer submission ring.
 *
 * The traffic plane (traffic_plane.h) connects every producer worker
 * to every store shard with one of these: the producer routes each
 * generated op to its shard's ring, the shard's owning consumer
 * drains runs and applies them as batches. One producer, one consumer
 * — the only synchronization is a pair of monotonically increasing
 * positions published with release stores and read with acquire
 * loads; there are no locks, no CAS loops, and after construction no
 * allocation (storage is carved from a util::Arena by the caller).
 *
 * Layout follows the classic cached-index design: each side keeps a
 * local copy of the other side's position and refreshes it only when
 * the ring *appears* full/empty, so steady-state pushes and pops
 * touch a single shared cache line each. Positions are free-running
 * uint64s (never wrapped), so full/empty tests are plain subtraction
 * and the ABA problem cannot arise.
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

#include "util/logging.h"

namespace wsp::load {

/**
 * Fixed-capacity SPSC ring over caller-provided storage. T must be
 * trivially copyable (frames are memcpy'd in and out in runs).
 */
template <typename T>
class SpscRing
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "ring frames are copied as raw runs");

  public:
    /** @p storage must hold @p capacity items; capacity is a power
     *  of two. The ring does not own the storage (arena-backed). */
    SpscRing(T *storage, size_t capacity)
        : buf_(storage), mask_(capacity - 1)
    {
        WSP_CHECK(capacity >= 2 && (capacity & (capacity - 1)) == 0);
    }

    SpscRing(const SpscRing &) = delete;
    SpscRing &operator=(const SpscRing &) = delete;

    size_t capacity() const { return mask_ + 1; }

    // Producer side ----------------------------------------------------

    /**
     * Push up to items.size() frames; returns how many were copied
     * in (possibly 0 when full — the caller counts that as a
     * back-pressure stall and decides how to wait).
     */
    size_t tryPush(std::span<const T> items)
    {
        const uint64_t tail = tail_.load(std::memory_order_relaxed);
        size_t free = capacity() - static_cast<size_t>(tail - cachedHead_);
        if (free < items.size()) {
            cachedHead_ = head_.load(std::memory_order_acquire);
            free = capacity() - static_cast<size_t>(tail - cachedHead_);
            if (free == 0)
                return 0;
        }
        const size_t n = items.size() < free ? items.size() : free;
        for (size_t i = 0; i < n; ++i)
            buf_[static_cast<size_t>(tail + i) & mask_] = items[i];
        tail_.store(tail + n, std::memory_order_release);
        return n;
    }

    /** Single-frame convenience push. */
    bool tryPush(const T &item) { return tryPush({&item, 1}) == 1; }

    // Consumer side ----------------------------------------------------

    /**
     * Pop up to out.size() frames; returns how many were copied out
     * (0 when empty).
     */
    size_t tryPop(std::span<T> out)
    {
        const uint64_t head = head_.load(std::memory_order_relaxed);
        size_t avail = static_cast<size_t>(cachedTail_ - head);
        if (avail == 0) {
            cachedTail_ = tail_.load(std::memory_order_acquire);
            avail = static_cast<size_t>(cachedTail_ - head);
            if (avail == 0)
                return 0;
        }
        const size_t n = out.size() < avail ? out.size() : avail;
        for (size_t i = 0; i < n; ++i)
            out[i] = buf_[static_cast<size_t>(head + i) & mask_];
        head_.store(head + n, std::memory_order_release);
        return n;
    }

    /** True when the consumer's view says no frames are pending;
     *  refreshes its view first, so producers that have finished
     *  publishing cannot be missed. */
    bool emptyConsumer()
    {
        const uint64_t head = head_.load(std::memory_order_relaxed);
        cachedTail_ = tail_.load(std::memory_order_acquire);
        return cachedTail_ == head;
    }

  private:
    T *buf_;
    size_t mask_;

    // Producer-owned line: its position plus its cached view of the
    // consumer. Consumer-owned line likewise. alignas keeps the two
    // sides off each other's cache line (no false sharing).
    alignas(64) std::atomic<uint64_t> tail_{0};
    uint64_t cachedHead_ = 0;
    alignas(64) std::atomic<uint64_t> head_{0};
    uint64_t cachedTail_ = 0;
};

} // namespace wsp::load
