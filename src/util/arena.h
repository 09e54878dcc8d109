/**
 * @file
 * Slab and arena allocation for simulation hot paths.
 *
 * The event engine and the serving path both burn through small,
 * uniform objects at rates where the general-purpose heap becomes the
 * profile: a malloc/free pair per scheduled event or per staged op
 * costs more than the work the object represents. This header
 * provides the two shapes those paths need:
 *
 *  - Arena: a chunked bump allocator. Allocation is a pointer bump;
 *    individual frees do not exist; reset() recycles every chunk in
 *    place so a long-lived owner (a per-run scratch) reuses the same
 *    pages forever. The traffic plane carves its op frames from one.
 *  - Slab<T>: a generational slot store over a single growable array.
 *    acquire()/release() recycle fixed slots through a free list with
 *    no per-object allocation, and every slot carries a generation
 *    counter so a stale handle can be rejected after reuse — the
 *    EventQueue builds its tombstone-free cancellation on this.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "util/logging.h"

namespace wsp::util {

/**
 * Chunked bump allocator. Not thread-safe; owners that share an arena
 * across threads must serialize externally (the traffic plane carves
 * its frames at construction, from one thread).
 */
class Arena
{
  public:
    static constexpr size_t kDefaultChunkBytes = 64 * 1024;

    explicit Arena(size_t chunk_bytes = kDefaultChunkBytes)
        : chunkBytes_(chunk_bytes)
    {
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Bump-allocate @p bytes aligned to @p align. Never null. */
    void *allocate(size_t bytes, size_t align = alignof(std::max_align_t))
    {
        WSP_CHECK(align != 0 && (align & (align - 1)) == 0);
        // Align the absolute address, not the chunk offset: chunk
        // bases are only max_align_t-aligned, so stronger requests
        // (cache-line payloads) need the padding computed from the
        // real pointer. nextChunk(bytes + align) leaves room for it.
        if (current_ >= chunks_.size())
            nextChunk(bytes + align);
        size_t offset = alignedOffset(align, cursor_);
        if (offset + bytes > chunks_[current_].size) {
            nextChunk(bytes + align);
            offset = alignedOffset(align, 0);
        }
        cursor_ = offset + bytes;
        allocated_ += bytes;
        return chunks_[current_].data.get() + offset;
    }

    /** Typed convenience: uninitialized storage for @p count Ts. */
    template <typename T>
    T *allocate(size_t count)
    {
        return static_cast<T *>(
            allocate(count * sizeof(T), alignof(T)));
    }

    /**
     * Recycle every chunk: subsequent allocations reuse the existing
     * memory from the start. Outstanding pointers become invalid.
     */
    void reset()
    {
        current_ = 0;
        cursor_ = 0;
        allocated_ = 0;
    }

    /** Total bytes handed out since construction/reset(). */
    size_t bytesAllocated() const { return allocated_; }

    /** Chunks currently owned (high-water mark; reset() keeps them). */
    size_t chunkCount() const { return chunks_.size(); }

    /** Bytes of backing memory owned across all chunks. */
    size_t bytesReserved() const
    {
        size_t total = 0;
        for (const Chunk &chunk : chunks_)
            total += chunk.size;
        return total;
    }

  private:
    struct Chunk
    {
        std::unique_ptr<char[]> data;
        size_t size = 0;
    };

    /** Chunk offset at or past @p from where an @p align'd slot starts. */
    size_t alignedOffset(size_t align, size_t from) const
    {
        const auto base = reinterpret_cast<uintptr_t>(
            chunks_[current_].data.get());
        const uintptr_t address =
            (base + from + align - 1) & ~(static_cast<uintptr_t>(align) - 1);
        return static_cast<size_t>(address - base);
    }

    /** Advance to the next chunk able to hold @p need bytes. */
    void nextChunk(size_t need)
    {
        // First allocation lands in chunk 0; afterwards move past the
        // exhausted chunk, reusing recycled ones when large enough.
        size_t index = chunks_.empty() ? 0 : current_ + 1;
        while (index < chunks_.size() && chunks_[index].size < need)
            ++index;
        if (index >= chunks_.size()) {
            const size_t size = need > chunkBytes_ ? need : chunkBytes_;
            chunks_.push_back(
                Chunk{std::make_unique<char[]>(size), size});
            index = chunks_.size() - 1;
        }
        current_ = index;
        cursor_ = 0;
    }

    size_t chunkBytes_;
    std::vector<Chunk> chunks_;
    size_t current_ = 0;
    size_t cursor_ = 0;
    size_t allocated_ = 0;
};

/**
 * Generational slot slab: fixed-size slots recycled through a free
 * list, each tagged with a generation that increments on release.
 *
 * Handles are (index, generation) pairs. A handle taken before a
 * slot's release never matches the slot again, which is what lets the
 * EventQueue drop its cancelled/live bookkeeping sets entirely: a
 * cancel with a stale handle simply fails the generation check.
 *
 * T must be default-constructible; slots are reused in place (the
 * owner is responsible for clearing payload state on release if T
 * holds resources — see EventQueue, which moves the callback out).
 *
 * Generations live in their own dense array rather than next to the
 * payloads: a stale-handle check then touches a few bytes of hot,
 * tightly packed memory instead of dragging a payload-sized cache
 * line in, and payload lines are only touched when the payload is.
 */
template <typename T>
class Slab
{
  public:
    Slab() = default;
    Slab(const Slab &) = delete;
    Slab &operator=(const Slab &) = delete;

    /** Acquire a slot; O(1) amortized, allocation-free when recycling. */
    uint32_t acquire()
    {
        if (!freeList_.empty()) {
            const uint32_t index = freeList_.back();
            freeList_.pop_back();
            return index;
        }
        values_.emplace_back();
        generations_.push_back(0);
        return static_cast<uint32_t>(values_.size() - 1);
    }

    /**
     * Release @p index back to the free list, bumping its generation
     * so outstanding handles to the old incarnation go stale.
     */
    void release(uint32_t index)
    {
        ++generations_[index];
        freeList_.push_back(index);
    }

    T &operator[](uint32_t index) { return values_[index]; }
    const T &operator[](uint32_t index) const { return values_[index]; }

    /** Current generation of slot @p index. */
    uint32_t generation(uint32_t index) const
    {
        return generations_[index];
    }

    /** True when @p index names a slot and @p generation is current. */
    bool alive(uint32_t index, uint32_t generation) const
    {
        return index < generations_.size() &&
               generations_[index] == generation;
    }

    /** Slots ever created (live + free). */
    size_t capacity() const { return values_.size(); }

    /** Slots currently acquired. */
    size_t liveCount() const { return values_.size() - freeList_.size(); }

  private:
    std::vector<T> values_;
    std::vector<uint32_t> generations_;
    std::vector<uint32_t> freeList_;
};

} // namespace wsp::util
