/**
 * @file
 * Sparse byte-addressable memory backing.
 *
 * NVDIMM models can be configured with multi-gigabyte capacities for
 * timing and energy purposes while a host-side experiment touches
 * only a few megabytes. SparseMemory backs such an address space with
 * demand-allocated 4 KiB pages: untouched pages read as zero and cost
 * nothing. It also supports the poison state used to model DRAM
 * content loss when a module loses power outside self-refresh.
 *
 * The page index is a flat two-level table (a vector of fixed-size
 * chunks, each covering 2 MiB of address space) rather than a tree,
 * so the hot read/write path costs two array indexings instead of a
 * map walk. Pages are reference-counted and copy-on-write: snapshot()
 * and restoreFrom() copy page *pointers*, and a page is cloned only
 * when written while shared — which is what makes whole-image flash
 * snapshots and restores cheap enough to model per crash point.
 *
 * For the incremental save path the memory also keeps a per-page
 * dirty bitmap versioned by an epoch counter: resetDirty() opens a
 * new epoch with everything clean, every mutation marks its pages,
 * and wholesale content changes (clear, poison, restoreFrom) drop to
 * the conservative all-dirty state.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/units.h"

namespace wsp {

/** Demand-paged byte array with snapshot, poison and dirty tracking. */
class SparseMemory
{
  public:
    static constexpr uint64_t kPageSize = 4 * kKiB;

    /** Pages per second-level chunk (2 MiB of address space). */
    static constexpr uint64_t kPagesPerChunk = 512;

    /** Byte returned from a poisoned (content-lost) memory. */
    static constexpr uint8_t kPoisonByte = 0x5a;

    explicit SparseMemory(uint64_t capacity);

    SparseMemory(SparseMemory &&) = default;
    SparseMemory &operator=(SparseMemory &&) = default;

    uint64_t capacity() const { return capacity_; }

    /** Pages the capacity spans (the last one may be partial). */
    uint64_t totalPages() const
    {
        return (capacity_ + kPageSize - 1) / kPageSize;
    }

    /** Copy bytes out of the memory; zero-filled where untouched. */
    void read(uint64_t addr, std::span<uint8_t> out) const;

    /** Copy bytes into the memory, allocating pages as needed. */
    void write(uint64_t addr, std::span<const uint8_t> data);

    /** Read one little-endian 64-bit word. */
    uint64_t readU64(uint64_t addr) const;

    /** Write one little-endian 64-bit word. */
    void writeU64(uint64_t addr, uint64_t value);

    /** Number of pages currently allocated. */
    size_t allocatedPages() const { return pageCount_; }

    /** Drop all content (reads become zero again). */
    void clear();

    /**
     * Mark all content lost: subsequent reads return kPoisonByte until
     * the next write to the page, modelling un-refreshed DRAM decay.
     */
    void poison();

    bool poisoned() const { return poisoned_; }

    /** Logical copy (copy-on-write; used for flash backup images). */
    SparseMemory snapshot() const;

    /** Replace contents with @p image (used for flash restore). */
    void restoreFrom(const SparseMemory &image);

    /**
     * Copy @p len bytes at @p addr from @p src into this memory while
     * preserving sparsity: where @p src has no page, the destination
     * range reads as zero afterwards but no page is materialized (a
     * full-page gap drops the destination page instead). This is the
     * incremental flash-programming primitive — a GiB-scale module
     * copying mostly-untouched DRAM must not allocate backing for it.
     */
    void copyRangeFrom(const SparseMemory &src, uint64_t addr,
                       uint64_t len);

    /** Byte-wise equality of content (capacity must match). */
    bool contentEquals(const SparseMemory &other) const;

    /**
     * Byte-wise equality of [addr, addr+len) against the same range
     * of @p other (both capacities must cover the range). Allocates
     * nothing, and visits only the chunks either memory holds: over a
     * chunk neither holds, only the two fill bytes compare.
     */
    bool rangeEquals(const SparseMemory &other, uint64_t addr,
                     uint64_t len) const;

    // Dirty-epoch tracking ---------------------------------------------
    //
    // A fresh memory, and any memory after a wholesale content change
    // (clear, poison, restoreFrom), is conservatively *all dirty*: a
    // consumer that never called resetDirty() sees every page dirty
    // and pays full cost, exactly as before the tracking existed. The
    // save engine calls resetDirty() once flash matches DRAM; from
    // then on the bitmap names exactly the pages a delta save must
    // program, and the epoch lets it detect that its baseline is the
    // one the bitmap is relative to.

    /** True when no baseline epoch is open (every page counts dirty). */
    bool allDirty() const { return allDirty_; }

    /** Epoch the dirty bitmap is relative to (bumped by resetDirty). */
    uint64_t dirtyEpoch() const { return dirtyEpoch_; }

    /** Pages dirtied since the last resetDirty (all when allDirty). */
    uint64_t dirtyPageCount() const
    {
        return allDirty_ ? totalPages() : dirtyCount_;
    }

    /** Bytes a per-page delta copy must move (capped at capacity). */
    uint64_t dirtyBytes() const
    {
        return std::min(dirtyPageCount() * kPageSize, capacity_);
    }

    /**
     * Dirty page indices, highest first — the order the top-down
     * flash programmer wants. Legal only when !allDirty().
     */
    std::vector<uint64_t> dirtyPagesDescending() const;

    /** Open a new epoch: every page clean, epoch incremented. */
    void resetDirty();

  private:
    using Page = std::shared_ptr<uint8_t[]>;

    struct Chunk
    {
        Page pages[kPagesPerChunk];
        uint32_t used = 0; ///< non-null entries
    };

    /** Backing bytes of a page, or nullptr when unallocated. */
    const uint8_t *pageData(uint64_t page_index) const;

    /** Page for writing; allocates, un-poisons, un-shares on demand. */
    uint8_t *pageForWrite(uint64_t page_index);

    /** Slot for @p page_index, materializing its chunk. */
    Page &slotForWrite(uint64_t page_index);

    /** Drop the page (reads fall back to fill) if present. */
    void erasePage(uint64_t page_index);

    /** Adopt @p src's page wholesale (COW share). */
    void sharePage(uint64_t page_index, const Page &src);

    void markDirty(uint64_t page_index);

    uint64_t capacity_;
    std::vector<std::unique_ptr<Chunk>> chunks_;
    size_t pageCount_ = 0;
    bool poisoned_ = false;

    std::vector<uint64_t> dirtyBits_; ///< sized on first resetDirty()
    uint64_t dirtyCount_ = 0;
    uint64_t dirtyEpoch_ = 0;
    bool allDirty_ = true;
};

} // namespace wsp
