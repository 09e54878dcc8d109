/**
 * @file
 * Write-back cache model with flush timing.
 *
 * WSP's flush-on-fail spends most of its budget writing dirty cache
 * lines to NVRAM (paper section 5.3). The model is functional —
 * writes land in the cache and reach NVRAM only on write-back — so
 * the crash-consistency tests can observe exactly which updates
 * survive a failure, and it carries the two flush timing models the
 * paper measured (Table 2, Fig. 8):
 *
 *  - wbinvd: microcode walks the whole cache regardless of how much
 *    is dirty, so the cost is nearly flat in dirty bytes and is
 *    calibrated per platform from Table 2;
 *  - clflush: one instruction per line, cheaper when few lines are
 *    dirty but needs software to know where they are, which is not
 *    practical (the paper's observation) — we model flushing a given
 *    line count for the ablation study;
 *  - theoretical best: cache size over memory bandwidth.
 *
 * Line bookkeeping is one flat open-addressing table mapping line
 * base -> slot in a growable slot array whose records carry the
 * 64-byte payload inline plus intrusive links for the LRU order and
 * the per-worker flush directory. After warm-up every access is
 * allocation-free: a dirty-line hit is one multiplicative-hash probe
 * and a memcpy, an LRU refresh relinks three slots in place, and
 * write-back recycles the slot through a free list.
 * tests/machine_test.cc holds it to a plain std::map + std::list
 * reference model under random traffic.
 */

#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "nvram/nvram_space.h"
#include "util/rng.h"
#include "util/units.h"

namespace wsp {

/** Timing calibration for a platform's cache flush behaviour. */
struct CacheTiming
{
    /** Fixed wbinvd walk cost with nothing dirty. */
    Tick wbinvdFixed = fromMillis(1.0);

    /** Memory bandwidth the write-back path can sustain. */
    double memoryBwBytesPerSec = 10.0 * 1024 * 1024 * 1024;

    /**
     * Fraction of the dirty write-back that is not hidden behind the
     * wbinvd walk (the walk overlaps most of the traffic, which is
     * why the paper sees little dependence on dirty bytes).
     */
    double wbinvdDirtyExposure = 0.08;

    /** Per-line cost of a clflush loop (issue + walk). */
    Tick clflushPerLine = 9;

    /**
     * Per-worker setup cost of the partitioned parallel flush: each
     * flush worker reads its partition descriptor and arms its local
     * line walk before the first clflush retires.
     */
    Tick partitionFlushFixed = fromMicros(3.0);
};

/**
 * One write-back cache (modelled at the largest-cache level) backed
 * by an NvramSpace.
 *
 * Only dirty lines are held; reads hit the dirty line if present and
 * fall through to NVRAM otherwise. When the dirty footprint exceeds
 * the capacity, the least-recently written line is evicted (written
 * back), as a real cache would.
 */
class CacheModel
{
  public:
    static constexpr uint64_t kLineSize = 64;

    CacheModel(std::string name, uint64_t capacity_bytes,
               CacheTiming timing, NvramSpace &memory);

    const std::string &name() const { return name_; }
    uint64_t capacity() const { return capacity_; }
    const CacheTiming &timing() const { return timing_; }

    /** Bytes currently dirty (lines * line size). */
    uint64_t dirtyBytes() const { return dirtyLines() * kLineSize; }

    /** Number of dirty lines. */
    size_t dirtyLines() const { return flatLive_; }

    /** Cached read: dirty lines shadow NVRAM content. A run of
     *  consecutive clean lines is one NVRAM read. */
    void read(uint64_t addr, std::span<uint8_t> out) const;

    /** Cached write: dirties lines; NVRAM is not yet updated. */
    void write(uint64_t addr, std::span<const uint8_t> data);

    /**
     * Read one little-endian u64 through the cache. The dirty-hit
     * case — the serving tier's per-op path — stays inline
     * so KvStore probes compile down to a hash probe and a memcpy.
     */
    uint64_t readU64(uint64_t addr) const
    {
        const uint64_t base = addr & ~(kLineSize - 1);
        if (addr - base <= kLineSize - 8) {
            const uint32_t slot = flatFind(base);
            if (slot != kNoSlot) {
                uint64_t value;
                std::memcpy(&value, flatLines_[slot].data + (addr - base),
                            8);
                return value;
            }
        }
        return readU64Slow(addr);
    }

    /** Write one little-endian u64 through the cache (see readU64). */
    void writeU64(uint64_t addr, uint64_t value)
    {
        const uint64_t base = addr & ~(kLineSize - 1);
        if (addr - base <= kLineSize - 8) {
            const uint32_t slot = flatFind(base);
            if (slot != kNoSlot) {
                touchLru(slot);
                std::memcpy(flatLines_[slot].data + (addr - base), &value,
                            8);
                return;
            }
        }
        writeU64Slow(addr, value);
    }

    // Line-granular access -----------------------------------------
    //
    // The serving tier's slot probes touch several words of the same
    // 64-byte line; paying one table probe per *word* doubles the
    // per-op cost. These return a direct pointer to a dirty line's
    // payload so a caller can batch its same-line accesses behind a
    // single probe. nullptr means the line is not dirty and the
    // caller must fall back to read()/writeU64(), which handle the
    // NVRAM fall-through. Pointers are invalidated by the next line
    // creation or write-back (the slab may grow or recycle); hold one
    // only across accesses with no cache mutation in between.

    /** Dirty line payload for reading, or nullptr. No LRU effect,
     *  matching read()'s recency semantics. */
    const uint8_t *peekLine(uint64_t line_base) const
    {
        const uint32_t slot = flatFind(line_base);
        return slot != kNoSlot ? flatLines_[slot].data : nullptr;
    }

    /** Dirty line payload for writing, or nullptr. Refreshes the
     *  line's recency exactly as a writeU64 to it would. */
    uint8_t *touchLine(uint64_t line_base)
    {
        const uint32_t slot = flatFind(line_base);
        if (slot == kNoSlot)
            return nullptr;
        touchLru(slot);
        return flatLines_[slot].data;
    }

    /**
     * A resolved dirty line: payload pointer plus the slab slot, so
     * a caller that probed a line for reading can later mark it
     * written without paying the table probe again. Same lifetime
     * rule as the raw pointers above.
     */
    struct LineRef
    {
        uint8_t *data = nullptr;
        uint32_t slot = 0;

        explicit operator bool() const { return data != nullptr; }
    };

    /** Resolve a dirty line without touching recency (null if not
     *  dirty). */
    LineRef findLineMut(uint64_t line_base)
    {
        const uint32_t slot = flatFind(line_base);
        if (slot == kNoSlot)
            return {};
        return {flatLines_[slot].data, slot};
    }

    /** Refresh a resolved line's recency, as a write to it must. */
    void touchLineRef(const LineRef &ref) { touchLru(ref.slot); }

    /**
     * Declare [base, base + bytes) a hot region and switch its line
     * lookups from the hash probe to a direct per-line slot array
     * indexed by (addr - base) / 64. The serving tier registers its
     * shard's slot region this way, making every dirty-line probe one
     * bounds check and one load — no hash, no collision chain. The
     * view is maintained at the same insert/erase funnel as the hash
     * table, so both always agree; lines outside the region keep the
     * hash path. Costs 4 bytes of view per region line.
     * Registering a different region replaces the previous view;
     * re-registering the current one returns at once.
     */
    void registerRegionView(uint64_t base, uint64_t bytes);

    /**
     * Write back and drop the line containing @p addr (clflush).
     * @return the modelled cost of the instruction.
     */
    Tick flushLine(uint64_t addr);

    /**
     * Write back and invalidate the whole cache (wbinvd).
     * @return the modelled cost, nearly flat in dirty bytes.
     */
    Tick wbinvd();

    /**
     * Modelled cost of a software clflush loop over @p lines lines
     * (whether or not they are dirty), without executing it.
     */
    Tick clflushLoopCost(uint64_t lines) const;

    /** Modelled wbinvd cost without executing it. */
    Tick wbinvdCost() const;

    /** Lower bound: cache size over memory bandwidth (Table 2). */
    Tick theoreticalBestCost() const;

    // Partitioned parallel flush ---------------------------------------
    //
    // The save routine's parallel path splits the dirty lines of one
    // socket cache across that socket's cores: line L belongs to
    // worker (L / kLineSize) mod workers, a stable assignment that
    // needs no coordination. Each core clflushes only its own
    // partition, so the step costs the *slowest worker*, not the sum
    // — the paper's observation that flush-on-fail is embarrassingly
    // parallel. The model keeps that per-core dirty-line directory
    // for real: lines are bucketed by worker as they dirty, so
    // partitionDirtyLines is O(1), flushPartition walks only its own
    // lines, and parallelFlushCost(W) costs O(W) instead of W full
    // scans of the dirty map. (wbinvd needs no directory but cannot
    // be split.) The directory re-buckets itself — one O(dirty) pass
    // — when queried with a different worker count.

    /** Dirty lines assigned to @p worker of @p workers. */
    size_t partitionDirtyLines(unsigned worker, unsigned workers) const;

    /**
     * Modelled cost of @p worker's partition flush: fixed setup plus
     * a clflush walk over its dirty lines plus its share of the
     * write-back traffic.
     */
    Tick partitionFlushCost(unsigned worker, unsigned workers) const;

    /** Cost of the whole parallel flush: the slowest worker. */
    Tick parallelFlushCost(unsigned workers) const;

    /**
     * Write back and drop every dirty line of @p worker's partition
     * (the functional effect of that core's flush completing).
     */
    void flushPartition(unsigned worker, unsigned workers);

    /**
     * Dirty @p bytes of cache by writing a pseudo-random pattern to
     * consecutive lines starting at @p base (bench/test helper).
     */
    void fillDirty(uint64_t base, uint64_t bytes, Rng &rng);

    /**
     * Model the loss of cache contents without write-back (the
     * failure case flush-on-fail exists to prevent): dirty lines are
     * simply dropped.
     */
    void dropDirty();

    /**
     * Observe every line leaving the cache: called with
     * (line base, lost=false) when a line is written back to NVRAM
     * (eviction, clflush, wbinvd, partition flush) and
     * (line base, lost=true) per dirty line dropped without
     * write-back. Feeds FliT-style flush tracking (util/flit.h).
     */
    void setWritebackObserver(
        std::function<void(uint64_t line_base, bool lost)> observer)
    {
        writebackObserver_ = std::move(observer);
    }

  private:
    static constexpr uint32_t kNoSlot = ~0u;

    /**
     * One dirty line: inline payload plus intrusive links. lruPrev /
     * lruNext thread the recency order (head = most recently
     * written); dirPrev / dirNext thread the line's per-worker flush
     * directory bucket. Free slots are chained through lruNext.
     */
    struct FlatLine
    {
        uint64_t base = 0;
        uint32_t lruPrev = kNoSlot;
        uint32_t lruNext = kNoSlot;
        uint32_t dirPrev = kNoSlot;
        uint32_t dirNext = kNoSlot;
        uint8_t data[kLineSize];
    };

    /** Open-addressing table entry: line base -> slot index. */
    struct FlatProbe
    {
        uint64_t base = 0;
        uint32_t slot = kNoSlot; ///< kNoSlot = empty
    };

    uint64_t lineBase(uint64_t addr) const { return addr & ~(kLineSize - 1); }

    static size_t flatHash(uint64_t base, size_t mask)
    {
        // Fibonacci hashing on the line number: one multiply, and the
        // high bits drive the index so nearby lines scatter.
        return static_cast<size_t>(
                   ((base >> 6) * 0x9e3779b97f4a7c15ull) >> 32) &
               mask;
    }

    /** Slot of @p base's dirty line, or kNoSlot. */
    uint32_t flatFind(uint64_t base) const
    {
        // Registered-region fast path: O(1) view lookup. The unsigned
        // subtraction folds the two range checks into one compare,
        // and regionSpan_ == 0 (no region) can never pass it.
        if (base - regionBase_ < regionSpan_)
            return regionSlots_[(base - regionBase_) >> 6];
        const size_t mask = flatTable_.size() - 1;
        size_t index = flatHash(base, mask);
        for (;;) {
            const FlatProbe &probe = flatTable_[index];
            if (probe.slot == kNoSlot)
                return kNoSlot;
            if (probe.base == base)
                return probe.slot;
            index = (index + 1) & mask;
        }
    }

    /** Move @p slot to the LRU head (most recently written). */
    void touchLru(uint32_t slot)
    {
        if (lruHead_ == slot)
            return;
        FlatLine &line = flatLines_[slot];
        // Unlink (slot is live, so prev/next are consistent).
        if (line.lruPrev != kNoSlot)
            flatLines_[line.lruPrev].lruNext = line.lruNext;
        if (line.lruNext != kNoSlot)
            flatLines_[line.lruNext].lruPrev = line.lruPrev;
        if (lruTail_ == slot)
            lruTail_ = line.lruPrev;
        // Relink at head.
        line.lruPrev = kNoSlot;
        line.lruNext = lruHead_;
        if (lruHead_ != kNoSlot)
            flatLines_[lruHead_].lruPrev = slot;
        lruHead_ = slot;
        if (lruTail_ == kNoSlot)
            lruTail_ = slot;
    }

    void flatTableInsert(uint64_t base, uint32_t slot);
    void flatTableErase(uint64_t base);
    void flatTableGrow();

    /** Acquire a slot for a new dirty line (may evict the LRU tail). */
    uint32_t flatAcquire(uint64_t base);

    /** Write @p slot back to NVRAM and recycle it. */
    void flatWriteBack(uint32_t slot);

    /** Re-bucket the flat directory for @p workers ways if needed. */
    void ensureFlatDirectory(unsigned workers) const;

    // const: they touch only the mutable directory state.
    void flatDirInsert(uint32_t slot) const;
    void flatDirErase(uint32_t slot) const;

    // Slow paths (misses, words that straddle a line) ----------------

    uint64_t readU64Slow(uint64_t addr) const;
    void writeU64Slow(uint64_t addr, uint64_t value);

    /** Worker a line belongs to under the stable assignment. */
    unsigned workerOf(uint64_t base, unsigned workers) const
    {
        return static_cast<unsigned>((base / kLineSize) % workers);
    }

    std::string name_;
    uint64_t capacity_;
    CacheTiming timing_;
    NvramSpace &memory_;
    std::function<void(uint64_t, bool)> writebackObserver_;

    // Line store. The slab is mutable so the const cost queries can
    // re-bucket the intrusive directory links for a new way count.
    mutable std::vector<FlatLine> flatLines_;
    std::vector<FlatProbe> flatTable_;
    uint32_t flatFree_ = kNoSlot; ///< free-slot chain through lruNext
    size_t flatLive_ = 0;
    uint32_t lruHead_ = kNoSlot; ///< most recently written
    uint32_t lruTail_ = kNoSlot; ///< eviction victim

    // Per-worker flush directory: bucket heads and counts, re-bucketed
    // (one pass over the LRU chain) when queried with a new way count.
    // Mutable for the const cost queries.
    mutable std::vector<uint32_t> flatDirHeads_;
    mutable std::vector<size_t> flatDirCounts_;
    mutable unsigned flatDirWays_ = 1;

    // Registered-region view: slot index per line of the region, or
    // kNoSlot. Empty span disables the fast path.
    uint64_t regionBase_ = 0;
    uint64_t regionSpan_ = 0;
    std::vector<uint32_t> regionSlots_;
};

} // namespace wsp
