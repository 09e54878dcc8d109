/**
 * @file
 * Persistent heap: region + allocator + logs + STM runtime.
 *
 * One PHeap is the NV-heap a server application links against (paper
 * section 3.2). Its durability mode is fixed at construction:
 *
 *  - durable_logs = true  -> flush-on-commit: log appends use NT
 *    stores + fences, commits flush updated lines (the persistent-
 *    heap baselines the paper measures),
 *  - durable_logs = false -> flush-on-fail: the same code paths run
 *    entirely in-cache; durability comes from WSP's failure-time
 *    flush instead.
 *
 * Concurrency/consistency instrumentation (none, undo log, STM) is
 * chosen per transaction through the policy types in policies.h,
 * giving the five configurations of Fig. 5.
 */

#pragma once

#include <memory>
#include <string>

#include "pheap/redo_log.h"
#include "pheap/region.h"
#include "pheap/stm.h"
#include "pheap/undo_log.h"

namespace wsp::pmem {

/** Persistent heap configuration. */
struct PHeapConfig
{
    uint64_t regionSize = 64ull * 1024 * 1024;
    std::string path;        ///< empty = anonymous (bench) region
    bool durableLogs = true; ///< flush-on-commit when true
    unsigned redoTruncateEvery = 64;
};

/** Outcome of opening a heap (recovery report). */
struct HeapOpenReport
{
    bool recovered = false;      ///< region pre-existed
    bool cleanShutdown = false;  ///< no recovery was necessary
    size_t undoRecordsApplied = 0;
    size_t redoRecordsApplied = 0;
};

/** A persistent heap with a size-class allocator. */
class PHeap
{
  public:
    explicit PHeap(PHeapConfig config);

    const PHeapConfig &config() const { return config_; }
    bool durableLogs() const { return config_.durableLogs; }
    PersistentRegion &region() { return *region_; }
    UndoLog &undoLog() { return *undo_; }
    RedoLog &redoLog() { return *redo_; }
    StmRuntime &stm() { return stm_; }
    const HeapOpenReport &openReport() const { return openReport_; }

    /** Application root object offset (kNullOffset when unset). */
    Offset rootObject() const { return region_->header().rootObject; }

    /** Set the root through a transaction policy Tx. */
    template <typename Tx>
    void
    setRootObject(Tx &tx, Offset root)
    {
        tx.write(&region_->header().rootObject, root);
    }

    /** Number of size classes (16 B ... 512 KiB). */
    static constexpr unsigned kSizeClasses = 16;

    /** Rounded allocation size of a class. */
    static uint64_t classSize(unsigned size_class);

    /** Size class serving @p bytes. */
    static unsigned sizeClassFor(uint64_t bytes);

    /**
     * Allocate @p bytes (rounded to a size class) through @p tx, so
     * allocator metadata updates inherit the transaction's crash
     * consistency. Returns the block's offset.
     */
    template <typename Tx>
    Offset
    alloc(Tx &tx, uint64_t bytes)
    {
        const unsigned size_class = sizeClassFor(bytes);
        RegionHeader &h = region_->header();
        const Offset head = tx.read(&h.freeListHeads[size_class]);
        if (head != kNullOffset) {
            const Offset next = tx.read(region_->at<Offset>(head));
            tx.write(&h.freeListHeads[size_class], next);
            return head;
        }
        const Offset cursor = tx.read(&h.bumpCursor);
        const uint64_t block = classSize(size_class);
        WSP_CHECKF(cursor + block <= region_->size(),
                   "persistent heap exhausted (%llu of %llu bytes)",
                   static_cast<unsigned long long>(cursor),
                   static_cast<unsigned long long>(region_->size()));
        tx.write(&h.bumpCursor, cursor + block);
        return cursor;
    }

    /** Return a block to its size class's free list through @p tx. */
    template <typename Tx>
    void
    free(Tx &tx, Offset block, uint64_t bytes)
    {
        WSP_CHECK(block != kNullOffset);
        const unsigned size_class = sizeClassFor(bytes);
        RegionHeader &h = region_->header();
        const Offset head = tx.read(&h.freeListHeads[size_class]);
        tx.write(region_->at<Offset>(block), head);
        tx.write(&h.freeListHeads[size_class], block);
    }

    /** Mark a clean shutdown (skips recovery on next open). */
    void close() { region_->markCleanShutdown(); }

  private:
    PHeapConfig config_;
    std::unique_ptr<PersistentRegion> region_;
    std::unique_ptr<UndoLog> undo_;
    std::unique_ptr<RedoLog> redo_;
    StmRuntime stm_;
    HeapOpenReport openReport_;
};

} // namespace wsp::pmem
