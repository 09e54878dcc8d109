/**
 * @file
 * Transaction policies: the five configurations of paper Fig. 5.
 *
 * Applications are templated over a Policy so each configuration
 * compiles to exactly the code it would have in a real system:
 *
 *  - RawPolicy           plain loads/stores (FoF when the heap is
 *                        in-cache; meaningless with durable logs)
 *  - UndoPolicy          undo logging around in-place updates
 *                        (FoC + UL with a durable heap,
 *                         FoF + UL with an in-cache heap)
 *  - StmPolicy           read/write-set instrumentation + commit
 *                        validation (FoC + STM with a durable heap —
 *                         the Mnemosyne configuration — and
 *                         FoF + STM with an in-cache heap)
 *
 * A Policy provides:
 *   Policy::run(heap, body)  — run `body(Tx&)` transactionally
 *   Tx::read(ptr) / Tx::write(ptr, value)
 *   Tx::alloc(bytes) / Tx::free(offset, bytes)
 * with word-sized (<= 8 byte) values.
 */

#pragma once

#include <utility>

#include "pheap/heap.h"

namespace wsp::pmem {

/** No instrumentation at all: the flush-on-fail fast path. */
struct RawPolicy
{
    static constexpr const char *kName = "raw";

    class Tx
    {
      public:
        explicit Tx(PHeap &heap) : heap_(heap) {}

        template <typename T>
        T
        read(const T *ptr) const
        {
            return *ptr;
        }

        template <typename T>
        void
        write(T *ptr, T value)
        {
            *ptr = value;
        }

        Offset alloc(uint64_t bytes) { return heap_.alloc(*this, bytes); }
        void free(Offset block, uint64_t bytes)
        {
            heap_.free(*this, block, bytes);
        }

        PHeap &heap() { return heap_; }

      private:
        PHeap &heap_;
    };

    template <typename Body>
    static void
    run(PHeap &heap, Body &&body)
    {
        Tx tx(heap);
        std::forward<Body>(body)(tx);
    }
};

/** Undo logging: crash consistency without isolation. */
struct UndoPolicy
{
    static constexpr const char *kName = "undo";

    class Tx
    {
      public:
        explicit Tx(PHeap &heap) : heap_(heap), log_(heap.undoLog()) {}

        template <typename T>
        T
        read(const T *ptr) const
        {
            return *ptr; // reads are not instrumented
        }

        template <typename T>
        void
        write(T *ptr, T value)
        {
            // Write-ahead: log the old value, then update in place.
            log_.logOldValue(ptr, sizeof(T));
            *ptr = value;
        }

        Offset alloc(uint64_t bytes) { return heap_.alloc(*this, bytes); }
        void free(Offset block, uint64_t bytes)
        {
            heap_.free(*this, block, bytes);
        }

        PHeap &heap() { return heap_; }

      private:
        PHeap &heap_;
        UndoLog &log_;
    };

    template <typename Body>
    static void
    run(PHeap &heap, Body &&body)
    {
        heap.undoLog().txBegin();
        Tx tx(heap);
        std::forward<Body>(body)(tx);
        heap.undoLog().txCommit();
    }
};

/** STM instrumentation: isolation, with durability via the redo log. */
struct StmPolicy
{
    static constexpr const char *kName = "stm";

    class Tx
    {
      public:
        Tx(PHeap &heap, StmTx &stx) : heap_(heap), stx_(stx) {}

        template <typename T>
        T
        read(const T *ptr) const
        {
            return stx_.read(ptr);
        }

        template <typename T>
        void
        write(T *ptr, T value)
        {
            stx_.write(ptr, value);
        }

        Offset alloc(uint64_t bytes) { return heap_.alloc(*this, bytes); }
        void free(Offset block, uint64_t bytes)
        {
            heap_.free(*this, block, bytes);
        }

        PHeap &heap() { return heap_; }

      private:
        PHeap &heap_;
        StmTx &stx_;
    };

    template <typename Body>
    static void
    run(PHeap &heap, Body &&body)
    {
        RedoLog *redo = heap.durableLogs() ? &heap.redoLog() : nullptr;
        runStmTransaction(heap.stm(), redo, &heap.region(),
                          [&](StmTx &stx) {
            Tx tx(heap, stx);
            body(tx);
        });
    }
};

} // namespace wsp::pmem
