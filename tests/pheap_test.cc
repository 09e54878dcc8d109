/**
 * @file
 * Tests for the persistent-heap substrate: region, torn-bit log,
 * undo/redo logs, STM, allocator, and the five Fig. 5 policies.
 *
 * Crash cycles are simulated by destroying a file-backed heap
 * *without* a clean shutdown and re-opening it: recovery must roll
 * back in-flight undo transactions and replay committed redo ones.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "pheap/flush.h"
#include "pheap/policies.h"

namespace wsp::pmem {
namespace {

/** Fresh region file path per test. */
std::string
tempRegionPath(const char *name)
{
    std::string path = ::testing::TempDir() + "wsp_pheap_" + name + "_" +
                       std::to_string(::getpid()) + ".img";
    std::remove(path.c_str());
    return path;
}

constexpr uint64_t kRegionSize = 32ull * 1024 * 1024;

PHeapConfig
fileConfig(const std::string &path, bool durable = true)
{
    PHeapConfig config;
    config.regionSize = kRegionSize;
    config.path = path;
    config.durableLogs = durable;
    return config;
}

// PersistentRegion -----------------------------------------------------

TEST(Region, FreshRegionInitialized)
{
    PersistentRegion region(kRegionSize);
    EXPECT_FALSE(region.recovered());
    EXPECT_EQ(region.header().magic, RegionHeader::kMagic);
    EXPECT_EQ(region.header().rootObject, kNullOffset);
    EXPECT_GT(region.header().heapStart, region.header().redoLogStart);
}

TEST(Region, ReopenSeesDirtyWithoutCleanShutdown)
{
    const std::string path = tempRegionPath("dirty");
    {
        PersistentRegion region(path, kRegionSize);
        EXPECT_FALSE(region.recovered());
    }
    {
        PersistentRegion region(path, kRegionSize);
        EXPECT_TRUE(region.recovered());
        EXPECT_FALSE(region.wasCleanShutdown());
    }
    std::remove(path.c_str());
}

TEST(Region, CleanShutdownFlagRoundTrip)
{
    const std::string path = tempRegionPath("clean");
    {
        PersistentRegion region(path, kRegionSize);
        region.markCleanShutdown();
    }
    {
        PersistentRegion region(path, kRegionSize);
        EXPECT_TRUE(region.wasCleanShutdown());
    }
    std::remove(path.c_str());
}

TEST(Region, OffsetPointerRoundTrip)
{
    PersistentRegion region(kRegionSize);
    const Offset off = region.header().heapStart + 128;
    uint8_t *ptr = region.at(off);
    EXPECT_EQ(region.offsetOf(ptr), off);
    EXPECT_EQ(region.at(kNullOffset), nullptr);
}

TEST(Region, ContentPersistsAcrossReopen)
{
    const std::string path = tempRegionPath("content");
    Offset off = 0;
    {
        PersistentRegion region(path, kRegionSize);
        off = region.header().heapStart;
        *region.at<uint64_t>(off) = 0x1122334455667788ull;
    }
    {
        PersistentRegion region(path, kRegionSize);
        EXPECT_EQ(*region.at<uint64_t>(off), 0x1122334455667788ull);
    }
    std::remove(path.c_str());
}

// TornBitLog -------------------------------------------------------------

struct TornBitFixture : ::testing::Test
{
    TornBitFixture()
        : region(kRegionSize),
          log(region, region.header().undoLogStart, 64 * 1024,
              &region.header().undoCheckpointPos,
              &region.header().undoCheckpointPass,
              /*durable_appends=*/true)
    {}

    PersistentRegion region;
    TornBitLog log;
};

TEST_F(TornBitFixture, MarkersRoundTrip)
{
    log.appendMarker(LogRecordType::TxnBegin, 7);
    log.appendMarker(LogRecordType::TxnCommit, 7);
    const auto records = log.scan();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].type, LogRecordType::TxnBegin);
    EXPECT_EQ(records[0].txnId, 7u);
    EXPECT_EQ(records[1].type, LogRecordType::TxnCommit);
}

TEST_F(TornBitFixture, DataRecordRoundTrip)
{
    const uint8_t payload[] = {1, 2, 3, 4, 5, 6, 7};
    log.appendData(12345, payload, sizeof(payload));
    const auto records = log.scan();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].type, LogRecordType::Data);
    EXPECT_EQ(records[0].target, 12345u);
    EXPECT_EQ(records[0].byteLen, sizeof(payload));
    EXPECT_EQ(std::memcmp(records[0].payload.data(), payload,
                          sizeof(payload)),
              0);
}

TEST_F(TornBitFixture, EmptyLogScansEmpty)
{
    EXPECT_TRUE(log.scan().empty());
}

TEST_F(TornBitFixture, TornTailDropsPartialRecord)
{
    log.appendMarker(LogRecordType::TxnBegin, 1);
    const uint8_t payload[] = {9, 9, 9, 9, 9, 9, 9, 9};
    log.appendData(64, payload, sizeof(payload));
    // Tear the last word of the data record: flip it to the previous
    // phase, as if power died mid-append.
    auto *words = reinterpret_cast<uint64_t *>(
        region.base() + region.header().undoLogStart);
    words[log.position() - 1] &= ~(1ull << 63);

    const auto records = log.scan();
    ASSERT_EQ(records.size(), 1u); // only the Begin marker survives
    EXPECT_EQ(records[0].type, LogRecordType::TxnBegin);
}

TEST_F(TornBitFixture, WrapPadsAndFlipsPhase)
{
    const uint64_t before_pass = log.pass();
    const uint8_t payload[64] = {};
    // Fill until at least one wrap occurs.
    while (log.wraps() == 0)
        log.appendData(0, payload, sizeof(payload));
    EXPECT_EQ(log.pass(), before_pass + 1);
    // The ring stays scannable after the wrap.
    log.appendMarker(LogRecordType::TxnBegin, 42);
    const auto records = log.scan();
    ASSERT_FALSE(records.empty());
    EXPECT_EQ(records.back().type, LogRecordType::TxnBegin);
    EXPECT_EQ(records.back().txnId, 42u);
}

TEST_F(TornBitFixture, ManyWrapsStayConsistent)
{
    const uint8_t payload[128] = {0xcd};
    for (int i = 0; i < 5000; ++i)
        log.appendData(i, payload, sizeof(payload));
    EXPECT_GT(log.wraps(), 5u);
    const auto records = log.scan();
    // Everything scanned is a well-formed record of our shape.
    for (const auto &record : records) {
        ASSERT_EQ(record.type, LogRecordType::Data);
        EXPECT_EQ(record.byteLen, sizeof(payload));
    }
    ASSERT_FALSE(records.empty());
    EXPECT_EQ(records.back().target, 4999u);
}

TEST_F(TornBitFixture, ResetEmptiesRing)
{
    log.appendMarker(LogRecordType::TxnBegin, 1);
    log.reset();
    EXPECT_TRUE(log.scan().empty());
    EXPECT_EQ(log.position(), 0u);
}

// UndoLog ------------------------------------------------------------------

TEST(UndoLog, AbortRollsBackImmediately)
{
    PersistentRegion region(kRegionSize);
    UndoLog undo(region, /*flush_on_commit=*/true);
    auto *word = region.at<uint64_t>(region.header().heapStart);
    *word = 111;

    undo.txBegin();
    undo.logOldValue(word, 8);
    *word = 222;
    undo.txAbort();
    EXPECT_EQ(*word, 111u);
    EXPECT_EQ(undo.stats().txnsAborted, 1u);
}

TEST(UndoLog, RecoveryRollsBackInFlightTxn)
{
    const std::string path = tempRegionPath("undo_recover");
    Offset off = 0;
    {
        PersistentRegion region(path, kRegionSize);
        UndoLog undo(region, true);
        off = region.header().heapStart;
        auto *word = region.at<uint64_t>(off);
        *word = 1;
        flushRange(word, 8);

        // Committed txn: must NOT be rolled back.
        undo.txBegin();
        undo.logOldValue(word, 8);
        *word = 2;
        undo.txCommit();

        // In-flight txn: crash before commit.
        undo.txBegin();
        undo.logOldValue(word, 8);
        *word = 3;
        // no commit: destructor = crash
    }
    {
        PersistentRegion region(path, kRegionSize);
        UndoLog undo(region, true);
        const size_t undone = undo.recover();
        EXPECT_EQ(undone, 1u);
        EXPECT_EQ(*region.at<uint64_t>(off), 2u);
    }
    std::remove(path.c_str());
}

TEST(UndoLog, RecoveryNoOpAfterCommit)
{
    const std::string path = tempRegionPath("undo_committed");
    Offset off = 0;
    {
        PersistentRegion region(path, kRegionSize);
        UndoLog undo(region, true);
        off = region.header().heapStart;
        undo.txBegin();
        undo.logOldValue(region.at<uint64_t>(off), 8);
        *region.at<uint64_t>(off) = 5;
        undo.txCommit();
    }
    {
        PersistentRegion region(path, kRegionSize);
        UndoLog undo(region, true);
        EXPECT_EQ(undo.recover(), 0u);
        EXPECT_EQ(*region.at<uint64_t>(off), 5u);
    }
    std::remove(path.c_str());
}

TEST(UndoLog, MultiRangeRollbackReverseOrder)
{
    PersistentRegion region(kRegionSize);
    UndoLog undo(region, true);
    auto *a = region.at<uint64_t>(region.header().heapStart);
    *a = 10;
    undo.txBegin();
    undo.logOldValue(a, 8);
    *a = 20;
    undo.logOldValue(a, 8); // second update of the same word
    *a = 30;
    undo.txAbort();
    EXPECT_EQ(*a, 10u); // unwound through both records
}

// RedoLog --------------------------------------------------------------

TEST(RedoLog, CommittedTxnReplayedOnRecovery)
{
    const std::string path = tempRegionPath("redo_recover");
    Offset off = 0;
    {
        PersistentRegion region(path, kRegionSize);
        RedoLog redo(region, true, /*truncate_every=*/1000);
        off = region.header().heapStart;

        RedoWrite write;
        write.target = off;
        write.len = 8;
        write.bytes.assign(8, 0);
        write.bytes[0] = 42;
        redo.commit({write});

        // Crash: pretend the in-place write never left the cache.
        *region.at<uint64_t>(off) = 0;
    }
    {
        PersistentRegion region(path, kRegionSize);
        RedoLog redo(region, true);
        EXPECT_EQ(redo.recover(), 1u);
        EXPECT_EQ(*region.at<uint64_t>(off), 42u);
    }
    std::remove(path.c_str());
}

TEST(RedoLog, TruncationFlushesAndResets)
{
    PersistentRegion region(kRegionSize);
    RedoLog redo(region, true, /*truncate_every=*/2);
    RedoWrite write;
    write.target = region.header().heapStart;
    write.len = 8;
    write.bytes.assign(8, 7);
    redo.commit({write});
    EXPECT_EQ(redo.stats().truncations, 0u);
    redo.commit({write});
    EXPECT_EQ(redo.stats().truncations, 1u);
}

TEST(RedoLog, UncommittedTailIgnored)
{
    // A Begin + Data without Commit must not be replayed. Build it by
    // writing the records through a raw TornBitLog on the redo ring.
    const std::string path = tempRegionPath("redo_tail");
    Offset off = 0;
    {
        PersistentRegion region(path, kRegionSize);
        off = region.header().heapStart;
        *region.at<uint64_t>(off) = 1;
        TornBitLog raw(region, region.header().redoLogStart,
                       region.header().redoLogBytes,
                       &region.header().redoCheckpointPos,
                       &region.header().redoCheckpointPass, true);
        raw.appendMarker(LogRecordType::TxnBegin, 1);
        const uint64_t evil = 99;
        raw.appendData(off, &evil, 8);
        // no commit marker
    }
    {
        PersistentRegion region(path, kRegionSize);
        RedoLog redo(region, true);
        EXPECT_EQ(redo.recover(), 0u);
        EXPECT_EQ(*region.at<uint64_t>(off), 1u);
    }
    std::remove(path.c_str());
}

// STM ---------------------------------------------------------------------

TEST(Stm, ReadYourOwnWrites)
{
    PersistentRegion region(kRegionSize);
    StmRuntime runtime;
    auto *word = region.at<uint64_t>(region.header().heapStart);
    *word = 5;
    runStmTransaction(runtime, nullptr, &region, [&](StmTx &tx) {
        EXPECT_EQ(tx.read(word), 5u);
        tx.write(word, uint64_t{6});
        EXPECT_EQ(tx.read(word), 6u);
    });
    EXPECT_EQ(*word, 6u);
}

TEST(Stm, ReadOnlyTxnCommits)
{
    PersistentRegion region(kRegionSize);
    StmRuntime runtime;
    auto *word = region.at<uint64_t>(region.header().heapStart);
    *word = 9;
    uint64_t seen = 0;
    runStmTransaction(runtime, nullptr, &region,
                      [&](StmTx &tx) { seen = tx.read(word); });
    EXPECT_EQ(seen, 9u);
    EXPECT_EQ(runtime.aborts(), 0u);
}

TEST(Stm, ConcurrentIncrementsAreIsolated)
{
    PersistentRegion region(kRegionSize);
    StmRuntime runtime;
    auto *word = region.at<uint64_t>(region.header().heapStart);
    *word = 0;
    constexpr int kThreads = 4;
    constexpr int kPerThread = 2000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kPerThread; ++i) {
                runStmTransaction(runtime, nullptr, &region,
                                  [&](StmTx &tx) {
                    tx.write(word, tx.read(word) + 1);
                });
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(*word, uint64_t{kThreads * kPerThread});
}

TEST(Stm, DurableCommitSurvivesCrash)
{
    const std::string path = tempRegionPath("stm_durable");
    Offset off = 0;
    {
        PHeap heap(fileConfig(path, /*durable=*/true));
        off = heap.region().header().heapStart;
        auto *word = heap.region().at<uint64_t>(off);
        StmPolicy::run(heap, [&](StmPolicy::Tx &tx) {
            tx.write(word, uint64_t{77});
        });
        // Sabotage the in-place copy: recovery must replay the log.
        *word = 0;
    }
    {
        PHeap heap(fileConfig(path, true));
        EXPECT_GE(heap.openReport().redoRecordsApplied, 1u);
        EXPECT_EQ(*heap.region().at<uint64_t>(off), 77u);
    }
    std::remove(path.c_str());
}

// PHeap allocator -----------------------------------------------------------

TEST(Allocator, SizeClasses)
{
    EXPECT_EQ(PHeap::classSize(0), 16u);
    EXPECT_EQ(PHeap::sizeClassFor(1), 0u);
    EXPECT_EQ(PHeap::sizeClassFor(16), 0u);
    EXPECT_EQ(PHeap::sizeClassFor(17), 1u);
    EXPECT_EQ(PHeap::sizeClassFor(4096), 8u);
}

TEST(Allocator, AllocFreeReuse)
{
    PHeapConfig config;
    config.durableLogs = false;
    PHeap heap(config);
    Offset first = 0;
    RawPolicy::run(heap, [&](RawPolicy::Tx &tx) {
        first = tx.alloc(64);
        tx.free(first, 64);
        const Offset second = tx.alloc(64);
        EXPECT_EQ(second, first); // free list reuse
        const Offset third = tx.alloc(64);
        EXPECT_NE(third, first);
    });
}

TEST(Allocator, DistinctClassesDistinctLists)
{
    PHeapConfig config;
    config.durableLogs = false;
    PHeap heap(config);
    RawPolicy::run(heap, [&](RawPolicy::Tx &tx) {
        const Offset small = tx.alloc(16);
        const Offset big = tx.alloc(400);
        tx.free(small, 16);
        const Offset big2 = tx.alloc(400);
        EXPECT_NE(big2, small); // 400-byte alloc must not grab 16-byte block
        tx.free(big, 400);
        tx.free(big2, 400);
    });
}

TEST(Allocator, CrashMidTxnRollsBackAllocation)
{
    const std::string path = tempRegionPath("alloc_crash");
    uint64_t cursor_before = 0;
    {
        PHeap heap(fileConfig(path, true));
        cursor_before = heap.region().header().bumpCursor;
        heap.undoLog().txBegin();
        UndoPolicy::Tx tx(heap);
        (void)tx.alloc(64);
        (void)tx.alloc(64);
        // crash: no commit
    }
    {
        PHeap heap(fileConfig(path, true));
        EXPECT_GT(heap.openReport().undoRecordsApplied, 0u);
        EXPECT_EQ(heap.region().header().bumpCursor, cursor_before);
    }
    std::remove(path.c_str());
}

// Policies -----------------------------------------------------------------

/** Shared workload: build a small linked list and sum it. */
template <typename Policy>
uint64_t
linkedListWorkload(PHeap &heap)
{
    struct Node
    {
        uint64_t value;
        Offset next;
    };
    Offset head = kNullOffset;
    for (uint64_t i = 1; i <= 10; ++i) {
        Policy::run(heap, [&](typename Policy::Tx &tx) {
            const Offset node = tx.alloc(sizeof(Node));
            auto *n = heap.region().template at<Node>(node);
            tx.write(&n->value, i);
            tx.write(&n->next, head);
            head = node;
        });
    }
    uint64_t sum = 0;
    Policy::run(heap, [&](typename Policy::Tx &tx) {
        for (Offset cur = head; cur != kNullOffset;) {
            auto *n = heap.region().template at<Node>(cur);
            sum += tx.read(&n->value);
            cur = tx.read(&n->next);
        }
    });
    return sum;
}

TEST(Policies, AllFiveConfigurationsComputeTheSameResult)
{
    struct Config
    {
        bool durable;
        int policy; // 0 raw, 1 undo, 2 stm
    };
    for (const auto &[durable, policy] :
         {Config{false, 0}, Config{false, 1}, Config{false, 2},
          Config{true, 1}, Config{true, 2}}) {
        PHeapConfig config;
        config.durableLogs = durable;
        PHeap heap(config);
        uint64_t sum = 0;
        switch (policy) {
          case 0:
            sum = linkedListWorkload<RawPolicy>(heap);
            break;
          case 1:
            sum = linkedListWorkload<UndoPolicy>(heap);
            break;
          default:
            sum = linkedListWorkload<StmPolicy>(heap);
            break;
        }
        EXPECT_EQ(sum, 55u) << "durable=" << durable
                            << " policy=" << policy;
    }
}

TEST(Policies, FofIssuesNoFlushes)
{
    PHeapConfig config;
    config.durableLogs = false;
    PHeap heap(config);
    resetCounters();
    linkedListWorkload<RawPolicy>(heap);
    EXPECT_EQ(flushCount(), 0u);
    EXPECT_EQ(ntStoreCount(), 0u);
}

TEST(Policies, FofUndoLogsInCacheOnly)
{
    PHeapConfig config;
    config.durableLogs = false;
    PHeap heap(config);
    resetCounters();
    linkedListWorkload<UndoPolicy>(heap);
    // Log appends happen, but with cached stores and no flushes.
    EXPECT_GT(heap.undoLog().stats().recordsLogged, 0u);
    EXPECT_EQ(flushCount(), 0u);
    EXPECT_EQ(ntStoreCount(), 0u);
}

TEST(Policies, FocUndoFlushesOnCommit)
{
    PHeapConfig config;
    config.durableLogs = true;
    PHeap heap(config);
    resetCounters();
    linkedListWorkload<UndoPolicy>(heap);
    EXPECT_GT(flushCount(), 0u);
    EXPECT_GT(ntStoreCount(), 0u);
}

TEST(Policies, RootObjectRoundTrip)
{
    PHeapConfig config;
    config.durableLogs = false;
    PHeap heap(config);
    EXPECT_EQ(heap.rootObject(), kNullOffset);
    RawPolicy::run(heap, [&](RawPolicy::Tx &tx) {
        const Offset root = tx.alloc(64);
        heap.setRootObject(tx, root);
    });
    EXPECT_NE(heap.rootObject(), kNullOffset);
}

} // namespace
} // namespace wsp::pmem
