/**
 * @file
 * Tests for the application substrate: hash table, AVL tree,
 * directory server, KV store, back end, cluster model.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/avl_tree.h"
#include "apps/backend_store.h"
#include "apps/cluster.h"
#include "apps/directory_server.h"
#include "apps/hash_table.h"
#include "apps/kv_store.h"
#include "nvram/nvdimm.h"
#include "util/rng.h"

namespace wsp::apps {
namespace {

using pmem::PHeap;
using pmem::PHeapConfig;
using pmem::RawPolicy;
using pmem::StmPolicy;
using pmem::UndoPolicy;

PHeapConfig
benchHeap(bool durable)
{
    PHeapConfig config;
    config.regionSize = 64ull * 1024 * 1024;
    config.durableLogs = durable;
    return config;
}

// HashTable (typed across all policies) --------------------------------

template <typename T>
struct HashTableTyped : ::testing::Test
{
};

struct RawCase
{
    using Policy = RawPolicy;
    static constexpr bool kDurable = false;
};
struct UndoFofCase
{
    using Policy = UndoPolicy;
    static constexpr bool kDurable = false;
};
struct UndoFocCase
{
    using Policy = UndoPolicy;
    static constexpr bool kDurable = true;
};
struct StmFofCase
{
    using Policy = StmPolicy;
    static constexpr bool kDurable = false;
};
struct StmFocCase
{
    using Policy = StmPolicy;
    static constexpr bool kDurable = true;
};

using AllCases = ::testing::Types<RawCase, UndoFofCase, UndoFocCase,
                                  StmFofCase, StmFocCase>;
TYPED_TEST_SUITE(HashTableTyped, AllCases, );

TYPED_TEST(HashTableTyped, InsertLookupEraseAgainstModel)
{
    using Policy = typename TypeParam::Policy;
    PHeap heap(benchHeap(TypeParam::kDurable));
    HashTable<Policy> table(heap, 256);
    std::map<uint64_t, uint64_t> model;
    Rng rng(0xbeef);

    for (int i = 0; i < 3000; ++i) {
        const uint64_t key = rng.next(500) + 1;
        const int op = static_cast<int>(rng.next(3));
        if (op == 0) {
            const uint64_t value = rng();
            EXPECT_EQ(table.insert(key, value), model.count(key) == 0);
            model[key] = value;
        } else if (op == 1) {
            EXPECT_EQ(table.erase(key), model.erase(key) == 1);
        } else {
            uint64_t value = 0;
            const bool found = table.lookup(key, &value);
            EXPECT_EQ(found, model.count(key) == 1);
            if (found) {
                EXPECT_EQ(value, model[key]);
            }
        }
        if (i % 500 == 0) {
            EXPECT_EQ(table.size(), model.size());
        }
    }
    EXPECT_EQ(table.size(), model.size());

    uint64_t model_sum = 0;
    for (const auto &[k, v] : model)
        model_sum += v;
    EXPECT_EQ(table.sumValues(), model_sum);
}

TEST(HashTable, UpdateOverwritesValue)
{
    PHeap heap(benchHeap(false));
    HashTable<RawPolicy> table(heap, 64);
    EXPECT_TRUE(table.insert(1, 10));
    EXPECT_FALSE(table.insert(1, 20)); // update, not insert
    uint64_t value = 0;
    EXPECT_TRUE(table.lookup(1, &value));
    EXPECT_EQ(value, 20u);
    EXPECT_EQ(table.size(), 1u);
}

TEST(HashTable, CollisionChainsWork)
{
    PHeap heap(benchHeap(false));
    HashTable<RawPolicy> table(heap, 1); // everything collides
    for (uint64_t k = 1; k <= 50; ++k)
        EXPECT_TRUE(table.insert(k, k * 2));
    for (uint64_t k = 1; k <= 50; ++k) {
        uint64_t value = 0;
        EXPECT_TRUE(table.lookup(k, &value));
        EXPECT_EQ(value, k * 2);
    }
    EXPECT_TRUE(table.erase(25));
    EXPECT_FALSE(table.lookup(25));
    EXPECT_EQ(table.size(), 49u);
}

TEST(HashTable, CrashRecoveryKeepsCommittedInserts)
{
    const std::string path = ::testing::TempDir() + "wsp_ht_crash.img";
    std::remove(path.c_str());
    pmem::Offset header = 0;
    {
        PHeapConfig config = benchHeap(true);
        config.path = path;
        PHeap heap(config);
        HashTable<UndoPolicy> table(heap, 64);
        header = table.headerOffset();
        UndoPolicy::run(heap, [&](UndoPolicy::Tx &tx) {
            heap.setRootObject(tx, header);
        });
        table.insert(1, 100);
        table.insert(2, 200);

        // Crash mid-insert: begin a txn and vanish.
        heap.undoLog().txBegin();
        UndoPolicy::Tx tx(heap);
        const pmem::Offset node = tx.alloc(
            sizeof(HashTable<UndoPolicy>::Node));
        (void)node;
    }
    {
        PHeapConfig config = benchHeap(true);
        config.path = path;
        PHeap heap(config);
        EXPECT_GT(heap.openReport().undoRecordsApplied, 0u);
        HashTable<UndoPolicy> table(heap, heap.rootObject(), nullptr);
        uint64_t value = 0;
        EXPECT_TRUE(table.lookup(1, &value));
        EXPECT_EQ(value, 100u);
        EXPECT_TRUE(table.lookup(2, &value));
        EXPECT_EQ(value, 200u);
        EXPECT_EQ(table.size(), 2u);
    }
    std::remove(path.c_str());
}

// AvlTree ---------------------------------------------------------------

template <typename T>
struct AvlTyped : ::testing::Test
{
};
TYPED_TEST_SUITE(AvlTyped, AllCases, );

TYPED_TEST(AvlTyped, RandomInsertsKeepInvariants)
{
    using Policy = typename TypeParam::Policy;
    PHeap heap(benchHeap(TypeParam::kDurable));
    AvlTree<Policy> tree(heap);
    Rng rng(0xfeed);
    std::set<uint64_t> model;
    for (int i = 0; i < 1000; ++i) {
        const uint64_t key = rng.next(10000) + 1;
        EXPECT_EQ(tree.insert(key, key), model.insert(key).second);
    }
    EXPECT_EQ(tree.size(), model.size());
    EXPECT_TRUE(tree.checkInvariants());
    EXPECT_EQ(tree.minKey(), *model.begin());
    for (uint64_t key : model)
        EXPECT_TRUE(tree.find(key));
    EXPECT_FALSE(tree.find(999999));
}

TEST(AvlTree, SequentialInsertStaysBalanced)
{
    PHeap heap(benchHeap(false));
    AvlTree<RawPolicy> tree(heap);
    for (uint64_t key = 1; key <= 1024; ++key)
        tree.insert(key, key);
    EXPECT_TRUE(tree.checkInvariants());
    // Height of a 1024-node AVL tree is at most 1.44 log2(n) ~ 14.
    EXPECT_LE(tree.height(), 14u);
}

TEST(AvlTree, PayloadReplacedOnDuplicateKey)
{
    PHeap heap(benchHeap(false));
    AvlTree<RawPolicy> tree(heap);
    EXPECT_TRUE(tree.insert(7, 70));
    EXPECT_FALSE(tree.insert(7, 71));
    pmem::Offset payload = 0;
    EXPECT_TRUE(tree.find(7, &payload));
    EXPECT_EQ(payload, 71u);
    EXPECT_EQ(tree.size(), 1u);
}

TYPED_TEST(AvlTyped, RandomOpsAgainstModel)
{
    using Policy = typename TypeParam::Policy;
    PHeap heap(benchHeap(TypeParam::kDurable));
    AvlTree<Policy> tree(heap);
    Rng rng(0xcafe);
    std::set<uint64_t> model;
    for (int i = 0; i < 2000; ++i) {
        const uint64_t key = rng.next(300) + 1;
        if (rng.chance(0.6)) {
            EXPECT_EQ(tree.insert(key, key), model.insert(key).second);
        } else {
            EXPECT_EQ(tree.find(key), model.count(key) == 1) << key;
        }
        if (i % 250 == 0) {
            EXPECT_TRUE(tree.checkInvariants()) << "step " << i;
        }
    }
    EXPECT_EQ(tree.size(), model.size());
    EXPECT_TRUE(tree.checkInvariants());
    for (uint64_t key = 1; key <= 301; ++key)
        EXPECT_EQ(tree.find(key), model.count(key) == 1) << key;
}

TEST(AvlTree, EraseCrashRecoveryRollsBack)
{
    const std::string path = ::testing::TempDir() + "wsp_avl_erase.img";
    std::remove(path.c_str());
    {
        PHeapConfig config = benchHeap(true);
        config.path = path;
        PHeap heap(config);
        AvlTree<UndoPolicy> tree(heap);
        UndoPolicy::run(heap, [&](UndoPolicy::Tx &tx) {
            heap.setRootObject(tx, tree.headerOffset());
        });
        for (uint64_t key = 1; key <= 20; ++key)
            tree.insert(key, key);
        // Crash in the middle of a structural update: begin the txn
        // by hand and run the edits without committing.
        heap.undoLog().txBegin();
        UndoPolicy::Tx tx(heap);
        auto *h = heap.region().at<AvlTree<UndoPolicy>::Header>(
            tree.headerOffset());
        tx.write(&h->root, pmem::kNullOffset); // partial damage
        // crash: no commit
    }
    {
        PHeapConfig config = benchHeap(true);
        config.path = path;
        PHeap heap(config);
        EXPECT_GT(heap.openReport().undoRecordsApplied, 0u);
        AvlTree<UndoPolicy> tree(heap, heap.rootObject(), nullptr);
        EXPECT_EQ(tree.size(), 20u);
        EXPECT_TRUE(tree.checkInvariants());
        for (uint64_t key = 1; key <= 20; ++key)
            EXPECT_TRUE(tree.find(key));
    }
    std::remove(path.c_str());
}

TEST(HashTable, ConcurrentStmInsertsAreLinearizable)
{
    // FoF + STM: four threads hammer disjoint key ranges plus one
    // shared counter key; the table must end with every key present
    // and the shared counter no larger than the increment count.
    PHeap heap(benchHeap(false));
    HashTable<StmPolicy> table(heap, 128);
    table.insert(1, 0); // the shared counter
    constexpr int kThreads = 4;
    constexpr uint64_t kPerThread = 300;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const uint64_t base = 1000 + static_cast<uint64_t>(t) * 10000;
            for (uint64_t i = 0; i < kPerThread; ++i) {
                table.insert(base + i, i);
                StmPolicy::run(heap, [&](StmPolicy::Tx &) {});
                uint64_t counter = 0;
                table.lookup(1, &counter);
                table.insert(1, counter + 1); // read-modify-write txns
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t) {
        const uint64_t base = 1000 + static_cast<uint64_t>(t) * 10000;
        for (uint64_t i = 0; i < kPerThread; ++i)
            ASSERT_TRUE(table.lookup(base + i)) << t << ":" << i;
    }
    // NOTE: lookup+insert above are two separate transactions, so the
    // counter may undercount: it lies in [1, every increment], and each
    // other key still holds exactly its i.
    EXPECT_EQ(table.size(), 1u + kThreads * kPerThread);
    uint64_t counter = 0;
    ASSERT_TRUE(table.lookup(1, &counter));
    EXPECT_GE(counter, 1u);
    EXPECT_LE(counter, kThreads * kPerThread);
    EXPECT_EQ(table.sumValues(),
              kThreads * kPerThread * (kPerThread - 1) / 2 + counter);
}

// Directory server ---------------------------------------------------------

TEST(Directory, ParseValidEntry)
{
    DirectoryEntry entry;
    const auto result = parseEntry(
        "dn: uid=x,dc=example,dc=com\ncn: Alice\nmail: a@b.c\n", &entry);
    EXPECT_EQ(result, DirectoryResult::Success);
    EXPECT_EQ(entry.dn, "uid=x,dc=example,dc=com");
    ASSERT_EQ(entry.attributes.size(), 2u);
    EXPECT_EQ(entry.attributes[0].first, "cn");
    EXPECT_EQ(entry.attributes[0].second, "Alice");
}

TEST(Directory, ParseRejectsMissingDn)
{
    DirectoryEntry entry;
    EXPECT_EQ(parseEntry("cn: Alice\n", &entry),
              DirectoryResult::InvalidSyntax);
    EXPECT_EQ(parseEntry("", &entry), DirectoryResult::InvalidSyntax);
}

TEST(Directory, ParseRejectsMalformedLine)
{
    DirectoryEntry entry;
    EXPECT_EQ(parseEntry("dn: x\nnocolonhere\n", &entry),
              DirectoryResult::InvalidSyntax);
}

TEST(Directory, ValidateRejectsUnknownAttribute)
{
    DirectoryEntry entry;
    entry.dn = "uid=x";
    entry.attributes = {{"flavour", "vanilla"}};
    EXPECT_EQ(validateEntry(entry),
              DirectoryResult::UndefinedAttributeType);
}

TEST(Directory, ValidateRejectsEmptyValue)
{
    DirectoryEntry entry;
    entry.dn = "uid=x";
    entry.attributes = {{"cn", ""}};
    EXPECT_EQ(validateEntry(entry), DirectoryResult::InvalidSyntax);
}

TEST(Directory, RandomEntriesValidate)
{
    Rng rng(1);
    for (uint64_t i = 0; i < 100; ++i) {
        const DirectoryEntry entry = randomEntry(rng, i);
        EXPECT_EQ(validateEntry(entry), DirectoryResult::Success);
        // Round-trips through the wire format.
        DirectoryEntry back;
        EXPECT_EQ(parseEntry(renderEntry(entry), &back),
                  DirectoryResult::Success);
        EXPECT_EQ(back.dn, entry.dn);
        EXPECT_EQ(back.attributes.size(), entry.attributes.size());
    }
}

TEST(Directory, AddThenSearchRoundTrip)
{
    PHeap heap(benchHeap(false));
    DirectoryServer<RawPolicy> server(heap);
    Rng rng(2);
    const DirectoryEntry entry = randomEntry(rng, 0);
    EXPECT_EQ(server.add(renderEntry(entry)), DirectoryResult::Success);
    // The index maps the DN's hash to a length-prefixed blob holding
    // the rendered entry.
    const uint64_t key = fnv1a(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t *>(entry.dn.data()),
        entry.dn.size()));
    pmem::Offset payload = pmem::kNullOffset;
    ASSERT_TRUE(server.index().find(key, &payload));
    const uint64_t size = *heap.region().at<uint64_t>(payload);
    const std::string blob(
        reinterpret_cast<const char *>(heap.region().at(payload + 8)), size);
    EXPECT_EQ(blob, renderEntry(entry));
    DirectoryEntry found;
    EXPECT_EQ(parseEntry(blob, &found), DirectoryResult::Success);
    EXPECT_EQ(found.dn, entry.dn);
    EXPECT_EQ(found.attributes.size(), entry.attributes.size());
}

TEST(Directory, DuplicateAddRejected)
{
    PHeap heap(benchHeap(false));
    DirectoryServer<RawPolicy> server(heap);
    Rng rng(3);
    const std::string text = renderEntry(randomEntry(rng, 0));
    EXPECT_EQ(server.add(text), DirectoryResult::Success);
    EXPECT_EQ(server.add(text), DirectoryResult::EntryAlreadyExists);
    EXPECT_EQ(server.entryCount(), 1u);
}

TEST(Directory, BulkLoadUnderStmKeepsIndexInvariants)
{
    PHeap heap(benchHeap(true));
    DirectoryServer<StmPolicy> server(heap);
    Rng rng(4);
    for (uint64_t i = 0; i < 500; ++i) {
        EXPECT_EQ(server.add(renderEntry(randomEntry(rng, i))),
                  DirectoryResult::Success);
    }
    EXPECT_EQ(server.entryCount(), 500u);
    EXPECT_TRUE(server.index().checkInvariants());
}

// KvStore (simulated machine side) -----------------------------------------

struct KvFixture : ::testing::Test
{
    KvFixture()
        : dimm(queue, "d",
               [] {
                   NvdimmConfig config;
                   config.capacityBytes = 8 * kMiB;
                   config.flashChannels = 1;
                   return config;
               }())
    {
        space.addModule(dimm);
        cache = std::make_unique<CacheModel>("L3", 2 * kMiB,
                                             CacheTiming{}, space);
    }

    EventQueue queue;
    NvdimmModule dimm;
    NvramSpace space;
    std::unique_ptr<CacheModel> cache;
};

TEST_F(KvFixture, PutGetEraseAgainstModel)
{
    KvStore store(*cache, 0, 1024);
    std::map<uint64_t, uint64_t> model;
    Rng rng(5);
    for (int i = 0; i < 3000; ++i) {
        const uint64_t key = rng.next(400) + 1;
        switch (rng.next(3)) {
          case 0:
            EXPECT_TRUE(store.put(key, key * 3));
            model[key] = key * 3;
            break;
          case 1:
            EXPECT_EQ(store.erase(key), model.erase(key) == 1);
            break;
          default: {
            uint64_t value = 0;
            EXPECT_EQ(store.get(key, &value), model.count(key) == 1);
            if (model.count(key)) {
                EXPECT_EQ(value, model[key]);
            }
          }
        }
    }
    EXPECT_EQ(store.size(), model.size());
}

TEST_F(KvFixture, TombstonesAreReused)
{
    KvStore store(*cache, 0, 8);
    for (uint64_t k = 1; k <= 6; ++k)
        EXPECT_TRUE(store.put(k, k));
    EXPECT_TRUE(store.erase(3));
    EXPECT_TRUE(store.put(100, 100)); // may land in the tombstone
    EXPECT_TRUE(store.get(100));
    for (uint64_t k = 1; k <= 6; ++k)
        EXPECT_EQ(store.get(k), k != 3);
}

TEST_F(KvFixture, FullTableRejectsNewKeys)
{
    KvStore store(*cache, 0, 4);
    for (uint64_t k = 1; k <= 4; ++k)
        EXPECT_TRUE(store.put(k, k));
    EXPECT_FALSE(store.put(99, 99));
    // Updating an existing key still works.
    EXPECT_TRUE(store.put(2, 22));
}

TEST_F(KvFixture, AttachFindsExistingStore)
{
    {
        KvStore store(*cache, 4096, 64);
        store.put(42, 4242);
    }
    auto attached = KvStore::attach(*cache, 4096);
    ASSERT_TRUE(attached.has_value());
    uint64_t value = 0;
    EXPECT_TRUE(attached->get(42, &value));
    EXPECT_EQ(value, 4242u);
    EXPECT_EQ(attached->size(), 1u);
}

TEST_F(KvFixture, AttachRejectsGarbage)
{
    EXPECT_FALSE(KvStore::attach(*cache, 1 * kMiB).has_value());
}

TEST_F(KvFixture, ChecksumTracksContent)
{
    KvStore store(*cache, 0, 64);
    const uint64_t empty = store.checksum();
    store.put(1, 2);
    const uint64_t one = store.checksum();
    EXPECT_NE(empty, one);
    store.erase(1);
    EXPECT_EQ(store.checksum(), empty);
}

// KvStore scans ---------------------------------------------------------
//
// forEach and checksum read the slot array a chunk of lines at a time
// (256 slots). They must see exactly what a per-slot walk of the
// documented layout sees: a 64-byte header, then 16-byte (key, value)
// slots, key 0 empty and ~0 a tombstone, each word read through the
// cache with readU64.

std::vector<std::pair<uint64_t, uint64_t>>
walkSlots(const CacheModel &cache, uint64_t base, uint64_t capacity)
{
    std::vector<std::pair<uint64_t, uint64_t>> pairs;
    for (uint64_t i = 0; i < capacity; ++i) {
        const uint64_t slot = base + 64 + i * 16;
        const uint64_t key = cache.readU64(slot);
        if (key != 0 && key != ~0ull)
            pairs.emplace_back(key, cache.readU64(slot + 8));
    }
    return pairs;
}

void
expectScanMatchesWalk(const KvStore &store, const CacheModel &cache,
                      uint64_t base, const std::string &label)
{
    std::vector<std::pair<uint64_t, uint64_t>> visited;
    store.forEach([&](uint64_t key, uint64_t value) {
        visited.emplace_back(key, value);
    });
    const auto walked = walkSlots(cache, base, store.capacity());
    EXPECT_EQ(visited, walked) << label;
    uint64_t sum = 0;
    for (const auto &[key, value] : walked)
        sum += key * 0x9e3779b97f4a7c15ull + value;
    EXPECT_EQ(store.checksum(), sum) << label;
}

TEST(KvScan, ForEachAndChecksumMatchAPerSlotWalk)
{
    // Bases: line-aligned and mid-line (slots must stay 16-aligned).
    // Capacities: one slot, two (the array ends mid-line), 64 and 1024
    // (four scan chunks). A 4-line cache evicts constantly, so its
    // stores mix dirty and clean lines at every step.
    for (const uint64_t base : {0ull, 4096ull + 48}) {
        for (const uint64_t capacity : {1ull, 2ull, 64ull, 1024ull}) {
            for (const uint64_t cache_lines : {4096ull, 4ull}) {
                EventQueue queue;
                NvdimmConfig dimm_config;
                dimm_config.capacityBytes = 1 * kMiB;
                dimm_config.flashChannels = 1;
                NvdimmModule dimm(queue, "d", dimm_config);
                NvramSpace space;
                space.addModule(dimm);
                CacheModel cache("c", cache_lines * CacheModel::kLineSize,
                                 CacheTiming{}, space);
                KvStore store(cache, base, capacity);
                const std::string label =
                    "base " + std::to_string(base) + " capacity " +
                    std::to_string(capacity) + " cache lines " +
                    std::to_string(cache_lines);

                Rng rng(base * 131 + capacity * 7 + cache_lines);
                std::vector<uint64_t> keys;
                for (uint64_t i = 0; i < capacity * 3 / 4 + 1; ++i) {
                    const uint64_t key = rng.next(1 << 20) + 1;
                    if (store.put(key, rng()))
                        keys.push_back(key);
                }
                expectScanMatchesWalk(store, cache, base,
                                      label + ": written");

                for (size_t i = 0; i < keys.size(); i += 2)
                    store.erase(keys[i]);
                expectScanMatchesWalk(store, cache, base,
                                      label + ": tombstones");

                cache.wbinvd();
                ASSERT_EQ(cache.dirtyLines(), 0u);
                expectScanMatchesWalk(store, cache, base,
                                      label + ": all clean");

                // A few updates dirty scattered lines between clean
                // runs; then dropping them exposes the older NVRAM
                // image under those lines.
                for (size_t i = 1; i < keys.size(); i += 3)
                    store.put(keys[i], rng());
                for (size_t i = 0; i < keys.size(); i += 4)
                    store.put(keys[i], rng());
                expectScanMatchesWalk(store, cache, base,
                                      label + ": mixed");

                cache.dropDirty();
                expectScanMatchesWalk(store, cache, base,
                                      label + ": dirty lines dropped");
            }
        }
    }
}

// BackendStore ----------------------------------------------------------

TEST_F(KvFixture, BackendCheckpointAndLogRecover)
{
    KvStore store(*cache, 0, 256);
    store.put(1, 10);
    store.put(2, 20);

    BackendStore backend;
    backend.checkpoint(store);
    backend.logUpdate({3, 30, false});
    backend.logUpdate({1, 0, true}); // erase key 1 after checkpoint

    KvStore fresh(*cache, 1 * kMiB, 256);
    EXPECT_EQ(backend.recoverInto(&fresh), 4u);
    EXPECT_FALSE(fresh.get(1));
    uint64_t value = 0;
    EXPECT_TRUE(fresh.get(2, &value));
    EXPECT_EQ(value, 20u);
    EXPECT_TRUE(fresh.get(3, &value));
    EXPECT_EQ(value, 30u);
}

TEST(Backend, RecoveryTimeMatchesPaperExample)
{
    // Paper section 2: 256 GB at 0.5 GB/s is more than 8 minutes.
    BackendConfig config;
    config.perStreamBandwidth = 0.5e9;
    config.aggregateBandwidth = 1e12; // not the limiter here
    BackendStore backend(config);
    const Tick t = backend.recoveryTime(256ull * 1000 * 1000 * 1000, 1);
    EXPECT_GT(toSeconds(t), 8 * 60.0);
}

TEST(Backend, StormDividesAggregateBandwidth)
{
    BackendConfig config;
    config.perStreamBandwidth = 0.5e9;
    config.aggregateBandwidth = 2.0e9;
    BackendStore backend(config);
    const uint64_t bytes = 64ull * 1024 * 1024 * 1024;
    const Tick alone = backend.recoveryTime(bytes, 1);
    const Tick storm = backend.recoveryTime(bytes, 100);
    // 100 servers on 2 GB/s -> 20 MB/s each: 25x slower than alone.
    EXPECT_NEAR(static_cast<double>(storm) / static_cast<double>(alone),
                25.0, 0.1);
}

// Cluster ----------------------------------------------------------------

TEST(Cluster, WspBeatsBackendStorm)
{
    ClusterConfig config;
    config.servers = 100;
    config.memoryPerServer = 256ull * 1024 * 1024 * 1024;
    config.nvdimm.capacityBytes = 8 * kGiB;
    const StormReport report = correlatedOutage(config);
    EXPECT_GT(report.backendRecovery, report.backendSingle);
    EXPECT_LT(report.wspRecovery, report.backendSingle);
    EXPECT_GT(report.speedup, 10.0);
}

TEST(Cluster, SingleServerStillFasterWithWsp)
{
    ClusterConfig config;
    config.servers = 1;
    config.memoryPerServer = 64ull * 1024 * 1024 * 1024;
    config.nvdimm.capacityBytes = 8 * kGiB;
    const StormReport report = correlatedOutage(config);
    EXPECT_EQ(report.backendRecovery, report.backendSingle);
    EXPECT_LT(report.wspRecovery, report.backendRecovery);
}

} // namespace
} // namespace wsp::apps
