/**
 * @file
 * In-memory key-value store over the simulated machine.
 *
 * The motivating applications of the paper are main-memory key-value
 * stores and databases (section 1). KvStore is such an application
 * running *inside* the simulated WSP machine: its entire state lives
 * in NVRAM behind the write-back cache, so a power failure exercises
 * the full flush-on-fail path and a restore brings the store back
 * verbatim. Open addressing with linear probing; 64-bit keys and
 * values; key 0 is reserved as the empty slot marker.
 */

#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "machine/cache.h"

namespace wsp::util {
class FlitTracker;
}

namespace wsp::apps {

/** One operation in a KV batch. */
struct KvOp
{
    enum class Kind : uint8_t { Put, Get, Erase };

    Kind kind = Kind::Get;
    uint64_t key = 0;
    uint64_t value = 0; ///< Put payload; ignored otherwise

    static KvOp put(uint64_t key, uint64_t value)
    {
        return KvOp{Kind::Put, key, value};
    }
    static KvOp get(uint64_t key) { return KvOp{Kind::Get, key, 0}; }
    static KvOp erase(uint64_t key) { return KvOp{Kind::Erase, key, 0}; }
};

/**
 * Merged outcome counters of an applied batch. Every field is a sum
 * over per-op outcomes, so results are order-independent and a
 * sharded application (grouped by shard) merges to exactly the
 * counters of the same ops applied one by one.
 */
struct KvBatchResult
{
    uint64_t puts = 0;         ///< puts that landed
    uint64_t putsRejected = 0; ///< puts refused (store full)
    uint64_t gets = 0;
    uint64_t getHits = 0;
    uint64_t getValueSum = 0;  ///< sum of hit values (verification)
    uint64_t erases = 0;
    uint64_t erasesHit = 0;    ///< erases that removed a key

    void merge(const KvBatchResult &other)
    {
        puts += other.puts;
        putsRejected += other.putsRejected;
        gets += other.gets;
        getHits += other.getHits;
        getValueSum += other.getValueSum;
        erases += other.erases;
        erasesHit += other.erasesHit;
    }

    uint64_t ops() const { return puts + putsRejected + gets + erases; }
};

/** Fixed-capacity open-addressing hash store in simulated NVRAM. */
class KvStore
{
  public:
    /** Persistent layout: a header line, then the slot array. */
    static constexpr uint64_t kHeaderBytes = 64;
    /** One (key, value) slot. */
    static constexpr uint64_t kSlotBytes = 16;

    /**
     * @param cache    the cache all accesses go through
     * @param base     NVRAM base address of the store's region
     *                 (16-byte aligned, so no slot straddles a line)
     * @param capacity slot count (power of two)
     */
    KvStore(CacheModel &cache, uint64_t base, uint64_t capacity);

    /** Bytes of NVRAM a store of @p capacity slots needs. */
    static uint64_t regionBytes(uint64_t capacity);

    /**
     * Attach to a store previously created at @p base (after a
     * restore); validates the header.
     * @return nullopt when no valid store lives there.
     */
    static std::optional<KvStore> attach(CacheModel &cache, uint64_t base);

    uint64_t capacity() const { return capacity_; }

    /** Number of live keys (reads the persistent header). */
    uint64_t size() const;

    /** Insert or update @p key (nonzero). False when full. */
    bool put(uint64_t key, uint64_t value);

    /** Look up @p key. */
    bool get(uint64_t key, uint64_t *value_out = nullptr) const;

    /** Remove @p key; false when absent. */
    bool erase(uint64_t key);

    /**
     * Apply @p ops in order with the live-count header maintained
     * once per batch instead of once per mutation: the header
     * read-modify-write is a full cache-model round trip, so batching
     * amortizes the per-op accounting the serving tier pays.
     * Externally equivalent to the per-op calls in the same order.
     */
    KvBatchResult applyBatch(std::span<const KvOp> ops);

    /** Sum of all values (full scan); for state verification. */
    uint64_t checksum() const;

    /**
     * Visit every live (key, value) pair (scan order). The slot array
     * is read ahead in multi-line chunks, so @p visit must not change
     * the store.
     */
    void forEach(const std::function<void(uint64_t key, uint64_t value)>
                     &visit) const;

    /**
     * Route every subsequent mutation's stores into @p flit so the
     * correctness-conditions checkers can track persistence
     * boundaries (FliT-style, util/flit.h). Pass nullptr to detach.
     * Not owned; must outlive the store or be detached.
     */
    void setFlitTracker(util::FlitTracker *flit) { flit_ = flit; }

  private:
    static constexpr uint64_t kMagic = 0x5753504b56535431ull; // WSPKVST1
    static constexpr uint64_t kTombstone = ~0ull;

    uint64_t slotAddr(uint64_t index) const
    {
        return base_ + kHeaderBytes + index * kSlotBytes;
    }

    uint64_t probeStart(uint64_t key) const;
    void setSize(uint64_t size);

    /** Call @p fn(key, value) for every live slot in slot order,
     *  reading the slot array a chunk of lines at a time. */
    template <typename Fn>
    void scanSlots(Fn &&fn) const;

    /** Mutation funnel: cached store plus FliT notification. */
    void storeU64(uint64_t addr, uint64_t value);

    /**
     * Store a slot's (key, value) pair — always within one line.
     * Takes the cache's line-granular fast path when possible; the
     * direct-pointer shortcut is only legal without a FliT tracker
     * attached, because the tracker must see every store through
     * storeU64's funnel.
     */
    void storeSlotPair(uint64_t addr, uint64_t key, uint64_t value)
    {
        if (flit_ == nullptr) {
            uint8_t *line =
                cache_.touchLine(addr & ~(CacheModel::kLineSize - 1));
            if (line != nullptr) {
                const uint64_t off = addr & (CacheModel::kLineSize - 1);
                std::memcpy(line + off, &key, 8);
                std::memcpy(line + off + 8, &value, 8);
                return;
            }
        }
        storeU64(addr, key);
        storeU64(addr + 8, value);
    }

    /** Put against the slot array only; header untouched.
     *  @return false when full; *inserted set when a new key landed. */
    bool putSlot(uint64_t key, uint64_t value, bool *inserted);

    /** Erase against the slot array only; true when a key was removed. */
    bool eraseSlot(uint64_t key);

    KvStore(CacheModel &cache, uint64_t base, uint64_t capacity,
            std::nullptr_t);

    CacheModel &cache_;
    uint64_t base_;
    uint64_t capacity_;
    util::FlitTracker *flit_ = nullptr;
};

/**
 * Lock-striped sharded view over N KvStore shards.
 *
 * Keys are assigned to shards by a mixed hash, each shard owns a
 * disjoint NVRAM region (shard i at base + i * shardStride), and each
 * shard has its own mutex, so operations on different shards never
 * contend. Two deployment modes:
 *
 *  - crashsim mode: every shard runs over the *same* CacheModel (one
 *    cache pointer repeated). The event queue is single-threaded, so
 *    the per-shard locks are uncontended formality; what matters is
 *    that the persistent layout is shard-striped exactly as in the
 *    concurrent deployment, so crash/recovery invariants cover it.
 *  - serving mode: every shard gets a *private* CacheModel (and
 *    backing NVRAM). The simulator's cache and sparse memory are not
 *    thread-safe, so shard privacy plus the per-shard lock is what
 *    makes real-thread concurrency sound.
 *
 * Shard count must be a power of two.
 */
class ShardedKvStore
{
  public:
    /**
     * Create fresh shards. @p caches supplies one cache per shard
     * (pointers may repeat for the shared-cache mode); shard count is
     * caches.size().
     */
    ShardedKvStore(std::span<CacheModel *const> caches, uint64_t base,
                   uint64_t per_shard_capacity);

    /** NVRAM stride between consecutive shards (cache-line aligned). */
    static uint64_t shardStride(uint64_t per_shard_capacity);

    /** Total NVRAM bytes for @p shards shards. */
    static uint64_t regionBytes(unsigned shards, uint64_t per_shard_capacity);

    /**
     * Attach to a previously created sharded store at @p base (after
     * a restore); shard count is caches.size() and must match the
     * creation-time count. @return nullopt when any shard header is
     * invalid or capacities disagree.
     */
    static std::optional<ShardedKvStore>
    attach(std::span<CacheModel *const> caches, uint64_t base);

    unsigned shardCount() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    /**
     * The shard owning @p key among @p shards (a power of two). The
     * one owner of the key-to-shard mapping: the crash checkers and
     * the fleet route keys through it without attaching a store.
     */
    static unsigned shardOf(uint64_t key, unsigned shards)
    {
        // Distinct mix from KvStore::probeStart so shard choice and
        // probe position stay uncorrelated.
        uint64_t h = key;
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 29;
        return static_cast<unsigned>(h & (shards - 1));
    }

    /** The shard owning @p key. Inline: the traffic plane's
     *  producers route every generated op through this. */
    unsigned shardOf(uint64_t key) const
    {
        return shardOf(key, shardCount());
    }

    /**
     * Read-only view of shard @p i. The fleet's anti-entropy pass
     * scans shards directly to build per-shard digests; mutations
     * still go through the locking front door above.
     */
    const KvStore &shard(unsigned i) const { return shards_.at(i); }

    uint64_t perShardCapacity() const { return shards_.front().capacity(); }

    /** Insert or update @p key in its shard. False when full. */
    bool put(uint64_t key, uint64_t value);

    /** Look up @p key in its shard. */
    bool get(uint64_t key, uint64_t *value_out = nullptr) const;

    /** Remove @p key; false when absent. */
    bool erase(uint64_t key);

    /**
     * Apply @p ops grouped by shard: one stable counting pass sorts
     * the batch into shard runs, then each involved shard is locked
     * once and applies its run as a KvStore batch. Per-key op order
     * is preserved (a key's ops all land in its shard, in batch
     * order), so the merged counters and final state are exactly
     * those of the same ops applied one by one — while the serving
     * tier pays one lock acquisition and one size-header update per
     * shard per batch instead of per op.
     */
    KvBatchResult applyBatch(std::span<const KvOp> ops);

    /**
     * Apply a run of ops that the caller already routed to @p shard
     * (every op's key must satisfy shardOf(key) == shard). This is
     * the submission rings' drain entry: the rings are per-shard, so
     * the grouping pass applyBatch pays has already happened at
     * enqueue time. Takes the shard lock like every other mutation.
     */
    KvBatchResult applyShardBatch(unsigned shard,
                                  std::span<const KvOp> ops);

    /** Total live keys across shards. */
    uint64_t size() const;

    /** Order-independent checksum across shards. */
    uint64_t checksum() const;

    /** Live key count per shard (for balance checks). */
    std::vector<uint64_t> shardSizes() const;

    /** Visit every live pair, shard by shard (scan order). */
    void forEach(const std::function<void(uint64_t key, uint64_t value)>
                     &visit) const;

    /** Forward a FliT tracker to every shard (see KvStore). */
    void setFlitTracker(util::FlitTracker *flit);

  private:
    ShardedKvStore() = default;

    std::vector<KvStore> shards_;
    /// Heap-allocated because std::mutex is immovable and the class
    /// must move (attach returns by value).
    std::unique_ptr<std::mutex[]> locks_;
};

} // namespace wsp::apps
