#include "apps/kv_store.h"

#include <algorithm>

#include "util/flit.h"
#include "util/logging.h"

namespace wsp::apps {

namespace {

// Header word offsets.
constexpr uint64_t kOffMagic = 0;
constexpr uint64_t kOffCapacity = 8;
constexpr uint64_t kOffSize = 16;

} // namespace

KvStore::KvStore(CacheModel &cache, uint64_t base, uint64_t capacity)
    : cache_(cache), base_(base), capacity_(capacity)
{
    WSP_CHECKF((capacity & (capacity - 1)) == 0,
               "KvStore capacity must be a power of two");
    WSP_CHECKF(base % kSlotBytes == 0,
               "KvStore base must be 16-byte aligned (no slot may "
               "straddle a cache line)");
    // O(1) line lookups over our region. With a shared cache the last
    // shard's registration wins — earlier shards just keep the hash
    // probe.
    cache_.registerRegionView(base_, regionBytes(capacity));
    cache_.writeU64(base_ + kOffMagic, kMagic);
    cache_.writeU64(base_ + kOffCapacity, capacity);
    cache_.writeU64(base_ + kOffSize, 0);
    for (uint64_t i = 0; i < capacity; ++i) {
        cache_.writeU64(slotAddr(i), 0);
        cache_.writeU64(slotAddr(i) + 8, 0);
    }
}

KvStore::KvStore(CacheModel &cache, uint64_t base, uint64_t capacity,
                 std::nullptr_t)
    : cache_(cache), base_(base), capacity_(capacity)
{
    WSP_CHECKF(base % kSlotBytes == 0, "KvStore base must be 16-byte aligned");
    cache_.registerRegionView(base_, regionBytes(capacity_));
}

uint64_t
KvStore::regionBytes(uint64_t capacity)
{
    return kHeaderBytes + capacity * kSlotBytes;
}

std::optional<KvStore>
KvStore::attach(CacheModel &cache, uint64_t base)
{
    if (cache.readU64(base + kOffMagic) != kMagic)
        return std::nullopt;
    const uint64_t capacity = cache.readU64(base + kOffCapacity);
    if (capacity == 0 || (capacity & (capacity - 1)) != 0)
        return std::nullopt;
    return KvStore(cache, base, capacity, nullptr);
}

uint64_t
KvStore::size() const
{
    return cache_.readU64(base_ + kOffSize);
}

void
KvStore::setSize(uint64_t size)
{
    storeU64(base_ + kOffSize, size);
}

void
KvStore::storeU64(uint64_t addr, uint64_t value)
{
    cache_.writeU64(addr, value);
    if (flit_ != nullptr)
        flit_->onStore(addr, 8);
}

uint64_t
KvStore::probeStart(uint64_t key) const
{
    uint64_t h = key;
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    return h & (capacity_ - 1);
}

// The probe loops below walk slots line-wise: four 16-byte slots
// share a cache line, so one peekLine probe serves up to four key
// reads (and a slot's value always sits in the same line as its
// key). A nullptr line — not dirty — falls back to the per-word
// cache calls, which have identical semantics;
// writes go through storeSlotU64/storeSlotPair so a FliT tracker
// still sees every store.

namespace {

constexpr uint64_t kLineMask = CacheModel::kLineSize - 1;

inline uint64_t
loadSlotKey(const CacheModel &cache, const uint8_t *line, uint64_t addr)
{
    if (line != nullptr) {
        uint64_t key;
        std::memcpy(&key, line + (addr & kLineMask), 8);
        return key;
    }
    return cache.readU64(addr);
}

} // namespace

bool
KvStore::putSlot(uint64_t key, uint64_t value, bool *inserted)
{
    WSP_CHECKF(key != 0 && key != kTombstone,
               "KvStore keys 0 and ~0 are reserved");
    *inserted = false;
    const uint64_t mask = capacity_ - 1;
    const uint64_t start = probeStart(key);
    uint64_t first_tombstone = capacity_;
    // The probed line is resolved once and written through directly
    // when it lands in the same line (the common case): the LineRef
    // carries the slab slot, so marking the line written needs no
    // second table probe. The direct path is barred while a FliT
    // tracker is attached — it must see every store.
    const bool direct = flit_ == nullptr;
    CacheModel::LineRef line;
    uint64_t line_base = ~0ull;
    for (uint64_t step = 0; step < capacity_; ++step) {
        const uint64_t index = (start + step) & mask;
        const uint64_t addr = slotAddr(index);
        if ((addr & ~kLineMask) != line_base) {
            line_base = addr & ~kLineMask;
            line = cache_.findLineMut(line_base);
        }
        uint64_t slot_key;
        if (line)
            std::memcpy(&slot_key, line.data + (addr & kLineMask), 8);
        else
            slot_key = cache_.readU64(addr);
        if (slot_key == key) {
            if (direct && line) {
                cache_.touchLineRef(line);
                std::memcpy(line.data + ((addr + 8) & kLineMask), &value,
                            8);
            } else {
                storeU64(addr + 8, value);
            }
            return true;
        }
        if (slot_key == kTombstone) {
            if (first_tombstone == capacity_)
                first_tombstone = index;
            continue;
        }
        if (slot_key == 0) {
            const uint64_t target =
                first_tombstone != capacity_ ? first_tombstone : index;
            const uint64_t target_addr = slotAddr(target);
            if (direct && line && (target_addr & ~kLineMask) == line_base) {
                cache_.touchLineRef(line);
                const uint64_t off = target_addr & kLineMask;
                std::memcpy(line.data + off, &key, 8);
                std::memcpy(line.data + off + 8, &value, 8);
            } else {
                storeSlotPair(target_addr, key, value);
            }
            *inserted = true;
            return true;
        }
    }
    if (first_tombstone != capacity_) {
        storeSlotPair(slotAddr(first_tombstone), key, value);
        *inserted = true;
        return true;
    }
    return false; // full
}

bool
KvStore::put(uint64_t key, uint64_t value)
{
    bool inserted = false;
    if (!putSlot(key, value, &inserted))
        return false;
    if (inserted)
        setSize(size() + 1);
    return true;
}

bool
KvStore::get(uint64_t key, uint64_t *value_out) const
{
    const uint64_t mask = capacity_ - 1;
    const uint64_t start = probeStart(key);
    const uint8_t *line = nullptr;
    uint64_t line_base = ~0ull;
    for (uint64_t step = 0; step < capacity_; ++step) {
        const uint64_t index = (start + step) & mask;
        const uint64_t addr = slotAddr(index);
        if ((addr & ~kLineMask) != line_base) {
            line_base = addr & ~kLineMask;
            line = cache_.peekLine(line_base);
        }
        const uint64_t slot_key = loadSlotKey(cache_, line, addr);
        if (slot_key == key) {
            if (value_out != nullptr) {
                if (line != nullptr)
                    std::memcpy(value_out, line + ((addr + 8) & kLineMask),
                                8);
                else
                    *value_out = cache_.readU64(addr + 8);
            }
            return true;
        }
        if (slot_key == 0)
            return false;
    }
    return false;
}

bool
KvStore::eraseSlot(uint64_t key)
{
    const uint64_t mask = capacity_ - 1;
    const uint64_t start = probeStart(key);
    const bool direct = flit_ == nullptr;
    CacheModel::LineRef line;
    uint64_t line_base = ~0ull;
    for (uint64_t step = 0; step < capacity_; ++step) {
        const uint64_t index = (start + step) & mask;
        const uint64_t addr = slotAddr(index);
        if ((addr & ~kLineMask) != line_base) {
            line_base = addr & ~kLineMask;
            line = cache_.findLineMut(line_base);
        }
        uint64_t slot_key;
        if (line)
            std::memcpy(&slot_key, line.data + (addr & kLineMask), 8);
        else
            slot_key = cache_.readU64(addr);
        if (slot_key == key) {
            if (direct && line) {
                cache_.touchLineRef(line);
                const uint64_t off = addr & kLineMask;
                const uint64_t tombstone = kTombstone;
                const uint64_t zero = 0;
                std::memcpy(line.data + off, &tombstone, 8);
                std::memcpy(line.data + off + 8, &zero, 8);
            } else {
                storeSlotPair(addr, kTombstone, 0);
            }
            return true;
        }
        if (slot_key == 0)
            return false;
    }
    return false;
}

bool
KvStore::erase(uint64_t key)
{
    if (!eraseSlot(key))
        return false;
    setSize(size() - 1);
    return true;
}

KvBatchResult
KvStore::applyBatch(std::span<const KvOp> ops)
{
    KvBatchResult result;
    int64_t delta = 0;
    for (const KvOp &op : ops) {
        switch (op.kind) {
          case KvOp::Kind::Put: {
            bool inserted = false;
            if (putSlot(op.key, op.value, &inserted)) {
                ++result.puts;
                delta += inserted ? 1 : 0;
            } else {
                ++result.putsRejected;
            }
            break;
          }
          case KvOp::Kind::Get: {
            uint64_t value = 0;
            ++result.gets;
            if (get(op.key, &value)) {
                ++result.getHits;
                result.getValueSum += value;
            }
            break;
          }
          case KvOp::Kind::Erase: {
            ++result.erases;
            if (eraseSlot(op.key)) {
                ++result.erasesHit;
                --delta;
            }
            break;
          }
        }
    }
    // One header round trip for the whole batch; per-op accounting
    // through the cache model is the cost this amortizes.
    if (delta != 0)
        setSize(size() + static_cast<uint64_t>(delta));
    return result;
}

namespace {

/** Slots per scan read: 4 KiB of slot array, 64 lines. */
constexpr uint64_t kScanSlots = 256;

} // namespace

template <typename Fn>
void
KvStore::scanSlots(Fn &&fn) const
{
    // One cache read per chunk instead of two readU64 calls per slot:
    // dirty lines still come from the cache and clean runs from one
    // NVRAM read each, so the bytes seen are exactly the per-word ones.
    uint8_t chunk[kScanSlots * kSlotBytes];
    for (uint64_t first = 0; first < capacity_; first += kScanSlots) {
        const uint64_t count = std::min(kScanSlots, capacity_ - first);
        cache_.read(slotAddr(first),
                    std::span<uint8_t>(chunk, count * kSlotBytes));
        for (uint64_t i = 0; i < count; ++i) {
            uint64_t key;
            uint64_t value;
            std::memcpy(&key, chunk + i * kSlotBytes, 8);
            std::memcpy(&value, chunk + i * kSlotBytes + 8, 8);
            if (key != 0 && key != kTombstone)
                fn(key, value);
        }
    }
}

void
KvStore::forEach(
    const std::function<void(uint64_t, uint64_t)> &visit) const
{
    scanSlots(visit);
}

uint64_t
KvStore::checksum() const
{
    uint64_t sum = 0;
    scanSlots([&sum](uint64_t key, uint64_t value) {
        sum += key * 0x9e3779b97f4a7c15ull + value;
    });
    return sum;
}

ShardedKvStore::ShardedKvStore(std::span<CacheModel *const> caches,
                               uint64_t base, uint64_t per_shard_capacity)
{
    const auto shards = static_cast<unsigned>(caches.size());
    WSP_CHECKF(shards >= 1 && (shards & (shards - 1)) == 0,
               "shard count must be a power of two");
    const uint64_t stride = shardStride(per_shard_capacity);
    shards_.reserve(shards);
    for (unsigned i = 0; i < shards; ++i) {
        shards_.emplace_back(*caches[i], base + i * stride,
                             per_shard_capacity);
    }
    locks_ = std::make_unique<std::mutex[]>(shards);
}

uint64_t
ShardedKvStore::shardStride(uint64_t per_shard_capacity)
{
    const uint64_t bytes = KvStore::regionBytes(per_shard_capacity);
    return (bytes + CacheModel::kLineSize - 1) & ~(CacheModel::kLineSize - 1);
}

uint64_t
ShardedKvStore::regionBytes(unsigned shards, uint64_t per_shard_capacity)
{
    return shards * shardStride(per_shard_capacity);
}

std::optional<ShardedKvStore>
ShardedKvStore::attach(std::span<CacheModel *const> caches, uint64_t base)
{
    const auto shards = static_cast<unsigned>(caches.size());
    if (shards == 0 || (shards & (shards - 1)) != 0)
        return std::nullopt;
    // Shard 0's header fixes the per-shard capacity, hence the stride
    // at which the remaining shards must be found.
    auto first = KvStore::attach(*caches[0], base);
    if (!first)
        return std::nullopt;
    const uint64_t stride = shardStride(first->capacity());

    ShardedKvStore store;
    store.shards_.reserve(shards);
    store.shards_.push_back(*first);
    for (unsigned i = 1; i < shards; ++i) {
        auto shard = KvStore::attach(*caches[i], base + i * stride);
        if (!shard || shard->capacity() != first->capacity())
            return std::nullopt;
        store.shards_.push_back(*shard);
    }
    store.locks_ = std::make_unique<std::mutex[]>(shards);
    return store;
}

bool
ShardedKvStore::put(uint64_t key, uint64_t value)
{
    const unsigned shard = shardOf(key);
    std::lock_guard<std::mutex> guard(locks_[shard]);
    return shards_[shard].put(key, value);
}

bool
ShardedKvStore::get(uint64_t key, uint64_t *value_out) const
{
    const unsigned shard = shardOf(key);
    std::lock_guard<std::mutex> guard(locks_[shard]);
    return shards_[shard].get(key, value_out);
}

bool
ShardedKvStore::erase(uint64_t key)
{
    const unsigned shard = shardOf(key);
    std::lock_guard<std::mutex> guard(locks_[shard]);
    return shards_[shard].erase(key);
}

KvBatchResult
ShardedKvStore::applyBatch(std::span<const KvOp> ops)
{
    KvBatchResult result;
    if (ops.empty())
        return result;
    const size_t shard_count = shards_.size();
    if (shard_count == 1) {
        std::lock_guard<std::mutex> guard(locks_[0]);
        return shards_[0].applyBatch(ops);
    }

    // Stable counting sort into shard runs: per-key order survives
    // (a key's ops all map to one shard, in batch order), and each
    // run is contiguous so the shard applies it as one KvStore batch.
    // Scratch is thread-local: each serving worker reuses its arrays
    // across batches instead of paying five allocations per call.
    static thread_local std::vector<uint32_t> shard_of;
    static thread_local std::vector<uint32_t> counts;
    static thread_local std::vector<uint32_t> offsets;
    static thread_local std::vector<uint32_t> fill;
    static thread_local std::vector<KvOp> grouped;
    shard_of.resize(ops.size());
    counts.assign(shard_count, 0);
    for (size_t i = 0; i < ops.size(); ++i) {
        shard_of[i] = shardOf(ops[i].key);
        ++counts[shard_of[i]];
    }
    offsets.resize(shard_count);
    uint32_t cursor = 0;
    for (size_t s = 0; s < shard_count; ++s) {
        offsets[s] = cursor;
        cursor += counts[s];
    }
    grouped.resize(ops.size());
    fill = offsets;
    for (size_t i = 0; i < ops.size(); ++i)
        grouped[fill[shard_of[i]]++] = ops[i];

    for (size_t s = 0; s < shard_count; ++s) {
        if (counts[s] == 0)
            continue;
        std::lock_guard<std::mutex> guard(locks_[s]);
        result.merge(shards_[s].applyBatch(
            std::span<const KvOp>(grouped.data() + offsets[s], counts[s])));
    }
    return result;
}

KvBatchResult
ShardedKvStore::applyShardBatch(unsigned shard, std::span<const KvOp> ops)
{
    std::lock_guard<std::mutex> guard(locks_[shard]);
    return shards_[shard].applyBatch(ops);
}

uint64_t
ShardedKvStore::size() const
{
    uint64_t total = 0;
    for (size_t i = 0; i < shards_.size(); ++i) {
        std::lock_guard<std::mutex> guard(locks_[i]);
        total += shards_[i].size();
    }
    return total;
}

uint64_t
ShardedKvStore::checksum() const
{
    // Per-slot terms are order-independent, so the sharded checksum
    // equals a single-shard store's checksum over the same pairs.
    uint64_t sum = 0;
    for (size_t i = 0; i < shards_.size(); ++i) {
        std::lock_guard<std::mutex> guard(locks_[i]);
        sum += shards_[i].checksum();
    }
    return sum;
}

std::vector<uint64_t>
ShardedKvStore::shardSizes() const
{
    std::vector<uint64_t> sizes;
    sizes.reserve(shards_.size());
    for (size_t i = 0; i < shards_.size(); ++i) {
        std::lock_guard<std::mutex> guard(locks_[i]);
        sizes.push_back(shards_[i].size());
    }
    return sizes;
}

void
ShardedKvStore::forEach(
    const std::function<void(uint64_t, uint64_t)> &visit) const
{
    for (size_t i = 0; i < shards_.size(); ++i) {
        std::lock_guard<std::mutex> guard(locks_[i]);
        shards_[i].forEach(visit);
    }
}

void
ShardedKvStore::setFlitTracker(util::FlitTracker *flit)
{
    for (KvStore &shard : shards_)
        shard.setFlitTracker(flit);
}

} // namespace wsp::apps
