#include "machine/cache.h"

#include <algorithm>
#include <cstring>

#include "trace/stat_registry.h"
#include "util/logging.h"

namespace wsp {

CacheModel::CacheModel(std::string name, uint64_t capacity_bytes,
                       CacheTiming timing, NvramSpace &memory)
    : name_(std::move(name)), capacity_(capacity_bytes), timing_(timing),
      memory_(memory)
{
    WSP_CHECK(capacity_ >= kLineSize);
    WSP_CHECK(capacity_ % kLineSize == 0);
    WSP_CHECK(timing_.memoryBwBytesPerSec > 0.0);
    flatTable_.assign(256, FlatProbe{});
    flatDirHeads_.assign(flatDirWays_, kNoSlot);
    flatDirCounts_.assign(flatDirWays_, 0);
}

// Line store -----------------------------------------------------------

void
CacheModel::flatTableInsert(uint64_t base, uint32_t slot)
{
    const size_t mask = flatTable_.size() - 1;
    size_t index = flatHash(base, mask);
    while (flatTable_[index].slot != kNoSlot)
        index = (index + 1) & mask;
    flatTable_[index] = FlatProbe{base, slot};
    if (base - regionBase_ < regionSpan_)
        regionSlots_[(base - regionBase_) >> 6] = slot;
}

void
CacheModel::flatTableErase(uint64_t base)
{
    if (base - regionBase_ < regionSpan_)
        regionSlots_[(base - regionBase_) >> 6] = kNoSlot;
    const size_t mask = flatTable_.size() - 1;
    size_t index = flatHash(base, mask);
    while (flatTable_[index].base != base ||
           flatTable_[index].slot == kNoSlot) {
        WSP_CHECK(flatTable_[index].slot != kNoSlot);
        index = (index + 1) & mask;
    }
    // Backshift deletion keeps every probe chain gapless, so lookups
    // never need tombstone checks: pull forward any entry whose home
    // position reaches the hole.
    size_t hole = index;
    size_t probe = hole;
    for (;;) {
        probe = (probe + 1) & mask;
        const FlatProbe &candidate = flatTable_[probe];
        if (candidate.slot == kNoSlot)
            break;
        const size_t home = flatHash(candidate.base, mask);
        if (((probe - home) & mask) >= ((probe - hole) & mask)) {
            flatTable_[hole] = candidate;
            hole = probe;
        }
    }
    flatTable_[hole] = FlatProbe{};
}

void
CacheModel::flatTableGrow()
{
    std::vector<FlatProbe> old = std::move(flatTable_);
    flatTable_.assign(old.size() * 2, FlatProbe{});
    for (const FlatProbe &probe : old) {
        if (probe.slot != kNoSlot)
            flatTableInsert(probe.base, probe.slot);
    }
}

uint32_t
CacheModel::flatAcquire(uint64_t base)
{
    if (dirtyBytes() >= capacity_) {
        // Evict the least recently written line first.
        WSP_CHECK(lruTail_ != kNoSlot);
        flatWriteBack(lruTail_);
    }
    // Keep the table under 0.7 load so probe chains stay short.
    if ((flatLive_ + 1) * 10 > flatTable_.size() * 7)
        flatTableGrow();

    uint32_t slot;
    if (flatFree_ != kNoSlot) {
        slot = flatFree_;
        flatFree_ = flatLines_[slot].lruNext;
    } else {
        slot = static_cast<uint32_t>(flatLines_.size());
        flatLines_.emplace_back();
    }
    FlatLine &line = flatLines_[slot];
    line.base = base;
    // A new dirty line starts from the memory image (partial-line
    // writes must preserve the other bytes).
    memory_.read(base, std::span<uint8_t>(line.data, kLineSize));
    // Link at the LRU head: most recently written.
    line.lruPrev = kNoSlot;
    line.lruNext = lruHead_;
    if (lruHead_ != kNoSlot)
        flatLines_[lruHead_].lruPrev = slot;
    lruHead_ = slot;
    if (lruTail_ == kNoSlot)
        lruTail_ = slot;
    flatDirInsert(slot);
    flatTableInsert(base, slot);
    ++flatLive_;
    return slot;
}

void
CacheModel::flatWriteBack(uint32_t slot)
{
    FlatLine &line = flatLines_[slot];
    const uint64_t base = line.base;
    memory_.write(base, std::span<const uint8_t>(line.data, kLineSize));
    // Unlink from the LRU order.
    if (line.lruPrev != kNoSlot)
        flatLines_[line.lruPrev].lruNext = line.lruNext;
    else
        lruHead_ = line.lruNext;
    if (line.lruNext != kNoSlot)
        flatLines_[line.lruNext].lruPrev = line.lruPrev;
    else
        lruTail_ = line.lruPrev;
    flatDirErase(slot);
    flatTableErase(base);
    // Recycle through the free chain (threaded via lruNext).
    line.lruNext = flatFree_;
    flatFree_ = slot;
    --flatLive_;
    if (writebackObserver_)
        writebackObserver_(base, /*lost=*/false);
}

void
CacheModel::registerRegionView(uint64_t base, uint64_t bytes)
{
    const uint64_t region_base = base & ~(kLineSize - 1);
    const uint64_t region_span =
        (base - region_base + bytes + kLineSize - 1) & ~(kLineSize - 1);
    // The same region is already current: the insert/erase funnel and
    // dropDirty have kept its slots in step, so there is nothing to
    // adopt and the LRU walk below can be skipped.
    if (region_base == regionBase_ && region_span == regionSpan_)
        return;
    regionBase_ = region_base;
    regionSpan_ = region_span;
    regionSlots_.assign(regionSpan_ / kLineSize, kNoSlot);
    // Adopt lines already dirty inside the region (the LRU chain
    // enumerates every live slot).
    for (uint32_t slot = lruHead_; slot != kNoSlot;
         slot = flatLines_[slot].lruNext) {
        const uint64_t line = flatLines_[slot].base;
        if (line - regionBase_ < regionSpan_)
            regionSlots_[(line - regionBase_) >> 6] = slot;
    }
}

void
CacheModel::ensureFlatDirectory(unsigned workers) const
{
    WSP_CHECK(workers >= 1);
    if (workers == flatDirWays_)
        return;
    // One O(dirty) re-bucketing per way-count change; the flush paths
    // then query and drain their own bucket without scanning. The LRU
    // chain enumerates every live slot.
    flatDirWays_ = workers;
    flatDirHeads_.assign(workers, kNoSlot);
    flatDirCounts_.assign(workers, 0);
    for (uint32_t slot = lruHead_; slot != kNoSlot;
         slot = flatLines_[slot].lruNext)
        flatDirInsert(slot);
}

void
CacheModel::flatDirInsert(uint32_t slot) const
{
    FlatLine &line = flatLines_[slot];
    const unsigned w = workerOf(line.base, flatDirWays_);
    line.dirPrev = kNoSlot;
    line.dirNext = flatDirHeads_[w];
    if (line.dirNext != kNoSlot)
        flatLines_[line.dirNext].dirPrev = slot;
    flatDirHeads_[w] = slot;
    ++flatDirCounts_[w];
}

void
CacheModel::flatDirErase(uint32_t slot) const
{
    FlatLine &line = flatLines_[slot];
    const unsigned w = workerOf(line.base, flatDirWays_);
    if (line.dirPrev != kNoSlot)
        flatLines_[line.dirPrev].dirNext = line.dirNext;
    else
        flatDirHeads_[w] = line.dirNext;
    if (line.dirNext != kNoSlot)
        flatLines_[line.dirNext].dirPrev = line.dirPrev;
    --flatDirCounts_[w];
}

// Access ---------------------------------------------------------------

void
CacheModel::read(uint64_t addr, std::span<uint8_t> out) const
{
    // Consecutive clean lines are served by one NVRAM read (a run is
    // flushed when a dirty line interrupts it or the span ends), so a
    // multi-line scan of a restored, all-clean region costs one memory
    // read instead of one per line. A read within one line still does
    // one lookup and one copy or memory read.
    size_t done = 0;
    size_t clean = 0; ///< bytes of the pending clean run, ending at done
    while (done < out.size()) {
        const uint64_t cur = addr + done;
        const uint64_t base = lineBase(cur);
        const uint64_t offset = cur - base;
        const size_t chunk = static_cast<size_t>(
            std::min<uint64_t>(kLineSize - offset, out.size() - done));
        const uint32_t slot = flatFind(base);
        if (slot != kNoSlot) {
            if (clean > 0) {
                memory_.read(cur - clean, out.subspan(done - clean, clean));
                clean = 0;
            }
            std::memcpy(out.data() + done, flatLines_[slot].data + offset,
                        chunk);
        } else {
            clean += chunk;
        }
        done += chunk;
    }
    if (clean > 0)
        memory_.read(addr + done - clean, out.subspan(done - clean, clean));
}

void
CacheModel::write(uint64_t addr, std::span<const uint8_t> data)
{
    size_t done = 0;
    while (done < data.size()) {
        const uint64_t cur = addr + done;
        const uint64_t base = lineBase(cur);
        const uint64_t offset = cur - base;
        const size_t chunk = static_cast<size_t>(
            std::min<uint64_t>(kLineSize - offset, data.size() - done));
        uint32_t slot = flatFind(base);
        if (slot != kNoSlot)
            touchLru(slot);
        else
            slot = flatAcquire(base);
        std::memcpy(flatLines_[slot].data + offset, data.data() + done,
                    chunk);
        done += chunk;
    }
}

uint64_t
CacheModel::readU64Slow(uint64_t addr) const
{
    uint8_t bytes[8];
    read(addr, bytes);
    uint64_t value = 0;
    for (int i = 7; i >= 0; --i)
        value = (value << 8) | bytes[i];
    return value;
}

void
CacheModel::writeU64Slow(uint64_t addr, uint64_t value)
{
    uint8_t bytes[8];
    for (auto &byte : bytes) {
        byte = static_cast<uint8_t>(value & 0xff);
        value >>= 8;
    }
    write(addr, bytes);
}

Tick
CacheModel::flushLine(uint64_t addr)
{
    const uint32_t slot = flatFind(lineBase(addr));
    if (slot != kNoSlot)
        flatWriteBack(slot);
    return timing_.clflushPerLine;
}

Tick
CacheModel::clflushLoopCost(uint64_t lines) const
{
    return timing_.clflushPerLine * lines;
}

Tick
CacheModel::wbinvdCost() const
{
    // The microcode walk dominates; only a small fraction of the dirty
    // write-back traffic is exposed beyond it (hence Fig. 8's flat
    // curves).
    const double exposed = timing_.wbinvdDirtyExposure *
                           static_cast<double>(dirtyBytes()) /
                           timing_.memoryBwBytesPerSec;
    return timing_.wbinvdFixed + fromSeconds(exposed);
}

Tick
CacheModel::wbinvd()
{
    const Tick cost = wbinvdCost();
    static trace::Counter &wbinvd_count =
        trace::StatRegistry::instance().counter("machine.wbinvd_count");
    static trace::Counter &wbinvd_dirty_bytes =
        trace::StatRegistry::instance().counter("machine.wbinvd_dirty_bytes");
    wbinvd_count.add();
    wbinvd_dirty_bytes.add(dirtyBytes());
    // Write back everything, least recently written first. The order
    // is irrelevant to the memory image, but it is what the write-back
    // observer sees.
    while (lruTail_ != kNoSlot)
        flatWriteBack(lruTail_);
    return cost;
}

size_t
CacheModel::partitionDirtyLines(unsigned worker, unsigned workers) const
{
    WSP_CHECK(workers >= 1 && worker < workers);
    ensureFlatDirectory(workers);
    return flatDirCounts_[worker];
}

Tick
CacheModel::partitionFlushCost(unsigned worker, unsigned workers) const
{
    const auto lines =
        static_cast<uint64_t>(partitionDirtyLines(worker, workers));
    // The clflush issue walk and the write-back traffic overlap
    // poorly when every line is dirty, so both terms are charged.
    const double writeback = static_cast<double>(lines * kLineSize) /
                             timing_.memoryBwBytesPerSec;
    return timing_.partitionFlushFixed + timing_.clflushPerLine * lines +
           fromSeconds(writeback);
}

Tick
CacheModel::parallelFlushCost(unsigned workers) const
{
    Tick worst = 0;
    for (unsigned w = 0; w < workers; ++w)
        worst = std::max(worst, partitionFlushCost(w, workers));
    return worst;
}

void
CacheModel::flushPartition(unsigned worker, unsigned workers)
{
    WSP_CHECK(workers >= 1 && worker < workers);
    ensureFlatDirectory(workers);
    const size_t flushed = flatDirCounts_[worker];
    // flatWriteBack unlinks the head as it drains the bucket.
    while (flatDirHeads_[worker] != kNoSlot)
        flatWriteBack(flatDirHeads_[worker]);
    static trace::Counter &partition_flushes =
        trace::StatRegistry::instance().counter("machine.partition_flushes");
    static trace::Counter &partition_flush_lines =
        trace::StatRegistry::instance().counter(
            "machine.partition_flush_lines");
    partition_flushes.add();
    partition_flush_lines.add(flushed);
}

Tick
CacheModel::theoreticalBestCost() const
{
    return fromSeconds(static_cast<double>(capacity_) /
                       timing_.memoryBwBytesPerSec);
}

void
CacheModel::fillDirty(uint64_t base, uint64_t bytes, Rng &rng)
{
    WSP_CHECKF(bytes <= capacity_,
               "fillDirty %llu B exceeds cache capacity %llu B",
               static_cast<unsigned long long>(bytes),
               static_cast<unsigned long long>(capacity_));
    std::vector<uint8_t> pattern(kLineSize);
    for (uint64_t off = 0; off < bytes; off += kLineSize) {
        const size_t chunk = static_cast<size_t>(
            std::min<uint64_t>(kLineSize, bytes - off));
        for (size_t i = 0; i < chunk; ++i)
            pattern[i] = static_cast<uint8_t>(rng());
        write(base + off, std::span<const uint8_t>(pattern.data(), chunk));
    }
}

void
CacheModel::dropDirty()
{
    if (writebackObserver_) {
        for (uint32_t slot = lruHead_; slot != kNoSlot;
             slot = flatLines_[slot].lruNext)
            writebackObserver_(flatLines_[slot].base, /*lost=*/true);
    }
    flatLines_.clear();
    flatTable_.assign(flatTable_.size(), FlatProbe{});
    flatFree_ = kNoSlot;
    flatLive_ = 0;
    lruHead_ = lruTail_ = kNoSlot;
    flatDirHeads_.assign(flatDirWays_, kNoSlot);
    flatDirCounts_.assign(flatDirWays_, 0);
    regionSlots_.assign(regionSlots_.size(), kNoSlot);
}

} // namespace wsp
