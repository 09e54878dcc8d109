#include "nvram/sparse_memory.h"

#include <cstring>

#include "util/logging.h"

namespace wsp {

SparseMemory::SparseMemory(uint64_t capacity) : capacity_(capacity)
{
    WSP_CHECK(capacity_ > 0);
    chunks_.resize((totalPages() + kPagesPerChunk - 1) / kPagesPerChunk);
}

const uint8_t *
SparseMemory::pageData(uint64_t page_index) const
{
    const auto &chunk = chunks_[page_index / kPagesPerChunk];
    if (!chunk)
        return nullptr;
    return chunk->pages[page_index % kPagesPerChunk].get();
}

SparseMemory::Page &
SparseMemory::slotForWrite(uint64_t page_index)
{
    auto &chunk = chunks_[page_index / kPagesPerChunk];
    if (!chunk)
        chunk = std::make_unique<Chunk>();
    return chunk->pages[page_index % kPagesPerChunk];
}

uint8_t *
SparseMemory::pageForWrite(uint64_t page_index)
{
    Page &slot = slotForWrite(page_index);
    if (!slot) {
        slot = Page(new uint8_t[kPageSize]);
        // After content loss, pages come back as poison rather than
        // zero: only explicitly rewritten bytes are trustworthy.
        std::memset(slot.get(), poisoned_ ? kPoisonByte : 0, kPageSize);
        ++chunks_[page_index / kPagesPerChunk]->used;
        ++pageCount_;
    } else if (slot.use_count() > 1) {
        // Shared with a snapshot: clone before the write lands.
        Page clone(new uint8_t[kPageSize]);
        std::memcpy(clone.get(), slot.get(), kPageSize);
        slot = std::move(clone);
    }
    return slot.get();
}

void
SparseMemory::erasePage(uint64_t page_index)
{
    auto &chunk = chunks_[page_index / kPagesPerChunk];
    if (!chunk)
        return;
    Page &slot = chunk->pages[page_index % kPagesPerChunk];
    if (!slot)
        return;
    slot.reset();
    --pageCount_;
    if (--chunk->used == 0)
        chunk.reset();
}

void
SparseMemory::sharePage(uint64_t page_index, const Page &src)
{
    Page &slot = slotForWrite(page_index);
    if (!slot) {
        ++chunks_[page_index / kPagesPerChunk]->used;
        ++pageCount_;
    }
    slot = src;
}

void
SparseMemory::markDirty(uint64_t page_index)
{
    if (allDirty_)
        return; // no baseline open; everything already counts dirty
    uint64_t &word = dirtyBits_[page_index / 64];
    const uint64_t bit = 1ull << (page_index % 64);
    if (!(word & bit)) {
        word |= bit;
        ++dirtyCount_;
    }
}

void
SparseMemory::resetDirty()
{
    dirtyBits_.assign((totalPages() + 63) / 64, 0);
    dirtyCount_ = 0;
    allDirty_ = false;
    ++dirtyEpoch_;
}

std::vector<uint64_t>
SparseMemory::dirtyPagesDescending() const
{
    WSP_CHECK(!allDirty_);
    std::vector<uint64_t> pages;
    pages.reserve(dirtyCount_);
    for (size_t w = dirtyBits_.size(); w-- > 0;) {
        uint64_t word = dirtyBits_[w];
        while (word != 0) {
            const int bit = 63 - __builtin_clzll(word);
            pages.push_back(w * 64 + static_cast<uint64_t>(bit));
            word &= ~(1ull << bit);
        }
    }
    return pages;
}

void
SparseMemory::read(uint64_t addr, std::span<uint8_t> out) const
{
    WSP_CHECKF(addr + out.size() <= capacity_,
               "read [%llu, %llu) beyond capacity %llu",
               static_cast<unsigned long long>(addr),
               static_cast<unsigned long long>(addr + out.size()),
               static_cast<unsigned long long>(capacity_));
    size_t done = 0;
    while (done < out.size()) {
        const uint64_t cur = addr + done;
        const uint64_t page_index = cur / kPageSize;
        const uint64_t offset = cur % kPageSize;
        const size_t chunk = static_cast<size_t>(
            std::min<uint64_t>(kPageSize - offset, out.size() - done));
        const uint8_t *page = pageData(page_index);
        if (page != nullptr) {
            std::memcpy(out.data() + done, page + offset, chunk);
        } else {
            std::memset(out.data() + done,
                        poisoned_ ? kPoisonByte : 0, chunk);
        }
        done += chunk;
    }
}

void
SparseMemory::write(uint64_t addr, std::span<const uint8_t> data)
{
    WSP_CHECKF(addr + data.size() <= capacity_,
               "write [%llu, %llu) beyond capacity %llu",
               static_cast<unsigned long long>(addr),
               static_cast<unsigned long long>(addr + data.size()),
               static_cast<unsigned long long>(capacity_));
    size_t done = 0;
    while (done < data.size()) {
        const uint64_t cur = addr + done;
        const uint64_t page_index = cur / kPageSize;
        const uint64_t offset = cur % kPageSize;
        const size_t chunk = static_cast<size_t>(
            std::min<uint64_t>(kPageSize - offset, data.size() - done));
        std::memcpy(pageForWrite(page_index) + offset, data.data() + done,
                    chunk);
        markDirty(page_index);
        done += chunk;
    }
}

uint64_t
SparseMemory::readU64(uint64_t addr) const
{
    uint8_t bytes[8];
    read(addr, bytes);
    uint64_t value = 0;
    for (int i = 7; i >= 0; --i)
        value = (value << 8) | bytes[i];
    return value;
}

void
SparseMemory::writeU64(uint64_t addr, uint64_t value)
{
    uint8_t bytes[8];
    for (auto &byte : bytes) {
        byte = static_cast<uint8_t>(value & 0xff);
        value >>= 8;
    }
    write(addr, bytes);
}

void
SparseMemory::clear()
{
    for (auto &chunk : chunks_)
        chunk.reset();
    pageCount_ = 0;
    poisoned_ = false;
    allDirty_ = true; // wholesale change invalidates any baseline
}

void
SparseMemory::poison()
{
    // Dropping the pages and setting the flag makes every byte read as
    // poison until rewritten.
    for (auto &chunk : chunks_)
        chunk.reset();
    pageCount_ = 0;
    poisoned_ = true;
    allDirty_ = true;
}

SparseMemory
SparseMemory::snapshot() const
{
    SparseMemory copy(capacity_);
    copy.poisoned_ = poisoned_;
    copy.pageCount_ = pageCount_;
    for (size_t i = 0; i < chunks_.size(); ++i) {
        if (chunks_[i])
            copy.chunks_[i] = std::make_unique<Chunk>(*chunks_[i]);
    }
    return copy;
}

void
SparseMemory::restoreFrom(const SparseMemory &image)
{
    WSP_CHECK(image.capacity_ == capacity_);
    for (size_t i = 0; i < chunks_.size(); ++i) {
        chunks_[i] = image.chunks_[i]
                         ? std::make_unique<Chunk>(*image.chunks_[i])
                         : nullptr;
    }
    pageCount_ = image.pageCount_;
    poisoned_ = image.poisoned_;
    allDirty_ = true; // caller resets once flash and DRAM agree
}

void
SparseMemory::copyRangeFrom(const SparseMemory &src, uint64_t addr,
                            uint64_t len)
{
    WSP_CHECKF(addr + len <= capacity_ && addr + len <= src.capacity_,
               "copyRangeFrom [%llu, %llu) beyond capacity",
               static_cast<unsigned long long>(addr),
               static_cast<unsigned long long>(addr + len));
    // A poisoned destination has no meaningful "rest of the page" to
    // preserve; the flash side this primitive serves is never poisoned.
    WSP_CHECK(!poisoned_);
    while (len > 0) {
        const uint64_t page_index = addr / kPageSize;
        const uint64_t offset = addr % kPageSize;
        const uint64_t chunk =
            std::min<uint64_t>(kPageSize - offset, len);
        const uint8_t *src_page = src.pageData(page_index);
        if (src_page != nullptr) {
            if (chunk == kPageSize) {
                // Whole page: adopt the source page by reference; a
                // later write to either side clones first.
                const auto &src_chunk =
                    src.chunks_[page_index / kPagesPerChunk];
                sharePage(page_index,
                          src_chunk->pages[page_index % kPagesPerChunk]);
            } else {
                std::memcpy(pageForWrite(page_index) + offset,
                            src_page + offset, chunk);
            }
            markDirty(page_index);
        } else if (src.poisoned_) {
            std::memset(pageForWrite(page_index) + offset, kPoisonByte,
                        chunk);
            markDirty(page_index);
        } else if (pageData(page_index) != nullptr) {
            // Source reads as zero there; make the destination match
            // without allocating.
            if (chunk == kPageSize)
                erasePage(page_index);
            else
                std::memset(pageForWrite(page_index) + offset, 0, chunk);
            markDirty(page_index);
        }
        addr += chunk;
        len -= chunk;
    }
}

bool
SparseMemory::contentEquals(const SparseMemory &other) const
{
    if (capacity_ != other.capacity_)
        return false;
    return rangeEquals(other, 0, capacity_);
}

namespace {

/** True when all @p n bytes at @p bytes equal @p fill. */
bool
allBytesAre(const uint8_t *bytes, size_t n, uint8_t fill)
{
    // Every byte equals the first exactly when the range equals itself
    // shifted by one byte.
    return n == 0 ||
           (bytes[0] == fill && std::memcmp(bytes, bytes + 1, n - 1) == 0);
}

} // namespace

bool
SparseMemory::rangeEquals(const SparseMemory &other, uint64_t addr,
                          uint64_t len) const
{
    WSP_CHECKF(addr + len <= capacity_ && addr + len <= other.capacity_,
               "rangeEquals [%llu, %llu) beyond capacity",
               static_cast<unsigned long long>(addr),
               static_cast<unsigned long long>(addr + len));
    // An absent page reads as its memory's fill byte (poison or zero),
    // so a chunk neither side holds compares as the two fills alone.
    // In a chunk either side holds, a shared page (or two gaps)
    // compares by pointer, two held pages by memcmp, and a page held
    // on one side only against the other side's fill.
    const uint8_t fill_here = poisoned_ ? kPoisonByte : 0;
    const uint8_t fill_there = other.poisoned_ ? kPoisonByte : 0;
    constexpr uint64_t kChunkBytes = kPagesPerChunk * kPageSize;
    const uint64_t end = addr + len;
    while (addr < end) {
        const uint64_t chunk_index = addr / kChunkBytes;
        const uint64_t chunk_end =
            std::min(end, (chunk_index + 1) * kChunkBytes);
        const Chunk *here = chunks_[chunk_index].get();
        const Chunk *there = other.chunks_[chunk_index].get();
        if (here == nullptr && there == nullptr) {
            if (fill_here != fill_there)
                return false;
            addr = chunk_end;
            continue;
        }
        while (addr < chunk_end) {
            const uint64_t slot = addr / kPageSize % kPagesPerChunk;
            const uint64_t offset = addr % kPageSize;
            const size_t n = static_cast<size_t>(
                std::min(kPageSize - offset, chunk_end - addr));
            const uint8_t *a =
                here != nullptr ? here->pages[slot].get() : nullptr;
            const uint8_t *b =
                there != nullptr ? there->pages[slot].get() : nullptr;
            if (a == b) {
                if (a == nullptr && fill_here != fill_there)
                    return false;
            } else if (a != nullptr && b != nullptr) {
                if (std::memcmp(a + offset, b + offset, n) != 0)
                    return false;
            } else if (a != nullptr) {
                if (!allBytesAre(a + offset, n, fill_there))
                    return false;
            } else if (!allBytesAre(b + offset, n, fill_here)) {
                return false;
            }
            addr += n;
        }
    }
    return true;
}

} // namespace wsp
