#include "core/salvage_directory.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <span>

#include "util/checksum.h"
#include "util/logging.h"

namespace wsp {

namespace {

// Entry layout (kEntryBytes = 64):
//   [ 0, 24) region name, zero padded
//   [24, 32) base
//   [32, 40) size
//   [40, 48) content CRC64
//   [48, 56) tier (low byte) | saved flag (bit 8)
//   [56, 64) entry checksum over [0, 56)
constexpr uint64_t kOffName = 0;
constexpr uint64_t kOffBase = 24;
constexpr uint64_t kOffSize = 32;
constexpr uint64_t kOffCrc = 40;
constexpr uint64_t kOffFlags = 48;
constexpr uint64_t kOffEntryCrc = 56;

// Header layout (kHeaderBytes = 64):
//   [ 0,  8) magic  [ 8, 16) generation  [16, 24) count
//   [24, 32) tier cut  [32, 40) entries-checksum
//   [40, 48) header checksum over the five fields above
constexpr uint64_t kOffMagic = 0;
constexpr uint64_t kOffGeneration = 8;
constexpr uint64_t kOffCount = 16;
constexpr uint64_t kOffTierCut = 24;
constexpr uint64_t kOffEntriesChecksum = 32;
constexpr uint64_t kOffHeaderCrc = 40;

uint64_t
readField(std::span<const uint8_t> bytes, uint64_t off)
{
    uint64_t value = 0;
    std::memcpy(&value, bytes.data() + off, sizeof(value));
    return value;
}

void
writeField(std::span<uint8_t> bytes, uint64_t off, uint64_t value)
{
    std::memcpy(bytes.data() + off, &value, sizeof(value));
}

uint64_t
headerChecksum(uint64_t generation, uint64_t count, uint64_t tier_cut,
               uint64_t entries_checksum)
{
    uint64_t crc = fnv1aU64(SalvageDirectory::kHeaderBytes);
    crc = fnv1aU64(generation, crc);
    crc = fnv1aU64(count, crc);
    crc = fnv1aU64(tier_cut, crc);
    return fnv1aU64(entries_checksum, crc);
}

} // namespace

SalvageDirectory::SalvageDirectory(CacheModel &cache, uint64_t base)
    : cache_(cache), base_(base)
{
    WSP_CHECK(base % CacheModel::kLineSize == 0);
}

void
SalvageDirectory::registerRegion(SalvageRegionSpec spec)
{
    WSP_CHECKF(regions_.size() < kMaxRegions,
               "salvage directory full (%zu regions)", kMaxRegions);
    WSP_CHECKF(spec.size > 0, "salvage region '%s' is empty",
               spec.name.c_str());
    WSP_CHECKF(spec.name.size() <= kMaxNameBytes,
               "salvage region name '%s' exceeds %zu bytes",
               spec.name.c_str(), kMaxNameBytes);
    WSP_CHECKF(spec.base + spec.size <= base_ ||
                   spec.base >= base_ + kSize,
               "salvage region '%s' overlaps the directory itself",
               spec.name.c_str());
    for (const SalvageRegionSpec &other : regions_) {
        WSP_CHECKF(spec.base + spec.size <= other.base ||
                       spec.base >= other.base + other.size,
                   "salvage regions '%s' and '%s' overlap",
                   spec.name.c_str(), other.name.c_str());
        WSP_CHECKF(spec.name != other.name,
                   "duplicate salvage region name '%s'", spec.name.c_str());
    }
    regions_.push_back(std::move(spec));
}

uint64_t
SalvageDirectory::regionLines(SaveTier cut) const
{
    uint64_t lines = 0;
    for (const SalvageRegionSpec &region : regions_) {
        if (region.tier > cut)
            continue;
        const uint64_t first = region.base / CacheModel::kLineSize;
        const uint64_t last =
            (region.base + region.size - 1) / CacheModel::kLineSize;
        lines += last - first + 1;
    }
    return lines;
}

uint64_t
SalvageDirectory::savedBytes(SaveTier cut) const
{
    uint64_t bytes = 0;
    for (const SalvageRegionSpec &region : regions_) {
        if (region.tier <= cut)
            bytes += region.size;
    }
    return bytes;
}

uint64_t
SalvageDirectory::regionCrc(const NvramSpace &memory, uint64_t base,
                            uint64_t size)
{
    // Left unfilled: read() writes every byte of each chunk it is
    // handed, and the CRC reads only those.
    std::array<uint8_t, 16 * 1024> buffer;
    uint64_t crc = 0;
    for (uint64_t offset = 0; offset < size;) {
        const auto chunk = std::span<uint8_t>(buffer).first(
            std::min<uint64_t>(size - offset, buffer.size()));
        memory.read(base + offset, chunk);
        crc = crc64(chunk, crc);
        offset += chunk.size();
    }
    return crc;
}

uint64_t
SalvageDirectory::persist(const NvramSpace &memory, uint64_t generation,
                          SaveTier cut)
{
    uint64_t entries_checksum = fnv1aU64(regions_.size());
    for (size_t i = 0; i < regions_.size(); ++i) {
        const SalvageRegionSpec &region = regions_[i];
        const bool saved = region.tier <= cut;
        std::array<uint8_t, kEntryBytes> entry{};
        std::memcpy(entry.data() + kOffName, region.name.data(),
                    region.name.size());
        writeField(entry, kOffBase, region.base);
        writeField(entry, kOffSize, region.size);
        writeField(entry, kOffCrc,
                   saved ? regionCrc(memory, region.base, region.size) : 0);
        writeField(entry, kOffFlags,
                   static_cast<uint64_t>(region.tier) |
                       (saved ? 0x100ull : 0));
        const uint64_t entry_crc =
            fnv1a(std::span<const uint8_t>(entry).first(kOffEntryCrc));
        writeField(entry, kOffEntryCrc, entry_crc);
        entries_checksum = fnv1aU64(entry_crc, entries_checksum);
        cache_.write(base_ + kHeaderBytes + i * kEntryBytes, entry);
    }

    std::array<uint8_t, kHeaderBytes> header{};
    writeField(header, kOffMagic, kMagic);
    writeField(header, kOffGeneration, generation);
    writeField(header, kOffCount, regions_.size());
    writeField(header, kOffTierCut, static_cast<uint64_t>(cut));
    writeField(header, kOffEntriesChecksum, entries_checksum);
    writeField(header, kOffHeaderCrc,
               headerChecksum(generation, regions_.size(),
                              static_cast<uint64_t>(cut), entries_checksum));
    cache_.write(base_, header);

    for (uint64_t off = 0;
         off < kHeaderBytes + regions_.size() * kEntryBytes;
         off += CacheModel::kLineSize)
        cache_.flushLine(base_ + off);
    return entries_checksum;
}

std::optional<SalvageDirectoryImage>
SalvageDirectory::read(const NvramSpace &memory, uint64_t base)
{
    std::array<uint8_t, kHeaderBytes> header;
    memory.read(base, header);
    if (readField(header, kOffMagic) != kMagic)
        return std::nullopt;

    SalvageDirectoryImage image;
    image.generation = readField(header, kOffGeneration);
    const uint64_t count = readField(header, kOffCount);
    const uint64_t tier_cut = readField(header, kOffTierCut);
    image.checksum = readField(header, kOffEntriesChecksum);
    if (count > kMaxRegions ||
        tier_cut > static_cast<uint64_t>(SaveTier::Bulk))
        return std::nullopt;
    image.tierCut = static_cast<SaveTier>(tier_cut);
    if (readField(header, kOffHeaderCrc) !=
        headerChecksum(image.generation, count, tier_cut, image.checksum))
        return std::nullopt;

    uint64_t entries_checksum = fnv1aU64(count);
    image.entries.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
        std::array<uint8_t, kEntryBytes> entry;
        memory.read(base + kHeaderBytes + i * kEntryBytes, entry);
        const uint64_t entry_crc = readField(entry, kOffEntryCrc);
        if (entry_crc !=
            fnv1a(std::span<const uint8_t>(entry).first(kOffEntryCrc)))
            return std::nullopt;
        entries_checksum = fnv1aU64(entry_crc, entries_checksum);

        SalvageDirectoryEntry decoded;
        const char *name =
            reinterpret_cast<const char *>(entry.data() + kOffName);
        decoded.name.assign(name, strnlen(name, kMaxNameBytes));
        decoded.base = readField(entry, kOffBase);
        decoded.size = readField(entry, kOffSize);
        decoded.crc = readField(entry, kOffCrc);
        const uint64_t flags = readField(entry, kOffFlags);
        if ((flags & 0xff) > static_cast<uint64_t>(SaveTier::Bulk))
            return std::nullopt;
        decoded.tier = static_cast<SaveTier>(flags & 0xff);
        decoded.saved = (flags & 0x100) != 0;
        if (decoded.size == 0 || decoded.size > memory.capacity() ||
            decoded.base > memory.capacity() - decoded.size)
            return std::nullopt;
        image.entries.push_back(std::move(decoded));
    }
    if (entries_checksum != image.checksum)
        return std::nullopt;
    return image;
}

} // namespace wsp
