#include "core/resume_block.h"

#include <array>

#include "core/salvage_directory.h"
#include "util/logging.h"

namespace wsp {

namespace {

/** Context slot size rounded up to whole cache lines. */
constexpr uint64_t
slotSize()
{
    const uint64_t raw = CpuContext::serializedSize();
    const uint64_t line = CacheModel::kLineSize;
    return (raw + line - 1) / line * line;
}

} // namespace

ResumeBlock::ResumeBlock(CacheModel &cache, uint64_t base, unsigned cores)
    : cache_(cache), base_(base), cores_(cores)
{
    WSP_CHECK(base % CacheModel::kLineSize == 0);
    WSP_CHECK(cores >= 1);
}

uint64_t
ResumeBlock::sizeFor(unsigned cores)
{
    return kHeaderSize + static_cast<uint64_t>(cores) * slotSize();
}

uint64_t
ResumeBlock::slotAddr(unsigned core) const
{
    WSP_CHECK(core < cores_);
    return base_ + kHeaderSize + static_cast<uint64_t>(core) * slotSize();
}

Tick
ResumeBlock::saveContext(unsigned core, const CpuContext &context)
{
    std::array<uint8_t, CpuContext::serializedSize()> image;
    context.serialize(image);
    const uint64_t addr = slotAddr(core);
    cache_.write(addr, image);

    Tick cost = 0;
    for (uint64_t off = 0; off < slotSize(); off += CacheModel::kLineSize)
        cost += cache_.flushLine(addr + off);
    return cost;
}

Tick
ResumeBlock::writeHeader(uint64_t boot_sequence)
{
    cache_.writeU64(base_, kMagic);
    cache_.writeU64(base_ + 8, cores_);
    cache_.writeU64(base_ + 16, boot_sequence);
    return cache_.flushLine(base_);
}

uint64_t
ResumeBlock::checksum(const NvramSpace &memory) const
{
    return SalvageDirectory::regionCrc(memory, base_, sizeFor(cores_));
}

CpuContext
ResumeBlock::loadContext(const NvramSpace &memory, unsigned core) const
{
    std::array<uint8_t, CpuContext::serializedSize()> image;
    memory.read(slotAddr(core), image);
    return CpuContext::deserialize(image);
}

uint64_t
ResumeBlock::bootSequence(const NvramSpace &memory) const
{
    if (memory.readU64(base_) != kMagic)
        return 0;
    return memory.readU64(base_ + 16);
}

} // namespace wsp
