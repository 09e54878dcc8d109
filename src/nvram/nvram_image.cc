#include "nvram/nvram_image.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "util/logging.h"

namespace wsp {

namespace {

/** "WSPIMG1\0" little-endian. */
constexpr uint64_t kImageMagic = 0x0031474d49505357ull;

bool
putU64(std::FILE *f, uint64_t value)
{
    uint8_t bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<uint8_t>(value >> (8 * i));
    return std::fwrite(bytes, 1, sizeof(bytes), f) == sizeof(bytes);
}

bool
getU64(std::FILE *f, uint64_t *value)
{
    uint8_t bytes[8];
    if (std::fread(bytes, 1, sizeof(bytes), f) != sizeof(bytes))
        return false;
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | bytes[i];
    *value = v;
    return true;
}

struct FileCloser
{
    void operator()(std::FILE *f) const
    {
        if (f != nullptr)
            std::fclose(f);
    }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

} // namespace

NvramImage
NvramImage::capture(const NvramSpace &space)
{
    NvramImage image;
    image.modules_.reserve(space.moduleCount());
    for (size_t i = 0; i < space.moduleCount(); ++i) {
        const NvdimmModule &module = space.module(i);
        WSP_CHECKF(!module.busy(),
                   "capture while %s is mid save/restore",
                   module.name().c_str());
        image.modules_.push_back(ModuleImage{
            module.cloneFlash(), module.flashValid(),
            module.flashGeneration(), module.epoch(),
            module.flashSavedBytes()});
    }
    return image;
}

void
NvramImage::adoptInto(NvramSpace &space) const
{
    WSP_CHECKF(space.moduleCount() == modules_.size(),
               "image has %zu modules, space has %zu", modules_.size(),
               space.moduleCount());
    for (size_t i = 0; i < modules_.size(); ++i)
        space.module(i).adoptFlashImage(
            modules_[i].flash, modules_[i].valid, modules_[i].generation,
            modules_[i].epoch, modules_[i].savedBytes);
}

bool
NvramImage::writeFile(const std::string &path) const
{
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        return false;
    if (!putU64(f.get(), kImageMagic) ||
        !putU64(f.get(), modules_.size()))
        return false;
    std::vector<uint8_t> page(SparseMemory::kPageSize);
    for (const ModuleImage &module : modules_) {
        // Collect the non-zero pages first so the page count can
        // precede them (a sparse image stays sparse on disk).
        std::vector<uint64_t> live;
        for (uint64_t p = 0; p < module.flash.totalPages(); ++p) {
            const uint64_t base = p * SparseMemory::kPageSize;
            const uint64_t len = std::min(
                SparseMemory::kPageSize, module.flash.capacity() - base);
            module.flash.read(base,
                              std::span<uint8_t>(page.data(), len));
            const bool zero = std::all_of(
                page.begin(), page.begin() + static_cast<long>(len),
                [](uint8_t b) { return b == 0; });
            if (!zero)
                live.push_back(p);
        }
        if (!putU64(f.get(), module.flash.capacity()) ||
            !putU64(f.get(), module.valid ? 1 : 0) ||
            !putU64(f.get(), module.generation) ||
            !putU64(f.get(), module.epoch) ||
            !putU64(f.get(), module.savedBytes) ||
            !putU64(f.get(), live.size()))
            return false;
        for (uint64_t p : live) {
            const uint64_t base = p * SparseMemory::kPageSize;
            const uint64_t len = std::min(
                SparseMemory::kPageSize, module.flash.capacity() - base);
            std::fill(page.begin(), page.end(), 0);
            module.flash.read(base,
                              std::span<uint8_t>(page.data(), len));
            if (!putU64(f.get(), p) ||
                std::fwrite(page.data(), 1, page.size(), f.get()) !=
                    page.size())
                return false;
        }
    }
    return std::fflush(f.get()) == 0;
}

std::optional<NvramImage>
NvramImage::readFile(const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        return std::nullopt;
    uint64_t magic = 0;
    uint64_t count = 0;
    if (!getU64(f.get(), &magic) || magic != kImageMagic ||
        !getU64(f.get(), &count) || count > 4096)
        return std::nullopt;
    NvramImage image;
    image.modules_.reserve(count);
    std::vector<uint8_t> page(SparseMemory::kPageSize);
    for (uint64_t m = 0; m < count; ++m) {
        uint64_t capacity = 0, valid = 0, generation = 0, epoch = 0;
        uint64_t saved_bytes = 0, pages = 0;
        if (!getU64(f.get(), &capacity) || !getU64(f.get(), &valid) ||
            !getU64(f.get(), &generation) || !getU64(f.get(), &epoch) ||
            !getU64(f.get(), &saved_bytes) || !getU64(f.get(), &pages))
            return std::nullopt;
        if (capacity == 0 ||
            pages > (capacity + SparseMemory::kPageSize - 1) /
                        SparseMemory::kPageSize)
            return std::nullopt;
        ModuleImage module{SparseMemory(capacity), valid != 0,
                           generation, epoch, saved_bytes};
        for (uint64_t i = 0; i < pages; ++i) {
            uint64_t p = 0;
            if (!getU64(f.get(), &p) ||
                std::fread(page.data(), 1, page.size(), f.get()) !=
                    page.size())
                return std::nullopt;
            const uint64_t base = p * SparseMemory::kPageSize;
            if (base >= capacity)
                return std::nullopt;
            const uint64_t len =
                std::min(SparseMemory::kPageSize, capacity - base);
            module.flash.write(
                base, std::span<const uint8_t>(page.data(), len));
        }
        image.modules_.push_back(std::move(module));
    }
    return image;
}

} // namespace wsp
