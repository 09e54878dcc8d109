/**
 * @file
 * Property tests for the hardware substrates: the cache model against
 * a flat-memory reference under random operation streams, and
 * parameterized NVDIMM save/restore sweeps over module geometries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "machine/cache.h"
#include "nvram/controller.h"
#include "nvram/nvdimm.h"
#include "nvram/nvram_space.h"
#include "util/rng.h"

namespace wsp {
namespace {

// Cache model fuzz -------------------------------------------------------

/**
 * Reference model: a plain byte array. The cache + NVRAM composite
 * must read back exactly what the reference holds, under any mix of
 * cached writes, line flushes, wbinvd, and capacity evictions. Reads
 * are short (1-16 bytes) or span up to eight lines, half of them
 * around the last write, so runs of clean lines between dirty ones
 * (served by one NVRAM read each) are checked byte for byte.
 */
TEST(CacheFuzz, MatchesFlatMemoryUnderRandomOps)
{
    Rng rng(0xcac4e);
    constexpr size_t kMaxSpan = 8 * CacheModel::kLineSize;
    for (int trial = 0; trial < 10; ++trial) {
        EventQueue queue;
        NvdimmConfig dimm_config;
        dimm_config.capacityBytes = 256 * kKiB;
        NvdimmModule dimm(queue, "d", dimm_config);
        NvramSpace space;
        space.addModule(dimm);
        // A tiny cache forces constant evictions.
        CacheModel cache("c", 8 * CacheModel::kLineSize, CacheTiming{},
                         space);

        std::vector<uint8_t> reference(dimm_config.capacityBytes, 0);
        uint64_t last_write = 0;

        for (int op = 0; op < 3000; ++op) {
            const uint64_t addr =
                rng.next(dimm_config.capacityBytes - 16);
            switch (rng.next(5)) {
              case 0:
              case 1: { // write 1-16 bytes
                uint8_t data[16];
                const size_t len = 1 + rng.next(16);
                for (size_t i = 0; i < len; ++i)
                    data[i] = static_cast<uint8_t>(rng());
                cache.write(addr, std::span<const uint8_t>(data, len));
                std::memcpy(reference.data() + addr, data, len);
                last_write = addr;
                break;
              }
              case 2: { // read and compare
                uint8_t out[kMaxSpan];
                const size_t len = rng.chance(0.5)
                                       ? 1 + rng.next(16)
                                       : 1 + rng.next(kMaxSpan);
                uint64_t from = addr;
                if (rng.chance(0.5))
                    from = last_write -
                           std::min<uint64_t>(last_write, rng.next(kMaxSpan));
                from = std::min<uint64_t>(from,
                                          dimm_config.capacityBytes - len);
                cache.read(from, std::span<uint8_t>(out, len));
                ASSERT_EQ(std::memcmp(out, reference.data() + from, len),
                          0)
                    << "trial " << trial << " op " << op << " read of "
                    << len << " bytes at " << from;
                break;
              }
              case 3:
                cache.flushLine(addr);
                break;
              default:
                if (rng.chance(0.1))
                    cache.wbinvd();
                break;
            }
        }
        // After a final wbinvd the NVRAM alone must match.
        cache.wbinvd();
        std::vector<uint8_t> out(dimm_config.capacityBytes);
        space.read(0, out);
        ASSERT_EQ(out, reference) << "trial " << trial;
    }
}

TEST(CacheFuzz, DirtyFootprintNeverExceedsCapacity)
{
    Rng rng(0xf00d);
    EventQueue queue;
    NvdimmConfig dimm_config;
    dimm_config.capacityBytes = 256 * kKiB;
    NvdimmModule dimm(queue, "d", dimm_config);
    NvramSpace space;
    space.addModule(dimm);
    CacheModel cache("c", 16 * CacheModel::kLineSize, CacheTiming{},
                     space);
    for (int i = 0; i < 5000; ++i) {
        cache.writeU64(rng.next(dimm_config.capacityBytes - 8) & ~7ull,
                       rng());
        ASSERT_LE(cache.dirtyBytes(), cache.capacity());
    }
}

// NVDIMM geometry sweep -----------------------------------------------------

using NvdimmGeometry = std::tuple<uint64_t, unsigned>; // MiB, channels

class NvdimmGeometrySweep
    : public ::testing::TestWithParam<NvdimmGeometry>
{
};

TEST_P(NvdimmGeometrySweep, SaveRestoreRoundTripAnyGeometry)
{
    const auto [mib, channels] = GetParam();
    EventQueue queue;
    NvdimmConfig config;
    config.capacityBytes = mib * kMiB;
    config.flashChannels = channels;
    NvdimmModule dimm(queue, "d", config);

    // Scatter a pattern across the module.
    Rng rng(mib * 131 + channels);
    std::map<uint64_t, uint64_t> written;
    for (int i = 0; i < 200; ++i) {
        const uint64_t addr =
            rng.next(config.capacityBytes - 8) & ~7ull;
        const uint64_t value = rng();
        uint8_t bytes[8];
        std::memcpy(bytes, &value, 8);
        dimm.hostWrite(addr, bytes);
        written[addr] = value;
    }

    dimm.arm();
    dimm.hostPowerLost(); // auto-save
    queue.run();
    ASSERT_TRUE(dimm.flashValid());

    dimm.hostPowerRestored();
    dimm.enterSelfRefresh();
    dimm.startRestore();
    queue.run();
    dimm.exitSelfRefresh();

    for (const auto &[addr, value] : written) {
        uint8_t bytes[8];
        dimm.hostRead(addr, bytes);
        uint64_t got = 0;
        std::memcpy(&got, bytes, 8);
        ASSERT_EQ(got, value) << "addr " << addr;
    }
}

TEST_P(NvdimmGeometrySweep, TimingScalesWithGeometry)
{
    const auto [mib, channels] = GetParam();
    EventQueue queue;
    NvdimmConfig config;
    config.capacityBytes = mib * kMiB;
    config.flashChannels = channels;
    NvdimmModule dimm(queue, "d", config);
    // Save time = capacity / (channels * channel bandwidth).
    const double expect_s =
        static_cast<double>(config.capacityBytes) /
        (config.channelSaveBw * channels);
    EXPECT_NEAR(toSeconds(dimm.saveDuration()), expect_s,
                expect_s * 0.01);
    EXPECT_LT(dimm.restoreDuration(), dimm.saveDuration());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, NvdimmGeometrySweep,
    ::testing::Values(NvdimmGeometry{1, 1}, NvdimmGeometry{4, 1},
                      NvdimmGeometry{4, 4}, NvdimmGeometry{16, 2},
                      NvdimmGeometry{64, 8}),
    [](const auto &info) {
        return std::to_string(std::get<0>(info.param)) + "MiB_" +
               std::to_string(std::get<1>(info.param)) + "ch";
    });

// Multi-module interleaving ------------------------------------------------

TEST(NvramSweep, ManySmallModulesBehaveLikeOneBig)
{
    EventQueue queue;
    NvdimmConfig config;
    config.capacityBytes = 1 * kMiB;
    config.flashChannels = 1;

    std::vector<std::unique_ptr<NvdimmModule>> dimms;
    NvdimmController controller(queue);
    NvramSpace space;
    for (int i = 0; i < 8; ++i) {
        std::string name = "d";
        name += std::to_string(i);
        dimms.push_back(std::make_unique<NvdimmModule>(queue, name, config));
        controller.attach(*dimms.back());
        space.addModule(*dimms.back());
    }

    Rng rng(0xabc);
    std::map<uint64_t, uint64_t> written;
    for (int i = 0; i < 500; ++i) {
        const uint64_t addr = rng.next(space.capacity() - 8) & ~7ull;
        const uint64_t value = rng();
        space.writeU64(addr, value);
        written[addr] = value;
    }

    controller.armAll();
    controller.hostPowerLost();
    queue.run();
    EXPECT_TRUE(controller.allFlashValid());

    controller.hostPowerRestored();
    bool done = false;
    controller.restoreAll([&] { done = true; });
    queue.run();
    ASSERT_TRUE(done);
    for (const auto &[addr, value] : written)
        ASSERT_EQ(space.readU64(addr), value);
}

} // namespace
} // namespace wsp
