/**
 * @file
 * Unit tests for the NVRAM substrate: sparse memory, NVDIMM modules,
 * controller, address space.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "nvram/controller.h"
#include "nvram/nvdimm.h"
#include "nvram/nvram_space.h"
#include "nvram/sparse_memory.h"
#include "test_seed.h"
#include "util/rng.h"

namespace wsp {
namespace {

// SparseMemory ---------------------------------------------------------

TEST(SparseMemory, ReadsZeroWhenUntouched)
{
    SparseMemory mem(1 * kMiB);
    uint8_t buf[16] = {0xff};
    mem.read(1000, buf);
    for (uint8_t b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(mem.allocatedPages(), 0u);
}

TEST(SparseMemory, WriteReadRoundTrip)
{
    SparseMemory mem(1 * kMiB);
    const uint8_t data[] = {1, 2, 3, 4, 5};
    mem.write(12345, data);
    uint8_t out[5] = {};
    mem.read(12345, out);
    EXPECT_EQ(std::memcmp(data, out, 5), 0);
}

TEST(SparseMemory, CrossPageAccess)
{
    SparseMemory mem(1 * kMiB);
    std::vector<uint8_t> data(SparseMemory::kPageSize + 100, 0xab);
    const uint64_t addr = SparseMemory::kPageSize - 50;
    mem.write(addr, data);
    EXPECT_EQ(mem.allocatedPages(), 3u);
    std::vector<uint8_t> out(data.size());
    mem.read(addr, out);
    EXPECT_EQ(data, out);
}

TEST(SparseMemory, U64RoundTrip)
{
    SparseMemory mem(64 * kKiB);
    mem.writeU64(8, 0x0123456789abcdefull);
    EXPECT_EQ(mem.readU64(8), 0x0123456789abcdefull);
    // Little-endian layout.
    uint8_t b = 0;
    mem.read(8, {&b, 1});
    EXPECT_EQ(b, 0xef);
}

TEST(SparseMemory, PoisonReadsPoisonByte)
{
    SparseMemory mem(64 * kKiB);
    mem.writeU64(0, 42);
    mem.poison();
    EXPECT_TRUE(mem.poisoned());
    uint8_t b = 0;
    mem.read(0, {&b, 1});
    EXPECT_EQ(b, SparseMemory::kPoisonByte);
}

TEST(SparseMemory, WriteAfterPoisonIsTrustworthy)
{
    SparseMemory mem(64 * kKiB);
    mem.poison();
    mem.writeU64(100, 7);
    EXPECT_EQ(mem.readU64(100), 7u);
    // Adjacent unwritten bytes in the same page stay poisoned.
    uint8_t b = 0;
    mem.read(200, {&b, 1});
    EXPECT_EQ(b, SparseMemory::kPoisonByte);
}

TEST(SparseMemory, ClearResetsPoison)
{
    SparseMemory mem(64 * kKiB);
    mem.poison();
    mem.clear();
    EXPECT_FALSE(mem.poisoned());
    uint8_t b = 0xff;
    mem.read(0, {&b, 1});
    EXPECT_EQ(b, 0);
}

TEST(SparseMemory, SnapshotIsDeepCopy)
{
    SparseMemory mem(64 * kKiB);
    mem.writeU64(0, 1);
    SparseMemory snap = mem.snapshot();
    mem.writeU64(0, 2);
    EXPECT_EQ(snap.readU64(0), 1u);
    EXPECT_EQ(mem.readU64(0), 2u);
}

TEST(SparseMemory, RestoreFromImage)
{
    SparseMemory mem(64 * kKiB);
    mem.writeU64(0, 1);
    SparseMemory snap = mem.snapshot();
    mem.writeU64(0, 99);
    mem.restoreFrom(snap);
    EXPECT_EQ(mem.readU64(0), 1u);
}

TEST(SparseMemory, ContentEquals)
{
    SparseMemory a(64 * kKiB);
    SparseMemory b(64 * kKiB);
    EXPECT_TRUE(a.contentEquals(b));
    a.writeU64(8, 5);
    EXPECT_FALSE(a.contentEquals(b));
    b.writeU64(8, 5);
    EXPECT_TRUE(a.contentEquals(b));
    // Explicit zeros equal untouched pages.
    a.writeU64(4096, 0);
    EXPECT_TRUE(a.contentEquals(b));
}

TEST(SparseMemory, PoisonedVsZeroNotEqual)
{
    SparseMemory a(64 * kKiB);
    SparseMemory b(64 * kKiB);
    a.poison();
    EXPECT_FALSE(a.contentEquals(b));
}

TEST(SparseMemory, CopyRangeEndingExactlyAtCapacity)
{
    const uint64_t cap = 64 * kKiB;
    SparseMemory src(cap);
    SparseMemory dst(cap);
    std::vector<uint8_t> tail(300, 0x7e);
    src.write(cap - tail.size(), tail);
    dst.copyRangeFrom(src, cap - 2 * SparseMemory::kPageSize,
                      2 * SparseMemory::kPageSize);
    std::vector<uint8_t> out(tail.size());
    dst.read(cap - tail.size(), out);
    EXPECT_EQ(out, tail);
    EXPECT_TRUE(dst.rangeEquals(src, cap - 2 * SparseMemory::kPageSize,
                                2 * SparseMemory::kPageSize));
}

TEST(SparseMemory, CopyRangeSubPageEndsAroundUnallocatedMiddle)
{
    // A sub-page head and tail with an unallocated source page in
    // between: the copy must bring the written ends over and erase
    // whatever the destination held across the untouched middle.
    const uint64_t page = SparseMemory::kPageSize;
    SparseMemory src(64 * kKiB);
    SparseMemory dst(64 * kKiB);
    const uint8_t head[] = {1, 2, 3};
    const uint8_t tail[] = {7, 8, 9};
    src.write(page - 100, head);       // page 0, near its end
    src.write(3 * page + 50, tail);    // page 3; pages 1-2 untouched
    std::vector<uint8_t> junk(4 * page, 0xcc);
    dst.write(0, junk); // stale content the copy must not leave behind

    const uint64_t base = page - 100;
    const uint64_t len = (3 * page + 50 + sizeof(tail)) - base;
    dst.copyRangeFrom(src, base, len);
    EXPECT_TRUE(dst.rangeEquals(src, base, len));
    uint8_t probe = 0;
    dst.read(2 * page, {&probe, 1}); // unallocated middle reads zero
    EXPECT_EQ(probe, 0);
    dst.read(base - 1, {&probe, 1}); // outside the range: untouched
    EXPECT_EQ(probe, 0xcc);
}

TEST(SparseMemory, CopyRangeFromPoisonedSource)
{
    SparseMemory src(64 * kKiB);
    SparseMemory dst(64 * kKiB);
    src.poison();
    const uint64_t base = SparseMemory::kPageSize / 2;
    dst.copyRangeFrom(src, base, 2 * SparseMemory::kPageSize);
    uint8_t probe = 0;
    dst.read(base, {&probe, 1});
    EXPECT_EQ(probe, SparseMemory::kPoisonByte);
    dst.read(base + 2 * SparseMemory::kPageSize - 1, {&probe, 1});
    EXPECT_EQ(probe, SparseMemory::kPoisonByte);
    EXPECT_TRUE(dst.rangeEquals(src, base, 2 * SparseMemory::kPageSize));
}

// Dirty tracking -------------------------------------------------------

TEST(SparseMemory, FreshMemoryIsConservativelyAllDirty)
{
    SparseMemory mem(64 * kKiB);
    EXPECT_TRUE(mem.allDirty());
    EXPECT_EQ(mem.dirtyPageCount(), mem.totalPages());
    EXPECT_EQ(mem.dirtyBytes(), mem.capacity());
    const uint64_t epoch = mem.dirtyEpoch();
    mem.resetDirty();
    EXPECT_FALSE(mem.allDirty());
    EXPECT_EQ(mem.dirtyPageCount(), 0u);
    EXPECT_EQ(mem.dirtyEpoch(), epoch + 1);
}

TEST(SparseMemory, WritesMarkPagesDirtyPageGranular)
{
    SparseMemory mem(64 * kKiB);
    mem.resetDirty();
    const uint8_t byte[] = {1};
    mem.write(100, byte);
    mem.write(200, byte); // same page: still one dirty page
    EXPECT_EQ(mem.dirtyPageCount(), 1u);
    mem.write(5 * SparseMemory::kPageSize, byte);
    EXPECT_EQ(mem.dirtyPageCount(), 2u);
    const std::vector<uint64_t> pages = mem.dirtyPagesDescending();
    ASSERT_EQ(pages.size(), 2u);
    EXPECT_EQ(pages[0], 5u);
    EXPECT_EQ(pages[1], 0u);
}

TEST(SparseMemory, WholesaleChangesReturnToAllDirty)
{
    SparseMemory mem(64 * kKiB);
    mem.resetDirty();
    mem.clear();
    EXPECT_TRUE(mem.allDirty());
    mem.resetDirty();
    mem.poison();
    EXPECT_TRUE(mem.allDirty());
    mem.resetDirty();
    SparseMemory image(64 * kKiB);
    mem.restoreFrom(image);
    EXPECT_TRUE(mem.allDirty());
}

TEST(SparseMemory, CopyRangeFromMarksDestinationDirty)
{
    SparseMemory src(64 * kKiB);
    SparseMemory dst(64 * kKiB);
    const uint8_t byte[] = {0x11};
    src.write(0, byte);
    dst.resetDirty();
    dst.copyRangeFrom(src, 0, SparseMemory::kPageSize);
    EXPECT_EQ(dst.dirtyPageCount(), 1u);
}

// rangeEquals against a byte reference ------------------------------------

/** Byte-by-byte reference: both ranges read through read(). */
bool
referenceRangeEquals(const SparseMemory &a, const SparseMemory &b,
                     uint64_t addr, uint64_t len)
{
    std::vector<uint8_t> x(len);
    std::vector<uint8_t> y(len);
    a.read(addr, x);
    b.read(addr, y);
    return x == y;
}

/** Bytes that are mostly either side's fill, so ranges often agree. */
std::vector<uint8_t>
fillLikeBytes(Rng &rng, size_t n)
{
    std::vector<uint8_t> bytes(n);
    const uint8_t base = rng.chance(0.5) ? 0 : SparseMemory::kPoisonByte;
    for (auto &byte : bytes)
        byte = rng.chance(0.9) ? base : static_cast<uint8_t>(rng());
    return bytes;
}

TEST(SparseMemory, RangeEqualsMatchesAByteReferenceAcrossChunks)
{
    // Three 2 MiB chunks, the last one short, ending in a partial
    // page: chunk skipping, fill comparison, pointer-shared pages,
    // pages held on one side only and memcmp of distinct pages all
    // meet ranges that start mid-page and cross chunk boundaries.
    constexpr uint64_t kChunk =
        SparseMemory::kPagesPerChunk * SparseMemory::kPageSize;
    constexpr uint64_t kCap =
        2 * kChunk + 5 * SparseMemory::kPageSize + 1234;
    const uint64_t seed = testing::testSeed(0x5a11e7);
    Rng rng(seed);
    uint64_t queries = 0;
    uint64_t equal = 0;
    for (int round = 0; round < 60; ++round) {
        SCOPED_TRACE(testing::seedTrace(0x5a11e7) + " round " +
                     std::to_string(round));
        // A random address, biased towards chunk and page edges.
        const auto pick = [&]() -> uint64_t {
            const uint64_t edge = (1 + rng.next(2)) * kChunk;
            switch (rng.next(3)) {
              case 0:
                return edge -
                       std::min(edge, rng.next(3 * SparseMemory::kPageSize));
              case 1:
                return rng.next(kCap / SparseMemory::kPageSize) *
                       SparseMemory::kPageSize;
              default:
                return rng.next(kCap);
            }
        };
        const auto scribble = [&](SparseMemory &mem, int writes) {
            for (int i = 0; i < writes; ++i) {
                const uint64_t addr = pick();
                const uint64_t len = std::min<uint64_t>(
                    kCap - addr, 1 + rng.next(2 * SparseMemory::kPageSize));
                mem.write(addr, fillLikeBytes(rng, len));
            }
        };

        SparseMemory a(kCap);
        if (rng.chance(0.3))
            a.poison();
        scribble(a, 1 + static_cast<int>(rng.next(6)));

        // b starts as a snapshot (shared pages), a sparse copy of some
        // ranges (shared whole pages, copied partial ones) or a memory
        // of its own; then either side may be scribbled on.
        SparseMemory b(kCap);
        switch (rng.next(3)) {
          case 0:
            b = a.snapshot();
            break;
          case 1:
            for (int i = 0; i < 3; ++i) {
                const uint64_t addr = pick();
                b.copyRangeFrom(a, addr,
                                std::min<uint64_t>(kCap - addr,
                                                   rng.next(kChunk)));
            }
            break;
          default:
            if (rng.chance(0.3))
                b.poison();
            break;
        }
        if (rng.chance(0.5))
            scribble(b, static_cast<int>(rng.next(3)));
        if (rng.chance(0.3))
            scribble(a, 1);

        for (int q = 0; q < 40; ++q) {
            const uint64_t addr = pick();
            const uint64_t room = kCap - addr;
            const uint64_t len =
                rng.chance(0.1)
                    ? room
                    : std::min(room, rng.next(rng.chance(0.5)
                                                  ? 4 * SparseMemory::kPageSize
                                                  : kChunk + 1));
            const bool expected = referenceRangeEquals(a, b, addr, len);
            ASSERT_EQ(a.rangeEquals(b, addr, len), expected)
                << "range [" << addr << ", " << addr + len << ")";
            ASSERT_EQ(b.rangeEquals(a, addr, len), expected)
                << "range [" << addr << ", " << addr + len << ")";
            queries += 2;
            equal += expected ? 2 : 0;
        }
        const bool same = referenceRangeEquals(a, b, 0, kCap);
        ASSERT_EQ(a.contentEquals(b), same);
        ASSERT_EQ(b.contentEquals(a), same);
        queries += 2;
        equal += same ? 2 : 0;
    }
    // Both verdicts must be well represented, or the differential
    // proves little.
    EXPECT_GT(equal, queries / 5);
    EXPECT_LT(equal, queries * 4 / 5);
}

// NvdimmModule -----------------------------------------------------------

NvdimmConfig
smallDimm()
{
    NvdimmConfig config;
    config.capacityBytes = 1 * kMiB;
    config.flashChannels = 1;
    return config;
}

TEST(Nvdimm, AutoChannelsScaleWithCapacity)
{
    EventQueue queue;
    NvdimmConfig config;
    config.capacityBytes = 4 * kGiB;
    NvdimmModule dimm(queue, "d", config);
    EXPECT_EQ(dimm.flashChannels(), 4u);
    EXPECT_GT(dimm.savePowerWatts(), 0.0);
}

TEST(Nvdimm, SaveTimeUnderTenSecondsUpTo8GiB)
{
    // Paper section 2: save < 10 s for modules up to 8 GiB.
    EventQueue queue;
    for (uint64_t gib : {1, 2, 4, 8}) {
        NvdimmConfig config;
        config.capacityBytes = gib * kGiB;
        std::string name = "d";
        name += std::to_string(gib);
        NvdimmModule dimm(queue, name, config);
        EXPECT_LT(toSeconds(dimm.saveDuration()), 10.0) << gib << " GiB";
    }
}

TEST(Nvdimm, UltracapSuppliesAtLeastTwiceSaveTime)
{
    // Paper Fig. 2: the bank can power the module for at least twice
    // the save time.
    EventQueue queue;
    NvdimmModule dimm(queue, "d", NvdimmConfig{});
    const Tick supply = dimm.ultracap().supplyTime(dimm.savePowerWatts());
    EXPECT_GE(supply, 2 * dimm.saveDuration());
}

TEST(Nvdimm, HostAccessOnlyWhenActive)
{
    EventQueue queue;
    NvdimmModule dimm(queue, "d", smallDimm());
    const uint8_t data[] = {9};
    dimm.hostWrite(0, data);
    uint8_t out = 0;
    dimm.hostRead(0, {&out, 1});
    EXPECT_EQ(out, 9);
    dimm.enterSelfRefresh();
    EXPECT_DEATH(dimm.hostWrite(0, data), "host write");
}

TEST(Nvdimm, SaveRestoreRoundTrip)
{
    EventQueue queue;
    NvdimmModule dimm(queue, "d", smallDimm());
    const uint8_t data[] = {1, 2, 3};
    dimm.hostWrite(100, data);

    dimm.enterSelfRefresh();
    dimm.startSave();
    EXPECT_EQ(dimm.state(), NvdimmState::Saving);
    queue.run();
    EXPECT_EQ(dimm.state(), NvdimmState::SelfRefresh);
    EXPECT_TRUE(dimm.flashValid());
    EXPECT_EQ(dimm.savesCompleted(), 1u);

    // Clobber DRAM, restore from flash.
    dimm.exitSelfRefresh();
    const uint8_t junk[] = {7, 7, 7};
    dimm.hostWrite(100, junk);
    dimm.enterSelfRefresh();
    dimm.startRestore();
    queue.run();
    dimm.exitSelfRefresh();

    uint8_t out[3] = {};
    dimm.hostRead(100, out);
    EXPECT_EQ(std::memcmp(out, data, 3), 0);
}

TEST(Nvdimm, PowerLossWhileActiveUnarmedLosesContent)
{
    EventQueue queue;
    NvdimmModule dimm(queue, "d", smallDimm());
    const uint8_t data[] = {5};
    dimm.hostWrite(0, data);
    dimm.hostPowerLost();
    queue.run();
    EXPECT_FALSE(dimm.flashValid());
    uint8_t out = 0;
    dimm.hostRead(0, {&out, 1});
    EXPECT_EQ(out, SparseMemory::kPoisonByte);
}

TEST(Nvdimm, PowerLossWhileArmedTriggersAutoSave)
{
    EventQueue queue;
    NvdimmModule dimm(queue, "d", smallDimm());
    const uint8_t data[] = {5};
    dimm.hostWrite(0, data);
    dimm.arm();
    dimm.hostPowerLost();
    EXPECT_EQ(dimm.state(), NvdimmState::Saving);
    queue.run();
    EXPECT_TRUE(dimm.flashValid());
    EXPECT_EQ(dimm.savesCompleted(), 1u);
}

TEST(Nvdimm, PowerLossDuringSaveDoesNotAbortIt)
{
    EventQueue queue;
    NvdimmModule dimm(queue, "d", smallDimm());
    const uint8_t data[] = {5};
    dimm.hostWrite(0, data);
    dimm.enterSelfRefresh();
    dimm.startSave();
    dimm.hostPowerLost(); // save continues on ultracap power
    queue.run();
    EXPECT_TRUE(dimm.flashValid());
}

TEST(Nvdimm, ExhaustedUltracapFailsSaveCleanly)
{
    EventQueue queue;
    NvdimmConfig config;
    config.capacityBytes = 8 * kGiB;
    config.flashChannels = 1; // ~64 s save on one channel
    config.savePowerWatts = 10.0;
    config.ultracap.ratedCapacitanceF = 1.0; // far too small
    NvdimmModule dimm(queue, "d", config);
    const uint8_t data[] = {5};
    dimm.hostWrite(0, data);
    dimm.enterSelfRefresh();
    dimm.startSave();
    queue.run();
    EXPECT_EQ(dimm.state(), NvdimmState::SaveFailed);
    EXPECT_FALSE(dimm.flashValid());
    EXPECT_EQ(dimm.savesCompleted(), 0u);
}

TEST(Nvdimm, RestoreRequiresFlashContent)
{
    // A partial (failed-save) image is restorable — the salvage path
    // reads back whatever suffix was programmed — but a module with
    // no flash content at all has nothing to restore.
    EventQueue queue;
    NvdimmModule dimm(queue, "d", smallDimm());
    dimm.enterSelfRefresh();
    EXPECT_DEATH(dimm.startRestore(), "without any flash content");
}

TEST(Nvdimm, PowerRestoredRechargesBank)
{
    EventQueue queue;
    NvdimmModule dimm(queue, "d", smallDimm());
    dimm.arm();
    dimm.hostPowerLost();
    queue.run();
    const double low = dimm.ultracap().voltage();
    EXPECT_LT(low, dimm.ultracap().config().maxVoltage);
    dimm.hostPowerRestored();
    EXPECT_DOUBLE_EQ(dimm.ultracap().voltage(),
                     dimm.ultracap().config().maxVoltage);
}

TEST(Nvdimm, IncrementalSaveProgramsOnlyDirtyPages)
{
    EventQueue queue;
    NvdimmConfig config = smallDimm();
    config.verifySaves = true;
    NvdimmModule dimm(queue, "d", config);
    const uint8_t data[] = {1, 2, 3};
    dimm.hostWrite(100, data);

    // First save has no baseline: full image.
    dimm.enterSelfRefresh();
    dimm.startSave();
    queue.run();
    EXPECT_EQ(dimm.lastSaveProgrammedBytes(), dimm.capacity());
    EXPECT_EQ(dimm.incrementalSavesCompleted(), 0u);
    dimm.exitSelfRefresh();

    // Dirty two pages; the next save programs exactly those.
    dimm.hostWrite(0, data);
    dimm.hostWrite(5 * SparseMemory::kPageSize, data);
    EXPECT_TRUE(dimm.incrementalEligible());
    EXPECT_EQ(dimm.pendingSaveBytes(), 2 * SparseMemory::kPageSize);
    EXPECT_LT(dimm.pendingSaveDuration(), dimm.saveDuration());
    EXPECT_LT(dimm.pendingSaveEnergy(), dimm.saveEnergy());
    dimm.enterSelfRefresh();
    dimm.startSave();
    queue.run();
    EXPECT_TRUE(dimm.flashValid());
    EXPECT_EQ(dimm.incrementalSavesCompleted(), 1u);
    EXPECT_EQ(dimm.lastSaveProgrammedBytes(), 2 * SparseMemory::kPageSize);
    EXPECT_EQ(dimm.saveMismatches(), 0u);
}

TEST(Nvdimm, MediaFaultForcesNextSaveFull)
{
    EventQueue queue;
    NvdimmConfig config = smallDimm();
    config.verifySaves = true;
    NvdimmModule dimm(queue, "d", config);
    dimm.enterSelfRefresh();
    dimm.startSave();
    queue.run();
    dimm.exitSelfRefresh();

    // A silent media fault taints the baseline: a delta save on top
    // of the corrupted image would diverge from DRAM, so the engine
    // must fall back to a full program.
    dimm.injectFlashFault(MediaFaultKind::BitFlip, 64 * kKiB);
    EXPECT_FALSE(dimm.incrementalEligible());
    EXPECT_EQ(dimm.pendingSaveBytes(), dimm.capacity());
    const uint8_t data[] = {9};
    dimm.hostWrite(0, data);
    dimm.enterSelfRefresh();
    dimm.startSave();
    queue.run();
    EXPECT_TRUE(dimm.flashValid());
    EXPECT_EQ(dimm.incrementalSavesCompleted(), 0u);
    EXPECT_EQ(dimm.lastSaveProgrammedBytes(), dimm.capacity());
    EXPECT_EQ(dimm.saveMismatches(), 0u);
}

TEST(Nvdimm, LazyRestoreIsFastAndContentIdentical)
{
    EventQueue queue;
    NvdimmConfig config = smallDimm();
    config.lazyRestore = true;
    NvdimmModule dimm(queue, "d", config);
    const uint8_t data[] = {0xab, 0xcd};
    dimm.hostWrite(512, data);

    dimm.enterSelfRefresh();
    dimm.startSave();
    queue.run();
    dimm.exitSelfRefresh();

    // The mapping setup is what the boot path waits for, not the
    // capacity/bandwidth stream.
    EXPECT_LT(dimm.restoreDuration(), dimm.fullRestoreDuration());

    const uint8_t junk[] = {0, 0};
    dimm.hostWrite(512, junk);
    dimm.enterSelfRefresh();
    const Tick before = queue.now();
    dimm.startRestore();
    queue.run();
    EXPECT_LE(queue.now() - before, dimm.restoreDuration());
    dimm.exitSelfRefresh();
    EXPECT_EQ(dimm.lazyRestoresCompleted(), 1u);
    uint8_t out[2] = {};
    dimm.hostRead(512, out);
    EXPECT_EQ(std::memcmp(out, data, 2), 0);
}

// NvdimmController -------------------------------------------------------

TEST(NvdimmController, SaveAllRunsInParallel)
{
    EventQueue queue;
    NvdimmController controller(queue);
    std::vector<std::unique_ptr<NvdimmModule>> dimms;
    for (int i = 0; i < 4; ++i) {
        std::string name = "d";
        name += std::to_string(i);
        dimms.push_back(
            std::make_unique<NvdimmModule>(queue, name, smallDimm()));
        controller.attach(*dimms.back());
    }
    controller.saveAll();
    const Tick finished = queue.run();
    // Parallel: total time is one module's save, not four.
    EXPECT_NEAR(toSeconds(finished),
                toSeconds(dimms[0]->saveDuration()), 0.1);
    EXPECT_TRUE(controller.allFlashValid());
    EXPECT_TRUE(controller.allIdle());
    EXPECT_FALSE(controller.anySaveFailed());
}

TEST(NvdimmController, RestoreAllBarrierFiresOnce)
{
    EventQueue queue;
    NvdimmController controller(queue);
    NvdimmModule dimm(queue, "d", smallDimm());
    controller.attach(dimm);
    controller.saveAll();
    queue.run();

    int done_count = 0;
    controller.restoreAll([&] { ++done_count; });
    queue.run();
    EXPECT_EQ(done_count, 1);
    EXPECT_EQ(dimm.state(), NvdimmState::Active);
    EXPECT_EQ(dimm.restoresCompleted(), 1u);
}

TEST(NvdimmController, ArmDisarmFanOut)
{
    EventQueue queue;
    NvdimmController controller(queue);
    NvdimmModule a(queue, "a", smallDimm());
    NvdimmModule b(queue, "b", smallDimm());
    controller.attach(a);
    controller.attach(b);
    controller.armAll();
    EXPECT_TRUE(a.armed());
    EXPECT_TRUE(b.armed());
    controller.disarmAll();
    EXPECT_FALSE(a.armed());
    EXPECT_FALSE(b.armed());
}

TEST(NvdimmController, CommandSinkMapsCommands)
{
    EventQueue queue;
    NvdimmController controller(queue);
    NvdimmModule dimm(queue, "d", smallDimm());
    controller.attach(dimm);
    auto sink = controller.commandSink();
    sink(PowerMonitor::Command::Arm);
    EXPECT_TRUE(dimm.armed());
    sink(PowerMonitor::Command::Save);
    EXPECT_EQ(dimm.state(), NvdimmState::Saving);
    queue.run();
    EXPECT_TRUE(dimm.flashValid());
}

TEST(NvdimmController, SaveAllIgnoresUnpoweredModules)
{
    // Regression: an armed module that already ran its hardware-
    // triggered save after host power loss is de-energized — its DRAM
    // is poisoned and it cannot process bus commands. A late software
    // save command (in flight when the power died) must not re-program
    // the poisoned DRAM over the good flash image.
    EventQueue queue;
    NvdimmController controller(queue);
    NvdimmModule dimm(queue, "d", smallDimm());
    controller.attach(dimm);
    const uint8_t data[] = {4, 2};
    dimm.hostWrite(0, data);
    dimm.enterSelfRefresh();
    dimm.arm();
    dimm.hostPowerLost(); // hardware save from the ultracap
    queue.run();
    EXPECT_TRUE(dimm.flashValid());
    EXPECT_EQ(dimm.savesCompleted(), 1u);

    controller.saveAll(); // the late command: must be a no-op
    queue.run();
    EXPECT_EQ(dimm.savesCompleted(), 1u);
    EXPECT_TRUE(dimm.flashValid());

    dimm.hostPowerRestored();
    dimm.enterSelfRefresh();
    dimm.startRestore();
    queue.run();
    dimm.exitSelfRefresh();
    uint8_t out[2] = {};
    dimm.hostRead(0, out);
    EXPECT_EQ(std::memcmp(out, data, 2), 0);
}

// NvramSpace ---------------------------------------------------------------

TEST(NvramSpace, ConcatenatesModules)
{
    EventQueue queue;
    NvdimmModule a(queue, "a", smallDimm());
    NvdimmModule b(queue, "b", smallDimm());
    NvramSpace space;
    space.addModule(a);
    space.addModule(b);
    EXPECT_EQ(space.capacity(), 2 * kMiB);
    EXPECT_EQ(space.moduleBase(0), 0u);
    EXPECT_EQ(space.moduleBase(1), 1 * kMiB);
}

TEST(NvramSpace, CrossModuleAccess)
{
    EventQueue queue;
    NvdimmModule a(queue, "a", smallDimm());
    NvdimmModule b(queue, "b", smallDimm());
    NvramSpace space;
    space.addModule(a);
    space.addModule(b);

    std::vector<uint8_t> data(100, 0x3c);
    const uint64_t addr = 1 * kMiB - 50;
    space.write(addr, data);
    std::vector<uint8_t> out(100);
    space.read(addr, out);
    EXPECT_EQ(data, out);

    // The split really landed in both modules.
    uint8_t b0 = 0;
    b.hostRead(0, {&b0, 1});
    EXPECT_EQ(b0, 0x3c);
}

TEST(NvramSpace, U64RoundTrip)
{
    EventQueue queue;
    NvdimmModule a(queue, "a", smallDimm());
    NvramSpace space;
    space.addModule(a);
    space.writeU64(128, 0xfeedfacecafebeefull);
    EXPECT_EQ(space.readU64(128), 0xfeedfacecafebeefull);
}

TEST(NvramSpace, OutOfRangeDies)
{
    EventQueue queue;
    NvdimmModule a(queue, "a", smallDimm());
    NvramSpace space;
    space.addModule(a);
    uint8_t b = 0;
    EXPECT_DEATH(space.read(2 * kMiB, {&b, 1}), "beyond NVRAM capacity");
}

} // namespace
} // namespace wsp
