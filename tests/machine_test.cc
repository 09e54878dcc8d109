/**
 * @file
 * Unit tests for the machine substrate: contexts, caches, platforms.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <list>
#include <map>
#include <utility>
#include <vector>

#include "machine/cache.h"
#include "machine/cpu_context.h"
#include "machine/machine.h"
#include "nvram/nvdimm.h"
#include "nvram/nvram_space.h"

namespace wsp {
namespace {

// CpuContext -----------------------------------------------------------

TEST(CpuContext, SerializeRoundTrip)
{
    Rng rng(1);
    CpuContext ctx;
    ctx.randomize(rng);
    ctx.apicId = 5;
    std::vector<uint8_t> image(CpuContext::serializedSize());
    ctx.serialize(image);
    const CpuContext back = CpuContext::deserialize(image);
    EXPECT_EQ(ctx, back);
}

TEST(CpuContext, RandomizeChangesState)
{
    Rng rng(2);
    CpuContext a;
    CpuContext b;
    b.randomize(rng);
    EXPECT_NE(a, b);
}

TEST(CpuContext, ReservedFlagBitAlwaysSet)
{
    Rng rng(3);
    for (int i = 0; i < 20; ++i) {
        CpuContext ctx;
        ctx.randomize(rng);
        EXPECT_TRUE(ctx.rflags & 0x2);
        EXPECT_EQ(ctx.cr3 & 0xfff, 0u); // page aligned
    }
}

// CacheModel -----------------------------------------------------------

/** A 4 MiB NVRAM space on its own module. */
struct Memory
{
    Memory()
        : dimm(queue, "d",
               [] {
                   NvdimmConfig config;
                   config.capacityBytes = 4 * kMiB;
                   config.flashChannels = 1;
                   return config;
               }())
    {
        space.addModule(dimm);
    }

    EventQueue queue;
    NvdimmModule dimm;
    NvramSpace space;
};

struct CacheFixture : ::testing::Test, Memory
{
    CacheModel
    makeCache(uint64_t capacity = 64 * kKiB)
    {
        return CacheModel("L3", capacity, CacheTiming{}, space);
    }
};

TEST_F(CacheFixture, WriteStaysInCacheUntilFlush)
{
    CacheModel cache = makeCache();
    cache.writeU64(128, 42);
    EXPECT_EQ(cache.readU64(128), 42u);
    // NVRAM does not see it yet: the line is dirty.
    EXPECT_EQ(space.readU64(128), 0u);
    EXPECT_EQ(cache.dirtyLines(), 1u);

    cache.flushLine(128);
    EXPECT_EQ(space.readU64(128), 42u);
    EXPECT_EQ(cache.dirtyLines(), 0u);
}

TEST_F(CacheFixture, ReadThroughForCleanLines)
{
    CacheModel cache = makeCache();
    space.writeU64(64, 7);
    EXPECT_EQ(cache.readU64(64), 7u);
    EXPECT_EQ(cache.dirtyLines(), 0u);
}

TEST_F(CacheFixture, PartialLineWritePreservesRest)
{
    CacheModel cache = makeCache();
    space.writeU64(0, 0x1111111111111111ull);
    space.writeU64(8, 0x2222222222222222ull);
    // Dirty only the second word of the line.
    cache.writeU64(8, 0x3333333333333333ull);
    EXPECT_EQ(cache.readU64(0), 0x1111111111111111ull);
    cache.wbinvd();
    EXPECT_EQ(space.readU64(0), 0x1111111111111111ull);
    EXPECT_EQ(space.readU64(8), 0x3333333333333333ull);
}

TEST_F(CacheFixture, WbinvdWritesBackEverything)
{
    CacheModel cache = makeCache();
    Rng rng(4);
    cache.fillDirty(0, 16 * kKiB, rng);
    EXPECT_EQ(cache.dirtyBytes(), 16 * kKiB);
    cache.wbinvd();
    EXPECT_EQ(cache.dirtyBytes(), 0u);
    // Data visible in NVRAM afterwards: compare via the cache (which
    // now reads through).
    Rng rng2(4);
    CacheModel check = makeCache();
    std::vector<uint8_t> expect(64);
    std::vector<uint8_t> got(64);
    for (uint64_t addr = 0; addr < 16 * kKiB; addr += 64) {
        for (auto &byte : expect)
            byte = static_cast<uint8_t>(rng2());
        space.read(addr, got);
        EXPECT_EQ(expect, got) << "line at " << addr;
    }
}

TEST_F(CacheFixture, EvictionWritesBackLru)
{
    CacheModel cache = makeCache(2 * CacheModel::kLineSize);
    cache.writeU64(0, 1);    // line 0
    cache.writeU64(64, 2);   // line 1
    cache.writeU64(128, 3);  // line 2 -> evicts line 0 (LRU)
    EXPECT_EQ(cache.dirtyLines(), 2u);
    EXPECT_EQ(space.readU64(0), 1u);  // written back
    EXPECT_EQ(space.readU64(64), 0u); // still dirty
}

TEST_F(CacheFixture, RecencyRefreshOnRewrite)
{
    CacheModel cache = makeCache(2 * CacheModel::kLineSize);
    cache.writeU64(0, 1);   // line 0
    cache.writeU64(64, 2);  // line 1
    cache.writeU64(0, 10);  // refresh line 0
    cache.writeU64(128, 3); // evicts line 1 now
    EXPECT_EQ(space.readU64(64), 2u);
    EXPECT_EQ(space.readU64(0), 0u); // line 0 still cached
    EXPECT_EQ(cache.readU64(0), 10u);
}

TEST_F(CacheFixture, WbinvdCostNearlyFlatInDirtyBytes)
{
    CacheModel cache = makeCache();
    const Tick empty_cost = cache.wbinvdCost();
    Rng rng(5);
    cache.fillDirty(0, 64 * kKiB, rng);
    const Tick full_cost = cache.wbinvdCost();
    EXPECT_GT(full_cost, empty_cost);
    // "Little dependence on the number of dirty cache lines" (Fig. 8):
    // full vs empty differs by well under 10%.
    EXPECT_LT(static_cast<double>(full_cost - empty_cost) /
                  static_cast<double>(empty_cost),
              0.10);
}

TEST_F(CacheFixture, ClflushCostScalesWithLines)
{
    CacheModel cache = makeCache();
    EXPECT_EQ(cache.clflushLoopCost(100), 100 * CacheTiming{}.clflushPerLine);
    EXPECT_LT(cache.clflushLoopCost(1), cache.clflushLoopCost(1000));
}

TEST_F(CacheFixture, DropDirtyLosesData)
{
    CacheModel cache = makeCache();
    cache.writeU64(0, 99);
    cache.dropDirty();
    EXPECT_EQ(cache.dirtyBytes(), 0u);
    EXPECT_EQ(cache.readU64(0), 0u); // NVRAM never saw the write
}

TEST_F(CacheFixture, FillDirtyBeyondCapacityDies)
{
    CacheModel cache = makeCache(2 * CacheModel::kLineSize);
    Rng rng(6);
    EXPECT_DEATH(cache.fillDirty(0, 4 * CacheModel::kLineSize, rng),
                 "exceeds cache capacity");
}

// Line store vs a reference model -----------------------------------------
//
// The cache's flat line store is held to a deliberately plain model of
// the same semantics: dirty lines in a std::map, recency in a
// std::list, the least recently written line evicted once the dirty
// footprint reaches capacity, and every write-back and loss reported to
// an observer. The differential drives the cache and the model through
// one random op stream and compares after every step: read results,
// dirty accounting, the exact observer sequence for evictions, clflush
// and wbinvd, partition counts, the event sets of partition flushes and
// dropDirty, and the final NVRAM image. Each side runs over its own
// Memory, so the two images can be compared at the end.

using LineEvent = std::pair<uint64_t, bool>; // (line base, lost)

/** The reference model: write-back cache semantics, no performance. */
class ModelCache
{
  public:
    static constexpr uint64_t kLine = CacheModel::kLineSize;

    ModelCache(uint64_t capacity, NvramSpace &memory)
        : capacity_(capacity), memory_(memory)
    {
    }

    /** Every line that left the model, in order. */
    std::vector<LineEvent> events;

    size_t dirtyLines() const { return lines_.size(); }

    void read(uint64_t addr, std::span<uint8_t> out) const
    {
        for (size_t done = 0; done < out.size();) {
            const uint64_t cur = addr + done;
            const uint64_t base = cur & ~(kLine - 1);
            const size_t chunk = std::min<size_t>(kLine - (cur - base),
                                                  out.size() - done);
            const auto it = lines_.find(base);
            if (it != lines_.end())
                std::memcpy(out.data() + done,
                            it->second.data.data() + (cur - base), chunk);
            else
                memory_.read(cur, out.subspan(done, chunk));
            done += chunk;
        }
    }

    void write(uint64_t addr, std::span<const uint8_t> data)
    {
        for (size_t done = 0; done < data.size();) {
            const uint64_t cur = addr + done;
            const uint64_t base = cur & ~(kLine - 1);
            const size_t chunk = std::min<size_t>(kLine - (cur - base),
                                                  data.size() - done);
            std::memcpy(lineForWrite(base).data() + (cur - base),
                        data.data() + done, chunk);
            done += chunk;
        }
    }

    uint64_t readU64(uint64_t addr) const
    {
        uint64_t value = 0;
        read(addr, {reinterpret_cast<uint8_t *>(&value), 8});
        return value;
    }

    void writeU64(uint64_t addr, uint64_t value)
    {
        write(addr, {reinterpret_cast<const uint8_t *>(&value), 8});
    }

    void flushLine(uint64_t addr)
    {
        const uint64_t base = addr & ~(kLine - 1);
        if (lines_.count(base))
            writeBack(base);
    }

    void wbinvd()
    {
        while (!recency_.empty())
            writeBack(recency_.back());
    }

    /** Dirty lines of @p worker's partition: line L belongs to
     *  worker (L / 64) mod workers. */
    std::vector<uint64_t> partition(unsigned worker, unsigned workers) const
    {
        std::vector<uint64_t> mine;
        for (const auto &entry : lines_)
            if ((entry.first / kLine) % workers == worker)
                mine.push_back(entry.first);
        return mine;
    }

    void flushPartition(unsigned worker, unsigned workers)
    {
        for (uint64_t base : partition(worker, workers))
            writeBack(base);
    }

    void dropDirty()
    {
        for (const auto &entry : lines_)
            events.emplace_back(entry.first, /*lost=*/true);
        lines_.clear();
        recency_.clear();
    }

  private:
    struct Line
    {
        std::vector<uint8_t> data;
        std::list<uint64_t>::iterator recency;
    };

    /** The dirty line at @p base, created from memory (evicting the
     *  least recently written line when full); recency refreshed. */
    std::vector<uint8_t> &lineForWrite(uint64_t base)
    {
        const auto it = lines_.find(base);
        if (it != lines_.end()) {
            recency_.splice(recency_.begin(), recency_, it->second.recency);
            return it->second.data;
        }
        if (lines_.size() * kLine >= capacity_)
            writeBack(recency_.back());
        Line line;
        line.data.resize(kLine);
        memory_.read(base, line.data);
        recency_.push_front(base);
        line.recency = recency_.begin();
        return lines_.emplace(base, std::move(line)).first->second.data;
    }

    void writeBack(uint64_t base)
    {
        const auto it = lines_.find(base);
        memory_.write(base, it->second.data);
        recency_.erase(it->second.recency);
        lines_.erase(it);
        events.emplace_back(base, /*lost=*/false);
    }

    uint64_t capacity_;
    NvramSpace &memory_;
    std::map<uint64_t, Line> lines_;
    std::list<uint64_t> recency_; ///< front = most recently written
};

/** The cache under test, recording its write-back observer calls. */
struct CacheRig : Memory
{
    explicit CacheRig(uint64_t capacity = 8 * CacheModel::kLineSize)
        : cache("L3", capacity, CacheTiming{}, space)
    {
        cache.setWritebackObserver([this](uint64_t base, bool lost) {
            events.emplace_back(base, lost);
        });
    }

    CacheModel cache;
    std::vector<LineEvent> events;
};

/** The model over its own memory, sized like a default CacheRig. */
struct ModelRig : Memory
{
    ModelCache model{8 * CacheModel::kLineSize, space};
};

/** Take and clear the events recorded so far. */
std::vector<LineEvent>
drain(std::vector<LineEvent> &events)
{
    return std::exchange(events, {});
}

TEST(LineStoreDifferential, FlatMatchesReferenceUnderRandomTraffic)
{
    CacheRig flat;
    ModelRig ref;
    CacheModel &cache = flat.cache;
    ModelCache &model = ref.model;

    // 64 addressable lines against an 8-line cache: every few writes
    // evict, so the LRU order and observer sequence get a workout.
    const uint64_t range = 64 * CacheModel::kLineSize;
    Rng rng(20260808);
    std::vector<uint8_t> buf_a(256);
    std::vector<uint8_t> buf_b(256);

    for (int step = 0; step < 20000; ++step) {
        const auto kind = rng.next(16);
        bool ordered = true; // exact observer-order comparison below
        if (kind < 6) {
            const uint64_t addr = rng.next(range - 8);
            const uint64_t value = rng();
            cache.writeU64(addr, value);
            model.writeU64(addr, value);
        } else if (kind < 9) {
            const uint64_t addr = rng.next(range - 8);
            EXPECT_EQ(cache.readU64(addr), model.readU64(addr));
        } else if (kind < 11) {
            const size_t len = 1 + rng.next(200);
            const uint64_t addr = rng.next(range - len);
            for (size_t i = 0; i < len; ++i)
                buf_a[i] = static_cast<uint8_t>(rng());
            cache.write(addr, std::span<const uint8_t>(buf_a.data(), len));
            model.write(addr, std::span<const uint8_t>(buf_a.data(), len));
        } else if (kind < 13) {
            const size_t len = 1 + rng.next(200);
            const uint64_t addr = rng.next(range - len);
            cache.read(addr, std::span<uint8_t>(buf_a.data(), len));
            model.read(addr, std::span<uint8_t>(buf_b.data(), len));
            EXPECT_TRUE(std::equal(buf_a.begin(), buf_a.begin() + len,
                                   buf_b.begin()));
        } else if (kind == 13) {
            const uint64_t addr = rng.next(range);
            EXPECT_EQ(cache.flushLine(addr), CacheTiming{}.clflushPerLine);
            model.flushLine(addr);
        } else if (kind == 14) {
            const unsigned workers = 1 + rng.next(4);
            for (unsigned w = 0; w < workers; ++w) {
                EXPECT_EQ(cache.partitionDirtyLines(w, workers),
                          model.partition(w, workers).size());
            }
        } else {
            // Partition flush drains one worker's bucket; the cache's
            // directory and the model's map iterate in different
            // orders, so compare the event sets, not the sequence.
            const unsigned workers = 1 + rng.next(4);
            const unsigned worker = rng.next(workers);
            cache.flushPartition(worker, workers);
            model.flushPartition(worker, workers);
            ordered = false;
        }

        EXPECT_EQ(cache.dirtyLines(), model.dirtyLines());
        auto fe = drain(flat.events);
        auto re = drain(model.events);
        if (!ordered) {
            std::sort(fe.begin(), fe.end());
            std::sort(re.begin(), re.end());
        }
        ASSERT_EQ(fe, re) << "observer divergence at step " << step;

        if (step % 4096 == 4095) {
            cache.wbinvd();
            model.wbinvd();
            ASSERT_EQ(drain(flat.events), drain(model.events))
                << "wbinvd drain order diverged at step " << step;
        }
    }

    // Final drain, then the NVRAM images must agree byte for byte.
    cache.wbinvd();
    model.wbinvd();
    EXPECT_EQ(drain(flat.events), drain(model.events));
    EXPECT_EQ(cache.dirtyLines(), 0u);
    EXPECT_EQ(model.dirtyLines(), 0u);
    std::vector<uint8_t> img_a(range);
    std::vector<uint8_t> img_b(range);
    flat.space.read(0, img_a);
    ref.space.read(0, img_b);
    EXPECT_EQ(img_a, img_b);
}

TEST(LineStoreDifferential, DropDirtyReportsSameLostLines)
{
    CacheRig flat;
    ModelRig ref;
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        const uint64_t addr = rng.next(32 * CacheModel::kLineSize);
        flat.cache.writeU64(addr, i);
        ref.model.writeU64(addr, i);
    }
    EXPECT_EQ(drain(flat.events), drain(ref.model.events)); // evictions
    flat.cache.dropDirty();
    ref.model.dropDirty();
    auto fe = drain(flat.events);
    auto re = drain(ref.model.events);
    std::sort(fe.begin(), fe.end());
    EXPECT_EQ(fe, re); // the model reports in address order
    EXPECT_EQ(fe.size(), 8u);
    EXPECT_EQ(flat.cache.dirtyLines(), 0u);
}

TEST(LineStoreDifferential, LineRefApiMatchesWordAccess)
{
    // A dirty line is visible through the pointer and writes through
    // it are visible to word reads; a clean line has no pointer.
    CacheRig flat;
    flat.cache.writeU64(0, 0x1122334455667788ull);
    const uint8_t *line = flat.cache.peekLine(0);
    ASSERT_NE(line, nullptr);
    uint64_t word = 0;
    std::memcpy(&word, line, 8);
    EXPECT_EQ(word, 0x1122334455667788ull);
    EXPECT_EQ(flat.cache.peekLine(CacheModel::kLineSize), nullptr);
    EXPECT_EQ(flat.cache.touchLine(CacheModel::kLineSize), nullptr);
    EXPECT_FALSE(flat.cache.findLineMut(CacheModel::kLineSize));

    auto mut = flat.cache.findLineMut(0);
    ASSERT_TRUE(mut);
    const uint64_t patched = 0xdeadbeefull;
    flat.cache.touchLineRef(mut);
    std::memcpy(mut.data + 8, &patched, 8);
    EXPECT_EQ(flat.cache.readU64(8), patched);

    // touchLine refreshes recency exactly as a write would: fill the
    // cache, touch the oldest line, and the *second*-oldest must be
    // the eviction victim.
    CacheRig lru(2 * CacheModel::kLineSize);
    lru.cache.writeU64(0 * CacheModel::kLineSize, 1);
    lru.cache.writeU64(1 * CacheModel::kLineSize, 2);
    ASSERT_NE(lru.cache.touchLine(0), nullptr);
    lru.cache.writeU64(2 * CacheModel::kLineSize, 3); // evicts line 1
    const auto events = drain(lru.events);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].first, CacheModel::kLineSize);
    EXPECT_FALSE(events[0].second);
}

// Platform presets --------------------------------------------------------

TEST(Platforms, Table2WbinvdCalibration)
{
    // Table 2: worst-case (all dirty) flush times.
    EventQueue queue;
    NvdimmConfig dimm_config;
    dimm_config.capacityBytes = 64 * kMiB;
    NvdimmModule dimm(queue, "d", dimm_config);
    NvramSpace space;
    space.addModule(dimm);

    {
        PlatformSpec spec = platformIntelC5528();
        CacheModel cache("c", spec.cachePerSocket, spec.cacheTiming, space);
        // Dirty the whole per-socket cache.
        Rng rng(7);
        cache.fillDirty(0, spec.cachePerSocket, rng);
        EXPECT_NEAR(toMillis(cache.wbinvdCost()), 2.8, 0.15);
        // clflush over both sockets' lines, serial software loop.
        const uint64_t total_lines = 2 * spec.cachePerSocket / 64;
        EXPECT_NEAR(toMillis(cache.clflushLoopCost(total_lines)), 2.3, 0.2);
        EXPECT_NEAR(toMillis(cache.theoreticalBestCost()), 0.79, 0.05);
    }
    {
        PlatformSpec spec = platformAmd4180();
        CacheModel cache("c", spec.cachePerSocket, spec.cacheTiming, space);
        Rng rng(8);
        cache.fillDirty(0, spec.cachePerSocket, rng);
        EXPECT_NEAR(toMillis(cache.wbinvdCost()), 1.3, 0.1);
        const uint64_t lines = spec.cachePerSocket / 64;
        EXPECT_NEAR(toMillis(cache.clflushLoopCost(lines)), 1.6, 0.2);
        EXPECT_NEAR(toMillis(cache.theoreticalBestCost()), 0.65, 0.05);
    }
}

TEST(Platforms, AllFourPresetsSane)
{
    for (const PlatformSpec &spec : allPlatforms()) {
        EXPECT_FALSE(spec.name.empty());
        EXPECT_GE(spec.logicalCpus(), 2u);
        EXPECT_GT(spec.cachePerSocket, 0u);
        EXPECT_GT(spec.load.busyWatts, spec.load.idleWatts);
        // Fig. 8: save time must land under 5 ms everywhere, which
        // requires the wbinvd calibration to stay under ~4.5 ms.
        EXPECT_LT(toMillis(spec.cacheTiming.wbinvdFixed), 4.5) << spec.name;
    }
}

// MachineModel ------------------------------------------------------------

struct MachineFixture : ::testing::Test
{
    MachineFixture()
    {
        NvdimmConfig config;
        config.capacityBytes = 64 * kMiB;
        dimm = std::make_unique<NvdimmModule>(queue, "d", config);
        space.addModule(*dimm);
        machine = std::make_unique<MachineModel>(
            queue, platformIntelC5528(), space);
    }

    EventQueue queue;
    std::unique_ptr<NvdimmModule> dimm;
    NvramSpace space;
    std::unique_ptr<MachineModel> machine;
};

TEST_F(MachineFixture, TopologyMatchesSpec)
{
    EXPECT_EQ(machine->coreCount(), 16u); // 2 sockets x 4 cores x 2 ht
    EXPECT_EQ(machine->socketCount(), 2u);
    EXPECT_EQ(machine->core(0).socket, 0u);
    EXPECT_EQ(machine->core(15).socket, 1u);
    EXPECT_EQ(machine->core(3).context.apicId, 3u);
    EXPECT_EQ(machine->totalCacheBytes(), 16 * kMiB);
}

TEST_F(MachineFixture, CacheOfCoreMapsToSocket)
{
    EXPECT_EQ(&machine->cacheOfCore(0), &machine->socketCache(0));
    EXPECT_EQ(&machine->cacheOfCore(15), &machine->socketCache(1));
}

TEST_F(MachineFixture, FillCachesDirtyDistributes)
{
    Rng rng(9);
    machine->fillCachesDirty(32 * kKiB, rng);
    EXPECT_EQ(machine->totalDirtyBytes(), 64 * kKiB);
    EXPECT_EQ(machine->socketCache(0).dirtyBytes(), 32 * kKiB);
    EXPECT_EQ(machine->socketCache(1).dirtyBytes(), 32 * kKiB);
}

TEST_F(MachineFixture, PowerLossScrubsRunningState)
{
    Rng rng(10);
    machine->randomizeContexts(rng);
    machine->fillCachesDirty(4 * kKiB, rng);
    const CpuContext before = machine->core(1).context;

    machine->onPowerLost();
    EXPECT_FALSE(machine->powerOn());
    EXPECT_TRUE(machine->allHalted());
    EXPECT_NE(machine->core(1).context, before); // registers gone
    EXPECT_EQ(machine->totalDirtyBytes(), 0u);   // dirty lines dropped
}

TEST_F(MachineFixture, HaltedCoreKeepsContextAcrossPowerLoss)
{
    Rng rng(11);
    machine->randomizeContexts(rng);
    const CpuContext ctx = machine->core(2).context;
    machine->core(2).halted = true;
    machine->onPowerLost();
    // A halted core's context was already saved elsewhere; the model
    // keeps it to represent "no longer running" (the resume block is
    // authoritative). Un-halted cores lose theirs.
    EXPECT_EQ(machine->core(2).context, ctx);
}

TEST_F(MachineFixture, ResetForBootClearsHalt)
{
    machine->onPowerLost();
    machine->resetForBoot();
    EXPECT_TRUE(machine->powerOn());
    EXPECT_FALSE(machine->allHalted());
    EXPECT_FALSE(machine->core(0).halted);
}

TEST_F(MachineFixture, InterruptsDeliverAfterLatency)
{
    Tick delivered = 0;
    unsigned who = 99;
    machine->interrupts().sendIpi(3, [&](unsigned cpu) {
        delivered = queue.now();
        who = cpu;
    });
    queue.run();
    EXPECT_EQ(delivered, machine->spec().ipiLatency);
    EXPECT_EQ(who, 3u);
    EXPECT_EQ(machine->interrupts().ipisSent(), 1u);
}

} // namespace
} // namespace wsp
