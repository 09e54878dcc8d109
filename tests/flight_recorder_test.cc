/**
 * @file
 * Unit tests for the NVRAM black-box flight recorder.
 *
 * Each test builds its own recorder over a synthetic byte-array
 * backing so every publication step is observable: codec round-trips,
 * the write-record-then-publish-header discipline, staging while the
 * backing is unwritable (and the tail-gap bookkeeping when staging
 * overflows), contiguity restarts, and — the acceptance sweep — a
 * decode at every 64-byte tear position over the recorder region,
 * which must never report a torn slot inside the published window.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "trace/flight_recorder.h"
#include "util/checksum.h"

namespace wsp::trace {
namespace {

class FlightRecorderTest : public ::testing::Test
{
  protected:
    static constexpr size_t kCap = 16;        ///< ring records
    static constexpr uint64_t kBase = 4096;   ///< slot 0 address

    void
    SetUp() override
    {
        nvram_.assign(kBase + (kCap + 1) * kFrRecordBytes, 0);

        FlightRecorder::Backing backing;
        backing.base = kBase;
        backing.capacityRecords = kCap;
        backing.writeLine = [this](uint64_t addr,
                                   std::span<const uint8_t> bytes) {
            ASSERT_LE(addr + bytes.size(), nvram_.size());
            std::memcpy(nvram_.data() + addr, bytes.data(),
                        bytes.size());
        };
        backing.writable = [this] { return writable_; };
        recorder_ = std::make_unique<FlightRecorder>(
            std::move(backing), 7, [this] { return tick_; });
    }

    uint64_t
    headerAddr() const
    {
        return kBase + kCap * kFrRecordBytes;
    }

    /** Reader over the synthetic NVRAM, refusing below @p floor. */
    FrByteReader
    reader(uint64_t floor = 0) const
    {
        return [this, floor](uint64_t addr, std::span<uint8_t> out) {
            if (addr < floor || addr + out.size() > nvram_.size())
                return false;
            std::memcpy(out.data(), nvram_.data() + addr, out.size());
            return true;
        };
    }

    FrDecodeResult
    decode() const
    {
        return frDecode(reader(), headerAddr());
    }

    void
    emitN(unsigned n, FrEvent event = FrEvent::KvBatch)
    {
        for (unsigned i = 0; i < n; ++i)
            frEmit(recorder_.get(), event, Category::Apps, i, i * 10);
    }

    std::vector<uint8_t> nvram_;
    bool writable_ = true;
    uint64_t tick_ = 0; ///< simulated time the recorder stamps
    std::unique_ptr<FlightRecorder> recorder_;
};

TEST_F(FlightRecorderTest, RecordCodecRoundTrip)
{
    FrRecord record;
    record.seq = 0x1122334455667788ull;
    record.generation = 3;
    record.simTick = 1234567;
    record.a0 = 42;
    record.a1 = ~0ull;
    record.event = FrEvent::SaveMarkerStamp;
    record.category = Category::Nvram;

    uint8_t line[kFrRecordBytes];
    frEncodeRecord(record, line);
    FrRecord back;
    ASSERT_TRUE(frDecodeRecord(line, &back));
    EXPECT_EQ(back.seq, record.seq);
    EXPECT_EQ(back.generation, record.generation);
    EXPECT_EQ(back.simTick, record.simTick);
    EXPECT_EQ(back.a0, record.a0);
    EXPECT_EQ(back.a1, record.a1);
    EXPECT_EQ(back.event, record.event);
    EXPECT_EQ(back.category, record.category);

    // Bytes 24-31 are reserved zero. A slot written when they carried
    // a host clock (CRC over them) decodes to the same record.
    for (size_t i = 24; i < 32; ++i)
        EXPECT_EQ(line[i], 0u) << "reserved byte " << i;
    uint8_t old_line[kFrRecordBytes];
    std::memcpy(old_line, line, kFrRecordBytes);
    old_line[24] = 0x5a;
    old_line[31] = 0xa5;
    const uint64_t crc = crc64(std::span<const uint8_t>(old_line, 56));
    for (size_t i = 0; i < 8; ++i)
        old_line[56 + i] = static_cast<uint8_t>(crc >> (8 * i));
    FrRecord old_back;
    ASSERT_TRUE(frDecodeRecord(old_line, &old_back));
    EXPECT_EQ(old_back.seq, record.seq);
    EXPECT_EQ(old_back.simTick, record.simTick);
    EXPECT_EQ(old_back.a0, record.a0);
    EXPECT_EQ(old_back.a1, record.a1);

    // Any flipped payload byte must fail the CRC.
    line[17] ^= 0x40;
    EXPECT_FALSE(frDecodeRecord(line, &back));
}

TEST_F(FlightRecorderTest, PublishedRecordsDecodeInOrder)
{
    tick_ = 4242;
    emitN(5);
    const FrDecodeResult result = decode();
    ASSERT_TRUE(result.headerFound);
    ASSERT_TRUE(result.headerValid);
    EXPECT_TRUE(result.sound());
    EXPECT_EQ(result.generation, 7u);
    EXPECT_EQ(result.capacity, kCap);
    ASSERT_EQ(result.records.size(), 5u);
    for (size_t i = 1; i < result.records.size(); ++i)
        EXPECT_EQ(result.records[i].seq,
                  result.records[i - 1].seq + 1);
    for (size_t i = 0; i < result.records.size(); ++i) {
        EXPECT_EQ(result.records[i].seq, i); // numbering starts at 0
        EXPECT_EQ(result.records[i].simTick, 4242u);
        EXPECT_EQ(result.records[i].event, FrEvent::KvBatch);
        EXPECT_EQ(result.records[i].a0, i);
        EXPECT_EQ(result.records[i].a1, i * 10);
    }
    EXPECT_EQ(result.headSeq - result.tailSeq, 5u);
    EXPECT_EQ(result.tornSlots, 0u);
    EXPECT_EQ(result.unsavedSlots, 0u);
}

TEST_F(FlightRecorderTest, WrapKeepsNewestCapacityRecords)
{
    emitN(static_cast<unsigned>(2 * kCap + 3));
    const FrDecodeResult result = decode();
    ASSERT_TRUE(result.headerValid);
    EXPECT_TRUE(result.sound());
    ASSERT_EQ(result.records.size(), kCap);
    EXPECT_EQ(result.records.back().seq + 1, result.headSeq);
}

TEST_F(FlightRecorderTest, InFlightTailSlotIsAcceptable)
{
    emitN(static_cast<unsigned>(kCap + 2));
    FrDecodeResult result = decode();
    ASSERT_TRUE(result.sound());

    // A crash between the slot write and the header publish: the next
    // record reached its slot, the header still vouches only for the
    // previous head.
    FrRecord inflight;
    inflight.seq = result.headSeq;
    inflight.event = FrEvent::SaveHalt;
    inflight.category = Category::Core;
    uint8_t line[kFrRecordBytes];
    frEncodeRecord(inflight, line);
    const uint64_t slot = inflight.seq % kCap;
    std::memcpy(nvram_.data() + kBase + slot * kFrRecordBytes, line,
                kFrRecordBytes);

    result = decode();
    EXPECT_TRUE(result.sound());
    EXPECT_TRUE(result.unpublishedTail);
    EXPECT_EQ(result.tornSlots, 0u);

    // The same slot holding torn garbage is equally acceptable.
    std::memset(nvram_.data() + kBase + slot * kFrRecordBytes + 20, 0xa5,
                16);
    result = decode();
    EXPECT_TRUE(result.sound());
}

TEST_F(FlightRecorderTest, TornSlotInsideWindowIsUnsound)
{
    emitN(static_cast<unsigned>(kCap + 2));
    FrDecodeResult before = decode();
    ASSERT_TRUE(before.sound());

    // Corrupt a *published* slot (two behind the head).
    const uint64_t victim = (before.headSeq - 2) % kCap;
    nvram_[kBase + victim * kFrRecordBytes + 33] ^= 0xff;

    const FrDecodeResult result = decode();
    EXPECT_FALSE(result.sound());
    EXPECT_GE(result.tornSlots, 1u);
    EXPECT_FALSE(result.notes.empty());
}

TEST_F(FlightRecorderTest, HeaderAheadOfSlotIsUnsound)
{
    // The planted-bug shape: a header that vouches for a record whose
    // slot line never reached NVRAM (publish before write). Forge it
    // by zeroing the newest record's slot.
    emitN(static_cast<unsigned>(kCap + 1));
    const FrDecodeResult before = decode();
    const uint64_t newest = (before.headSeq - 1) % kCap;
    std::memset(nvram_.data() + kBase + newest * kFrRecordBytes, 0,
                kFrRecordBytes);

    const FrDecodeResult result = decode();
    EXPECT_FALSE(result.sound());
    EXPECT_GE(result.tornSlots, 1u);
}

TEST_F(FlightRecorderTest, StagedWhileUnwritableDrainsOnFlush)
{
    writable_ = false;
    emitN(3, FrEvent::NvdimmSaveStart);

    // Nothing was published: the region is still all zeros.
    FrDecodeResult result = decode();
    EXPECT_FALSE(result.headerFound);
    EXPECT_TRUE(result.sound()); // nothing provable, nothing violated

    writable_ = true;
    recorder_->flushStaged();
    result = decode();
    ASSERT_TRUE(result.headerValid);
    EXPECT_TRUE(result.sound());
    ASSERT_EQ(result.records.size(), 3u);
    for (const FrRecord &record : result.records)
        EXPECT_EQ(record.event, FrEvent::NvdimmSaveStart);
}

TEST_F(FlightRecorderTest, StagedOverflowDropsOldestAndStaysSound)
{
    writable_ = false;
    emitN(static_cast<unsigned>(kCap + 5));
    EXPECT_EQ(recorder_->stagedDropped(), 5u);

    writable_ = true;
    recorder_->flushStaged();
    const FrDecodeResult result = decode();
    ASSERT_TRUE(result.headerValid);
    // The dropped records leave a gap below the published window; the
    // header's tail must exclude them so the decode stays sound.
    EXPECT_TRUE(result.sound());
    EXPECT_EQ(result.records.size(), kCap);
    EXPECT_EQ(result.headSeq - result.tailSeq, kCap);
}

TEST_F(FlightRecorderTest, GenerationStampsFollowSetGeneration)
{
    emitN(1);
    recorder_->setGeneration(8);
    emitN(1);
    const FrDecodeResult result = decode();
    ASSERT_EQ(result.records.size(), 2u);
    EXPECT_EQ(result.records[0].generation, 7u);
    EXPECT_EQ(result.records[1].generation, 8u);
    EXPECT_EQ(result.generation, 8u);
}

TEST_F(FlightRecorderTest, HeaderScanFindsRingBelowOtherStructures)
{
    emitN(4);
    // Scan from the top of the synthetic NVRAM, as a tool would scan
    // an image without layout knowledge.
    const auto found =
        frFindHeader(reader(), nvram_.size(), nvram_.size());
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, headerAddr());
    const FrDecodeResult result = frDecode(reader(), *found);
    EXPECT_TRUE(result.sound());
    EXPECT_EQ(result.records.size(), 4u);
}

/**
 * The acceptance sweep: simulate a save torn at every 64-byte
 * boundary of the recorder region. Top-down flash programming means a
 * partial save persists a *suffix* [tear, top); the byte reader
 * refuses everything below the tear, exactly like the image reader
 * refuses bytes outside a module's programmed suffix. No tear
 * position may yield a torn slot inside the published window.
 */
TEST_F(FlightRecorderTest, TearPositionSweepNeverUnsound)
{
    emitN(static_cast<unsigned>(kCap + 7)); // wrapped, full window
    size_t decoded_at_zero = 0;
    for (uint64_t tear = 0; tear <= nvram_.size();
         tear += kFrRecordBytes) {
        const FrDecodeResult result =
            frDecode(reader(tear), headerAddr());
        EXPECT_TRUE(result.sound())
            << "torn decode at tear position " << tear;
        if (tear == 0) {
            decoded_at_zero = result.records.size();
        } else if (result.headerFound) {
            // Slots below the tear are refused, never misread.
            EXPECT_EQ(result.records.size() + result.unsavedSlots,
                      decoded_at_zero)
                << "at tear position " << tear;
        } else {
            // The header line itself is below the tear: nothing is
            // provable and nothing may be claimed.
            EXPECT_TRUE(result.records.empty());
        }
    }
    // The sweep must actually exercise both regimes.
    EXPECT_EQ(decoded_at_zero, kCap);
}

TEST_F(FlightRecorderTest, RestartContiguityAfterColdBoot)
{
    // A cold/fallback boot loses the DRAM the published records lived
    // in; the next save programs their zeroed slots. Without the
    // contiguity restart the old header would vouch for them — torn.
    emitN(6);
    const FrDecodeResult before = decode();
    ASSERT_TRUE(before.sound());
    std::fill(nvram_.begin() + static_cast<ptrdiff_t>(kBase),
              nvram_.begin() +
                  static_cast<ptrdiff_t>(kBase + kCap * kFrRecordBytes),
              uint8_t{0});

    recorder_->restartContiguity();
    emitN(2);
    const FrDecodeResult result = decode();
    ASSERT_TRUE(result.headerValid);
    EXPECT_TRUE(result.sound());
    ASSERT_EQ(result.records.size(), 2u);
    EXPECT_EQ(result.headSeq - result.tailSeq, 2u);
}

} // namespace
} // namespace wsp::trace
