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
 * The decoder reads many slots per reader call and skips never-written
 * ones before their CRC; a per-slot reference decoder holds every
 * field of its result, notes included, to the slot-by-slot reading.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "trace/flight_recorder.h"
#include "util/checksum.h"

namespace wsp::trace {
namespace {

/** "WSPFLREC" read little-endian: the header line's magic. */
constexpr uint64_t kHeaderMagic = 0x4345524c46505357ull;

uint64_t
loadU64(const uint8_t *bytes)
{
    uint64_t value = 0;
    for (int i = 7; i >= 0; --i)
        value = (value << 8) | bytes[i];
    return value;
}

void
storeU64(uint8_t *bytes, uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<uint8_t>(value >> (8 * i));
}

/**
 * The reference decoder: frDecode's taxonomy read the plain way, one
 * reader call per slot and a CRC over every readable slot, in window
 * order and then slot order. frDecode must produce the same result.
 */
FrDecodeResult
perSlotDecode(const FrByteReader &read, uint64_t header_addr)
{
    FrDecodeResult result;
    uint8_t line[kFrHeaderBytes];
    if (!read(header_addr, line)) {
        result.notes.push_back("header line not in the saved image");
        return result;
    }
    const bool magic_ok = loadU64(line) == kHeaderMagic;
    const bool header_ok =
        magic_ok && loadU64(line + 8) == 1 &&
        crc64(std::span<const uint8_t>(line, 56)) == loadU64(line + 56);
    result.headerFound = magic_ok;
    result.headerValid = header_ok;
    if (!magic_ok) {
        result.notes.push_back("no recorder header magic");
        return result;
    }
    if (!header_ok) {
        result.notes.push_back(
            "header line torn (magic intact, CRC mismatch): nothing "
            "was provably published");
        return result;
    }
    const uint64_t capacity = loadU64(line + 16);
    const uint64_t head = loadU64(line + 32);
    const uint64_t tail = loadU64(line + 48);
    if (capacity < 2 || (capacity & (capacity - 1)) != 0 ||
        capacity > header_addr / kFrRecordBytes) {
        result.headerValid = false;
        result.notes.push_back("header carries an impossible capacity");
        return result;
    }
    result.generation = loadU64(line + 24);
    result.headSeq = head;
    result.tailSeq = tail;
    result.totalEmitted = loadU64(line + 40);
    result.capacity = static_cast<size_t>(capacity);
    result.base = header_addr - capacity * kFrRecordBytes;

    uint64_t window_start = head >= capacity ? head - capacity : 0;
    window_start = std::max(window_start, std::min(tail, head));
    const uint64_t inflight_slot = head % capacity;
    std::vector<bool> in_window(result.capacity, false);
    for (uint64_t expected = window_start; expected < head; ++expected) {
        const uint64_t slot = expected % capacity;
        in_window[slot] = true;
        uint8_t bytes[kFrRecordBytes];
        if (!read(result.base + slot * kFrRecordBytes, bytes)) {
            ++result.unsavedSlots;
            continue;
        }
        FrRecord record;
        if (frDecodeRecord(bytes, &record)) {
            if (record.seq == expected) {
                result.records.push_back(record);
                continue;
            }
            if (record.seq == head && slot == inflight_slot) {
                result.unpublishedTail = true;
                continue;
            }
            if (record.seq < expected) {
                ++result.staleSlots;
                result.notes.push_back(
                    "slot " + std::to_string(slot) + " holds stale seq " +
                    std::to_string(record.seq) + " where " +
                    std::to_string(expected) + " was published");
                ++result.tornSlots;
                continue;
            }
        } else if (slot == inflight_slot) {
            result.unpublishedTail = true;
            continue;
        }
        ++result.tornSlots;
        result.notes.push_back(
            "slot " + std::to_string(slot) +
            " torn inside the published window (expected seq " +
            std::to_string(expected) + ")");
    }
    for (uint64_t slot = 0; slot < capacity; ++slot) {
        if (in_window[slot])
            continue;
        uint8_t bytes[kFrRecordBytes];
        if (!read(result.base + slot * kFrRecordBytes, bytes))
            continue;
        FrRecord record;
        if (frDecodeRecord(bytes, &record)) {
            if (record.seq == head && slot == inflight_slot)
                result.unpublishedTail = true;
            else
                ++result.staleSlots;
        }
    }
    std::sort(result.records.begin(), result.records.end(),
              [](const FrRecord &a, const FrRecord &b) {
                  return a.seq < b.seq;
              });
    return result;
}

/** Every field of two decodes is equal, records and notes included. */
void
expectSameDecode(const FrDecodeResult &got, const FrDecodeResult &want)
{
    EXPECT_EQ(got.headerFound, want.headerFound);
    EXPECT_EQ(got.headerValid, want.headerValid);
    EXPECT_EQ(got.generation, want.generation);
    EXPECT_EQ(got.headSeq, want.headSeq);
    EXPECT_EQ(got.tailSeq, want.tailSeq);
    EXPECT_EQ(got.totalEmitted, want.totalEmitted);
    EXPECT_EQ(got.capacity, want.capacity);
    EXPECT_EQ(got.base, want.base);
    EXPECT_EQ(got.unpublishedTail, want.unpublishedTail);
    EXPECT_EQ(got.tornSlots, want.tornSlots);
    EXPECT_EQ(got.unsavedSlots, want.unsavedSlots);
    EXPECT_EQ(got.staleSlots, want.staleSlots);
    EXPECT_EQ(got.notes, want.notes);
    ASSERT_EQ(got.records.size(), want.records.size());
    for (size_t i = 0; i < got.records.size(); ++i) {
        const FrRecord &a = got.records[i];
        const FrRecord &b = want.records[i];
        EXPECT_EQ(a.seq, b.seq) << "record " << i;
        EXPECT_EQ(a.generation, b.generation) << "record " << i;
        EXPECT_EQ(a.simTick, b.simTick) << "record " << i;
        EXPECT_EQ(a.a0, b.a0) << "record " << i;
        EXPECT_EQ(a.a1, b.a1) << "record " << i;
        EXPECT_EQ(a.event, b.event) << "record " << i;
        EXPECT_EQ(a.category, b.category) << "record " << i;
    }
}

class FlightRecorderTest : public ::testing::Test
{
  protected:
    static constexpr size_t kCap = 16;        ///< ring records
    static constexpr uint64_t kBase = 4096;   ///< slot 0 address

    void SetUp() override { build(kCap); }

    /** A fresh all-zero NVRAM holding a ring of @p capacity records. */
    void
    build(size_t capacity)
    {
        cap_ = capacity;
        nvram_.assign(kBase + (cap_ + 1) * kFrRecordBytes, 0);

        FlightRecorder::Backing backing;
        backing.base = kBase;
        backing.capacityRecords = cap_;
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
        return kBase + cap_ * kFrRecordBytes;
    }

    /** Address of ring slot @p slot in the synthetic NVRAM. */
    uint8_t *
    slotAt(uint64_t slot)
    {
        return nvram_.data() + kBase + slot * kFrRecordBytes;
    }

    /** frDecode and the per-slot reference agree on the ring. */
    void
    expectDecodeMatchesReference(uint64_t floor = 0) const
    {
        expectSameDecode(frDecode(reader(floor), headerAddr()),
                         perSlotDecode(reader(floor), headerAddr()));
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

    size_t cap_ = kCap; ///< ring records of the recorder built last
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

TEST_F(FlightRecorderTest, HeaderWhoseCapacityOverflowsIsRefused)
{
    // A CRC-valid header whose capacity cannot fit below it. From 2^58
    // on, capacity * 64 wraps modulo 2^64 (to 0 for the powers of two
    // here), so a guard that multiplies would take the ring to fit.
    emitN(3);
    uint8_t *line = nvram_.data() + headerAddr();
    for (const uint64_t capacity :
         {uint64_t{1} << 20, uint64_t{1} << 58, uint64_t{1} << 62,
          uint64_t{1} << 63}) {
        SCOPED_TRACE("capacity " + std::to_string(capacity));
        storeU64(line + 16, capacity);
        storeU64(line + 56, crc64(std::span<const uint8_t>(line, 56)));
        const FrDecodeResult result = decode();
        EXPECT_TRUE(result.headerFound);
        EXPECT_FALSE(result.headerValid);
        EXPECT_TRUE(result.records.empty());
        EXPECT_EQ(result.notes,
                  std::vector<std::string>{
                      "header carries an impossible capacity"});
    }
}

TEST_F(FlightRecorderTest, DecodeMatchesPerSlotReference)
{
    {
        SCOPED_TRACE("mostly never-written ring");
        emitN(5);
        expectDecodeMatchesReference();
    }
    {
        SCOPED_TRACE("wrapped ring");
        emitN(static_cast<unsigned>(2 * kCap + 3));
        expectDecodeMatchesReference();
    }

    // A full window: the slot the next record lands in holds the
    // oldest published record, and may hold the next record whole,
    // torn, or zeroed.
    const uint64_t head = decode().headSeq;
    const uint64_t inflight = head % kCap;
    FrRecord next;
    next.seq = head;
    next.event = FrEvent::SaveHalt;
    frEncodeRecord(next, {slotAt(inflight), kFrRecordBytes});
    {
        SCOPED_TRACE("complete in-flight tail");
        expectDecodeMatchesReference();
        EXPECT_TRUE(decode().unpublishedTail);
    }
    slotAt(inflight)[20] ^= 0xa5;
    {
        SCOPED_TRACE("torn in-flight tail");
        expectDecodeMatchesReference();
        EXPECT_TRUE(decode().unpublishedTail);
    }
    std::memset(slotAt(inflight), 0, kFrRecordBytes);
    {
        SCOPED_TRACE("zeroed in-flight slot");
        expectDecodeMatchesReference();
        EXPECT_TRUE(decode().sound());
    }

    // Published slots torn and zeroed: both are torn.
    slotAt((head - 2) % kCap)[33] ^= 0xff;
    std::memset(slotAt((head - 5) % kCap), 0, kFrRecordBytes);
    {
        SCOPED_TRACE("torn and zeroed published slots");
        expectDecodeMatchesReference();
        EXPECT_EQ(decode().tornSlots, 2u);
    }

    // A reader that refuses part of the ring refuses the many-slot
    // read too, and the refused slots are unsaved.
    for (const uint64_t floor_slot : {1u, 6u, 13u}) {
        SCOPED_TRACE("reader refusing below slot " +
                     std::to_string(floor_slot));
        const uint64_t floor = kBase + floor_slot * kFrRecordBytes;
        expectDecodeMatchesReference(floor);
        EXPECT_GT(frDecode(reader(floor), headerAddr()).unsavedSlots, 0u);
    }

    // After a contiguity restart the header vouches only for the two
    // newest records: the older records around them are stale, and a
    // complete next record outside that window is the in-flight tail.
    build(kCap);
    emitN(static_cast<unsigned>(kCap + 3));
    recorder_->restartContiguity();
    emitN(2);
    {
        SCOPED_TRACE("stale records outside a short window");
        expectDecodeMatchesReference();
        EXPECT_EQ(decode().staleSlots, kCap - 2);
    }
    next.seq = decode().headSeq;
    frEncodeRecord(next, {slotAt(next.seq % kCap), kFrRecordBytes});
    {
        SCOPED_TRACE("in-flight tail outside a short window");
        expectDecodeMatchesReference();
        EXPECT_TRUE(decode().unpublishedTail);
    }

    // Every tear position of TearPositionSweepNeverUnsound.
    build(kCap);
    emitN(static_cast<unsigned>(kCap + 7));
    for (uint64_t tear = 0; tear <= nvram_.size(); tear += kFrRecordBytes) {
        SCOPED_TRACE("tear position " + std::to_string(tear));
        expectDecodeMatchesReference(tear);
    }
}

TEST_F(FlightRecorderTest, DecodeMatchesPerSlotReferenceAcrossChunks)
{
    // A ring twice the default size is read a default-size chunk at a
    // time. The published window wraps from the second chunk into the
    // first, and the in-flight slot opens it.
    build(2 * kFrDefaultRecords);
    emitN(static_cast<unsigned>(3 * kFrDefaultRecords + 100));
    {
        SCOPED_TRACE("wrapped two-chunk ring");
        expectDecodeMatchesReference();
        EXPECT_EQ(decode().records.size(), cap_);
    }
    std::memset(slotAt(50), 0, kFrRecordBytes);
    slotAt(1500)[9] ^= 0x01;
    {
        SCOPED_TRACE("zeroed and torn slots, one in each chunk");
        expectDecodeMatchesReference();
        EXPECT_EQ(decode().tornSlots, 2u);
    }
    for (const uint64_t floor_slot : {500u, 1024u, 1500u}) {
        SCOPED_TRACE("reader refusing below slot " +
                     std::to_string(floor_slot));
        expectDecodeMatchesReference(kBase + floor_slot * kFrRecordBytes);
    }
}

} // namespace
} // namespace wsp::trace
