#include "trace/flight_recorder.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <memory>

#include "util/checksum.h"
#include "util/logging.h"
#include "util/units.h"

namespace wsp::trace {

namespace {

/** "WSPFLREC" read little-endian from the header line. */
constexpr uint64_t kFrMagic = 0x4345524c46505357ull;
constexpr uint64_t kFrVersion = 1;

/** Payload bytes covered by the per-line CRC (the final 8 carry it). */
constexpr size_t kCrcSpan = 56;

// A never-written slot is all zero and cannot decode: the CRC of 56
// zero bytes is not the 0 its CRC field holds. frDecode relies on this
// to drop such slots without hashing them.
static_assert(crc64(std::array<uint8_t, kCrcSpan>{}) ==
              0x1ae4b37db877754cull);

/** All of a slot's bytes are zero: it was never written. */
bool
neverWritten(std::span<const uint8_t> slot)
{
    uint64_t any = 0;
    for (size_t i = 0; i < kFrRecordBytes; i += sizeof(uint64_t)) {
        uint64_t word;
        std::memcpy(&word, slot.data() + i, sizeof(word));
        any |= word;
    }
    return any == 0;
}

void
storeU64(std::span<uint8_t> out, size_t offset, uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        out[offset + i] = static_cast<uint8_t>(value >> (8 * i));
}

uint64_t
loadU64(std::span<const uint8_t> in, size_t offset)
{
    uint64_t value = 0;
    for (int i = 7; i >= 0; --i)
        value = (value << 8) | in[offset + i];
    return value;
}

void
storeU16(std::span<uint8_t> out, size_t offset, uint16_t value)
{
    out[offset] = static_cast<uint8_t>(value);
    out[offset + 1] = static_cast<uint8_t>(value >> 8);
}

uint16_t
loadU16(std::span<const uint8_t> in, size_t offset)
{
    return static_cast<uint16_t>(in[offset] |
                                 (in[offset + 1] << 8));
}

struct Header
{
    uint64_t capacity = 0;
    uint64_t generation = 0;
    uint64_t headSeq = 0;
    uint64_t tailSeq = 0;
    uint64_t totalEmitted = 0;
};

void
encodeHeader(const Header &header, std::span<uint8_t> out)
{
    std::memset(out.data(), 0, kFrHeaderBytes);
    storeU64(out, 0, kFrMagic);
    storeU64(out, 8, kFrVersion);
    storeU64(out, 16, header.capacity);
    storeU64(out, 24, header.generation);
    storeU64(out, 32, header.headSeq);
    storeU64(out, 40, header.totalEmitted);
    storeU64(out, 48, header.tailSeq);
    storeU64(out, 56, crc64(out.first(kCrcSpan)));
}

/** @return false when magic or CRC fail ( *magic_ok still reports
 *  whether the magic alone matched). */
bool
decodeHeader(std::span<const uint8_t> bytes, Header *out, bool *magic_ok)
{
    *magic_ok = loadU64(bytes, 0) == kFrMagic;
    if (!*magic_ok || loadU64(bytes, 8) != kFrVersion)
        return false;
    if (crc64(bytes.first(kCrcSpan)) != loadU64(bytes, 56))
        return false;
    out->capacity = loadU64(bytes, 16);
    out->generation = loadU64(bytes, 24);
    out->headSeq = loadU64(bytes, 32);
    out->totalEmitted = loadU64(bytes, 40);
    out->tailSeq = loadU64(bytes, 48);
    return true;
}

} // namespace

const char *
frEventName(FrEvent event)
{
    switch (event) {
      case FrEvent::None:
        return "none";
      case FrEvent::BootEpoch:
        return "boot epoch";
      case FrEvent::SaveBegin:
        return "save begin";
      case FrEvent::SaveTierCut:
        return "save tier cut";
      case FrEvent::SaveFlushWave:
        return "flush wave";
      case FrEvent::SaveMarkerStamp:
        return "marker stamp";
      case FrEvent::SaveNvdimmInitiate:
        return "nvdimm save initiate";
      case FrEvent::SaveCommandRetry:
        return "save command retry";
      case FrEvent::SaveHalt:
        return "halt";
      case FrEvent::DeviceSuspendWave:
        return "device suspend wave";
      case FrEvent::HealthDegrade:
        return "health degrade";
      case FrEvent::MediaFault:
        return "media fault";
      case FrEvent::RegionSalvaged:
        return "region salvaged";
      case FrEvent::RegionQuarantined:
        return "region quarantined";
      case FrEvent::RegionRecovered:
        return "region recovered";
      case FrEvent::SalvageColdBoot:
        return "salvage cold boot";
      case FrEvent::FallbackColdBoot:
        return "fallback cold boot";
      case FrEvent::NvdimmSaveStart:
        return "nvdimm save start";
      case FrEvent::NvdimmSaveDone:
        return "nvdimm save done";
      case FrEvent::NvdimmSaveFailed:
        return "nvdimm save failed";
      case FrEvent::RestoreBegin:
        return "restore begin";
      case FrEvent::NvdimmRestoreDone:
        return "nvdimm restore done";
      case FrEvent::MarkerChecked:
        return "marker checked";
      case FrEvent::LazyPageIn:
        return "lazy page-in";
      case FrEvent::ContextsRestored:
        return "contexts restored";
      case FrEvent::RestoreDone:
        return "restore done";
      case FrEvent::KvBatch:
        return "kv batch";
    }
    return "unknown";
}

void
frEncodeRecord(const FrRecord &record, std::span<uint8_t> out)
{
    WSP_CHECK(out.size() >= kFrRecordBytes);
    std::memset(out.data(), 0, kFrRecordBytes);
    storeU64(out, 0, record.seq);
    storeU64(out, 8, record.generation);
    storeU64(out, 16, record.simTick);
    // Bytes 24-31 are reserved zero; older rings carry a host clock
    // there, so decode ignores them.
    storeU64(out, 32, record.a0);
    storeU64(out, 40, record.a1);
    storeU16(out, 48, static_cast<uint16_t>(record.event));
    out[50] = static_cast<uint8_t>(record.category);
    storeU64(out, 56, crc64(out.first(kCrcSpan)));
}

bool
frDecodeRecord(std::span<const uint8_t> bytes, FrRecord *out)
{
    if (bytes.size() < kFrRecordBytes)
        return false;
    if (crc64(bytes.first(kCrcSpan)) != loadU64(bytes, 56))
        return false;
    out->seq = loadU64(bytes, 0);
    out->generation = loadU64(bytes, 8);
    out->simTick = loadU64(bytes, 16);
    out->a0 = loadU64(bytes, 32);
    out->a1 = loadU64(bytes, 40);
    out->event = static_cast<FrEvent>(loadU16(bytes, 48));
    out->category = static_cast<Category>(bytes[50]);
    return true;
}

FlightRecorder::FlightRecorder(Backing backing, uint64_t generation,
                               std::function<uint64_t()> now)
    : backing_(std::move(backing)), generation_(generation),
      now_(std::move(now))
{
    WSP_CHECKF(backing_.capacityRecords >= 2 &&
                   (backing_.capacityRecords &
                    (backing_.capacityRecords - 1)) == 0,
               "flight recorder ring must be a power of two (got %zu)",
               backing_.capacityRecords);
    WSP_CHECK(backing_.writeLine && backing_.writable && now_);
}

void
FlightRecorder::restartContiguity()
{
    // Records published before the power loss lived in DRAM; a boot
    // that did not stream the image back (cold, fallback, salvage)
    // lost them, and the next save would program their zeroed slots
    // under a header that still vouches for them. Staged records are
    // different: they drain into the revived ring and will be
    // written, so contiguity restarts at the oldest of them.
    ringTail_ = staged_.empty() ? nextSeq_ : staged_.front().seq;
}

void
FlightRecorder::publish(const FrRecord &record)
{
    // The marker discipline: the slot line reaches NVRAM before the
    // header line advances the published head past it. A crash
    // between the two writes leaves exactly one acceptable
    // unpublished tail record.
    uint8_t line[kFrRecordBytes];
    frEncodeRecord(record, line);
    const uint64_t slot = record.seq % backing_.capacityRecords;
    backing_.writeLine(backing_.base + slot * kFrRecordBytes, line);
    writeHeader(record.seq + 1);
}

void
FlightRecorder::writeHeader(uint64_t head_seq)
{
    Header header;
    header.capacity = backing_.capacityRecords;
    header.generation = generation_;
    header.headSeq = head_seq;
    header.tailSeq = std::min(ringTail_, head_seq);
    header.totalEmitted = nextSeq_;
    uint8_t line[kFrHeaderBytes];
    encodeHeader(header, line);
    backing_.writeLine(backing_.headerAddr(), line);
}

void
FlightRecorder::emit(FrEvent event, Category category, uint64_t a0,
                     uint64_t a1)
{
    // Records reach the ring in emission order: queue this one behind
    // any staged while NVRAM refused host writes (module mid-save, or
    // the host dark), and drain the queue if it accepts them now.
    staged_.push_back(FrRecord{.seq = nextSeq_++,
                               .generation = generation_,
                               .simTick = now_(),
                               .a0 = a0,
                               .a1 = a1,
                               .event = event,
                               .category = category});
    flushStaged();
    while (staged_.size() > backing_.capacityRecords) {
        ringTail_ = std::max(ringTail_, staged_.front().seq + 1);
        staged_.pop_front();
        ++stagedDropped_;
    }
}

void
FlightRecorder::flushStaged()
{
    if (!backing_.writable())
        return;
    while (!staged_.empty()) {
        publish(staged_.front());
        staged_.pop_front();
    }
}

FrDecodeResult
frDecode(const FrByteReader &read, uint64_t header_addr)
{
    FrDecodeResult result;

    uint8_t line[kFrHeaderBytes];
    if (!read(header_addr, line)) {
        result.notes.push_back("header line not in the saved image");
        return result;
    }
    Header header;
    bool magic_ok = false;
    const bool header_ok = decodeHeader(line, &header, &magic_ok);
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
    // Divide rather than multiply: capacity * kFrRecordBytes wraps for
    // a capacity of 2^58 or more.
    if (header.capacity < 2 ||
        (header.capacity & (header.capacity - 1)) != 0 ||
        header.capacity > header_addr / kFrRecordBytes) {
        result.headerValid = false;
        result.notes.push_back("header carries an impossible capacity");
        return result;
    }

    result.generation = header.generation;
    result.headSeq = header.headSeq;
    result.tailSeq = header.tailSeq;
    result.totalEmitted = header.totalEmitted;
    result.capacity = static_cast<size_t>(header.capacity);
    result.base = header_addr - header.capacity * kFrRecordBytes;

    // The published window: the last capacity records, shortened to
    // the contiguous tail the writer vouches for.
    uint64_t window_start = header.headSeq >= header.capacity
                                ? header.headSeq - header.capacity
                                : 0;
    window_start = std::max(window_start,
                            std::min(header.tailSeq, header.headSeq));
    const uint64_t window_len = header.headSeq - window_start;
    const uint64_t slot_mask = header.capacity - 1;
    // The slot the *next* record lands in: the only slot allowed to
    // be mid-overwrite (torn) or already holding the unpublished
    // record with seq == headSeq.
    const uint64_t inflight_slot = header.headSeq & slot_mask;

    // Slots are read a chunk at a time into one buffer and decoded in
    // place there: a ring of the default size is one read, and the
    // buffer stays that small whatever capacity a header claims. A
    // chunk the reader refuses (part of it lies below the programmed
    // flash suffix) is read slot by slot, so a slot the reader
    // refuses still counts as unsaved.
    const uint64_t chunk_slots =
        std::min<uint64_t>(header.capacity, kFrDefaultRecords);
    const size_t chunk_bytes = chunk_slots * kFrRecordBytes;
    const auto chunk = std::make_unique_for_overwrite<uint8_t[]>(chunk_bytes);
    uint64_t chunk_first = header.capacity; // no chunk read yet
    bool chunk_whole = false;
    const auto slotBytes = [&](uint64_t slot) -> std::span<const uint8_t> {
        const uint64_t first = slot & ~(chunk_slots - 1);
        if (first != chunk_first) {
            chunk_first = first;
            chunk_whole = read(result.base + first * kFrRecordBytes,
                               {chunk.get(), chunk_bytes});
        }
        const std::span<uint8_t> bytes(
            chunk.get() + (slot - first) * kFrRecordBytes, kFrRecordBytes);
        if (chunk_whole || read(result.base + slot * kFrRecordBytes, bytes))
            return bytes;
        return {};
    };

    for (uint64_t expected = window_start;
         expected < header.headSeq; ++expected) {
        const uint64_t slot = expected & slot_mask;
        const std::span<const uint8_t> bytes = slotBytes(slot);
        if (bytes.empty()) {
            ++result.unsavedSlots;
            continue;
        }
        FrRecord record;
        if (frDecodeRecord(bytes, &record)) {
            if (record.seq == expected) {
                result.records.push_back(record);
                continue;
            }
            if (record.seq == header.headSeq && slot == inflight_slot) {
                // The new record reached its slot but the header
                // publish did not: the acceptable in-flight tail,
                // which displaced the oldest published record.
                result.unpublishedTail = true;
                continue;
            }
            if (record.seq < expected) {
                ++result.staleSlots;
                // 43 fixed characters, three u64s of up to 20 digits
                // each, and the terminator.
                char note[43 + 3 * 20 + 1];
                std::snprintf(note, sizeof(note),
                              "slot %llu holds stale seq %llu where "
                              "%llu was published",
                              static_cast<unsigned long long>(slot),
                              static_cast<unsigned long long>(record.seq),
                              static_cast<unsigned long long>(expected));
                result.notes.push_back(note);
                // Published data is missing: the publish discipline
                // was violated (a record claimed published never hit
                // its slot).
                ++result.tornSlots;
                continue;
            }
        } else if (slot == inflight_slot) {
            // Torn bytes where the next record was being written.
            result.unpublishedTail = true;
            continue;
        }
        ++result.tornSlots;
        char note[96];
        std::snprintf(note, sizeof(note),
                      "slot %llu torn inside the published window "
                      "(expected seq %llu)",
                      static_cast<unsigned long long>(slot),
                      static_cast<unsigned long long>(expected));
        result.notes.push_back(note);
    }

    // Outside the published window: residue from earlier boots, or
    // never-written slots (dropped before their CRC). Informational
    // only. The window holds the window_len slots from window_start
    // on, wrapping at the ring's end.
    for (uint64_t slot = 0; slot < header.capacity; ++slot) {
        if (((slot - window_start) & slot_mask) < window_len)
            continue;
        const std::span<const uint8_t> bytes = slotBytes(slot);
        if (bytes.empty() || neverWritten(bytes))
            continue;
        FrRecord record;
        if (frDecodeRecord(bytes, &record)) {
            if (record.seq == header.headSeq && slot == inflight_slot)
                result.unpublishedTail = true;
            else
                ++result.staleSlots;
        }
    }
    // The window was walked oldest first, so the records are in order.
    return result;
}

std::optional<uint64_t>
frFindHeader(const FrByteReader &read, uint64_t top, uint64_t scan_bytes)
{
    if (top < kFrHeaderBytes)
        return std::nullopt;
    uint64_t addr = (top - kFrHeaderBytes) / kFrHeaderBytes *
                    kFrHeaderBytes;
    const uint64_t floor =
        addr > scan_bytes ? addr - scan_bytes : 0;
    for (; addr + kFrHeaderBytes <= top && addr >= floor;
         addr -= kFrHeaderBytes) {
        uint8_t line[kFrHeaderBytes];
        if (read(addr, line) && loadU64(line, 0) == kFrMagic) {
            Header header;
            bool magic_ok = false;
            if (decodeHeader(line, &header, &magic_ok))
                return addr;
        }
        if (addr == 0)
            break;
    }
    return std::nullopt;
}

std::string
frDescribe(const FrRecord &record)
{
    const unsigned long long a0 = record.a0;
    const unsigned long long a1 = record.a1;
    char text[160];
    switch (record.event) {
      case FrEvent::BootEpoch:
        std::snprintf(text, sizeof(text),
                      "boot epoch %llu (%s)", a0,
                      a1 != 0 ? "restored from image" : "cold start");
        break;
      case FrEvent::SaveBegin:
        std::snprintf(text, sizeof(text),
                      "save begin, generation %llu%s", a0,
                      a1 != 0 ? ", DEGRADED" : "");
        break;
      case FrEvent::SaveTierCut:
        std::snprintf(text, sizeof(text),
                      "degraded tier cut at %llu, %llu regions dropped",
                      a0, a1);
        break;
      case FrEvent::SaveFlushWave:
        std::snprintf(text, sizeof(text),
                      "flush wave socket %llu worker %llu, %llu bytes",
                      a0 >> 32, a0 & 0xffffffffull, a1);
        break;
      case FrEvent::SaveMarkerStamp:
        std::snprintf(text, sizeof(text),
                      "valid marker stamped, generation %llu, tier "
                      "cut %llu",
                      a0, a1);
        break;
      case FrEvent::SaveNvdimmInitiate:
        std::snprintf(text, sizeof(text),
                      "initiating NVDIMM save on %llu modules%s", a0,
                      a1 != 0 ? " (degraded)" : "");
        break;
      case FrEvent::SaveCommandRetry:
        std::snprintf(text, sizeof(text),
                      "NVDIMM save command retry #%llu", a0);
        break;
      case FrEvent::SaveHalt:
        std::snprintf(text, sizeof(text),
                      "processors halted (%llu cores)", a0);
        break;
      case FrEvent::DeviceSuspendWave:
        std::snprintf(text, sizeof(text),
                      "device suspend wave %llu (%llu devices)", a0,
                      a1);
        break;
      case FrEvent::HealthDegrade:
        std::snprintf(text, sizeof(text),
                      "health monitor: %s (transition %llu)",
                      a0 != 0 ? "DEGRADED" : "healthy again", a1);
        break;
      case FrEvent::MediaFault:
        std::snprintf(text, sizeof(text),
                      "media fault scrub: module %llu addr 0x%llx", a0,
                      a1);
        break;
      case FrEvent::RegionSalvaged:
        std::snprintf(text, sizeof(text),
                      "region salvaged (tier %llu, base 0x%llx)", a0,
                      a1);
        break;
      case FrEvent::RegionQuarantined:
        std::snprintf(text, sizeof(text),
                      "region QUARANTINED (tier %llu, base 0x%llx)",
                      a0, a1);
        break;
      case FrEvent::RegionRecovered:
        std::snprintf(text, sizeof(text),
                      "region recovered by hook (tier %llu, base "
                      "0x%llx)",
                      a0, a1);
        break;
      case FrEvent::SalvageColdBoot:
        std::snprintf(text, sizeof(text),
                      "salvage cold boot: %llu salvaged, %llu "
                      "quarantined",
                      a0, a1);
        break;
      case FrEvent::FallbackColdBoot:
        std::snprintf(text, sizeof(text), "fallback cold boot");
        break;
      case FrEvent::NvdimmSaveStart:
        std::snprintf(text, sizeof(text),
                      "module save start: %s, %llu pending bytes",
                      a0 != 0 ? "incremental" : "full", a1);
        break;
      case FrEvent::NvdimmSaveDone:
        std::snprintf(text, sizeof(text),
                      "module save done: %llu bytes programmed (%s)",
                      a0, a1 != 0 ? "incremental" : "full");
        break;
      case FrEvent::NvdimmSaveFailed:
        std::snprintf(text, sizeof(text),
                      "module save FAILED after %llu bytes", a0);
        break;
      case FrEvent::RestoreBegin:
        std::snprintf(text, sizeof(text),
                      "restore begin (mode %llu%s)", a0,
                      a1 != 0 ? ", lazy" : "");
        break;
      case FrEvent::NvdimmRestoreDone:
        std::snprintf(text, sizeof(text),
                      "NVDIMM restore done (%llu modules%s)", a0,
                      a1 != 0 ? ", lazy" : "");
        break;
      case FrEvent::MarkerChecked:
        std::snprintf(text, sizeof(text),
                      "marker checked: %s, image generation %llu",
                      a0 != 0 ? "valid" : "INVALID", a1);
        break;
      case FrEvent::LazyPageIn:
        std::snprintf(text, sizeof(text),
                      "lazy page-in: module %llu, %llu pages", a0, a1);
        break;
      case FrEvent::ContextsRestored:
        std::snprintf(text, sizeof(text),
                      "thread contexts restored (%llu cores)", a0);
        break;
      case FrEvent::RestoreDone:
        std::snprintf(text, sizeof(text), "restore done: %s%s",
                      a0 != 0 ? "whole-system resume" : "no WSP resume",
                      a1 != 0 ? " (salvage mode)" : "");
        break;
      case FrEvent::KvBatch:
        std::snprintf(text, sizeof(text),
                      "kv batch: shard %llu worker %llu, %llu ops",
                      a0 >> 32, a0 & 0xffffffffull, a1);
        break;
      default:
        std::snprintf(text, sizeof(text), "%s (a0=%llu a1=%llu)",
                      frEventName(record.event), a0, a1);
        break;
    }
    return text;
}

std::vector<std::string>
frFormatTimeline(const FrDecodeResult &decode)
{
    std::vector<std::string> lines;
    lines.reserve(decode.records.size());
    for (const FrRecord &record : decode.records) {
        char line[224];
        std::snprintf(line, sizeof(line),
                      "[%12.6f ms] gen %llu %-8s %s",
                      toMillis(record.simTick),
                      static_cast<unsigned long long>(record.generation),
                      categoryName(record.category),
                      frDescribe(record).c_str());
        lines.push_back(line);
    }
    return lines;
}

} // namespace wsp::trace
