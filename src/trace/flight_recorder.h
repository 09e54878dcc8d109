/**
 * @file
 * NVRAM-resident black-box flight recorder.
 *
 * The DRAM trace ring (trace.h) evaporates at exactly the moment it
 * is most needed: mid-save, mid-salvage, mid-recovery-storm. The
 * flight recorder is the crash-surviving complement — a fixed-size,
 * power-of-two ring of compact 64-byte binary records living in a
 * reserved NVRAM region just below the salvage directory, so the
 * NVDIMM save engine's top-down flash programming persists it with
 * the other control structures even when a save dies early.
 *
 * Publication mirrors the valid-marker discipline of the save path:
 * each record is written to its slot and flushed to NVRAM *before*
 * the header line advances the published head (write record -> flush
 * -> publish). Every record carries its sequence number and a CRC64
 * over its payload, so a decoder looking at a surviving image can
 * classify each slot as published-and-intact, the single acceptable
 * in-flight tail, stale residue from an earlier boot, or torn — and
 * a torn slot strictly inside the published window is a soundness
 * violation the crashsim BlackBoxSound checker asserts never happens.
 *
 * Ownership: the black box is per machine. Each WSP controller builds
 * one recorder over its own NVRAM ring (none when the recorder is
 * configured off) and hands it, as a nullable pointer, to the code
 * that records; frEmit() does nothing for a null recorder.
 *
 * Layering: this library (wsp_trace) sits below nvram/machine/core,
 * so the NVRAM backing is injected as closures (writeLine/writable)
 * that the WSP controller wires up from the cache model, and the
 * decoder reads through a byte-reader closure that crashsim and
 * tools/wsp_inspect adapt over a captured NvramImage.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace wsp::trace {

/** Lifecycle events the black box records. */
enum class FrEvent : uint16_t {
    None = 0,
    BootEpoch,         ///< a0=boot sequence, a1=restored from image
    SaveBegin,         ///< a0=generation, a1=degraded
    SaveTierCut,       ///< a0=tier cut, a1=regions dropped
    SaveFlushWave,     ///< a0=(socket<<32)|worker, a1=bytes flushed
    SaveMarkerStamp,   ///< a0=generation, a1=tier cut
    SaveNvdimmInitiate,///< a0=module count, a1=degraded
    SaveCommandRetry,  ///< a0=retry number
    SaveHalt,          ///< a0=cores halted
    /** a0=wave index, a1=devices in the wave. Nothing emits it now;
     *  the value stays so images that carry it still decode. */
    DeviceSuspendWave,
    HealthDegrade,     ///< a0=now degraded, a1=transition count
    MediaFault,        ///< a0=module, a1=faulted address
    RegionSalvaged,    ///< a0=tier, a1=region base
    RegionQuarantined, ///< a0=tier, a1=region base
    RegionRecovered,   ///< a0=tier, a1=region base
    SalvageColdBoot,   ///< a0=regions salvaged, a1=quarantined
    FallbackColdBoot,  ///< back-end recovery; no image usable
    NvdimmSaveStart,   ///< a0=incremental, a1=pending bytes
    NvdimmSaveDone,    ///< a0=programmed bytes, a1=incremental
    NvdimmSaveFailed,  ///< a0=programmed bytes
    RestoreBegin,      ///< a0=restore mode, a1=lazy
    NvdimmRestoreDone, ///< a0=modules restored, a1=lazy
    MarkerChecked,     ///< a0=marker valid, a1=image generation
    LazyPageIn,        ///< a0=module, a1=pages mapped
    ContextsRestored,  ///< a0=cores resumed
    RestoreDone,       ///< a0=used WSP, a1=salvage mode
    /** a0=(shard<<32)|worker, a1=ops completed. Nothing emits it
     *  now; the value stays so images that carry it still decode. */
    KvBatch,
};

/** Number of known events (names table size). */
constexpr uint16_t kFrEventCount =
    static_cast<uint16_t>(FrEvent::KvBatch) + 1;

/** Short event name ("save begin", "kv batch", ...). */
const char *frEventName(FrEvent event);

/**
 * One decoded flight-recorder record. Records carry simulated time
 * only, so a machine's ring depends on nothing but its own history.
 */
struct FrRecord
{
    uint64_t seq = 0;        ///< the machine's emission sequence number
    uint64_t generation = 0; ///< boot sequence at emission time
    uint64_t simTick = 0;    ///< simulated ns at emission
    uint64_t a0 = 0;
    uint64_t a1 = 0;
    FrEvent event = FrEvent::None;
    Category category = Category::Core;
};

/** Byte sizes of the on-NVRAM encoding (one cache line each). */
constexpr size_t kFrRecordBytes = 64;
constexpr size_t kFrHeaderBytes = 64;

/** Default ring size in records (region = 64 KiB + header line). */
constexpr size_t kFrDefaultRecords = 1024;

/**
 * Encode @p record into its 64-byte slot image (CRC stamped). Bytes
 * 24-31 are reserved and written as zero.
 */
void frEncodeRecord(const FrRecord &record, std::span<uint8_t> out);

/**
 * Decode one 64-byte slot. @return false when the CRC does not match
 * the stored payload (torn or never-written slot). The reserved bytes
 * 24-31 are covered by the CRC but otherwise ignored, so slots that
 * still carry a host clock there decode too.
 */
bool frDecodeRecord(std::span<const uint8_t> bytes, FrRecord *out);

/**
 * One machine's black box: records published into that machine's
 * NVRAM ring. Not thread-safe; a machine records from its own event
 * loop.
 */
class FlightRecorder
{
  public:
    /** NVRAM backing, expressed as closures to keep layering clean. */
    struct Backing
    {
        uint64_t base = 0;          ///< record slot 0 (line-aligned)
        size_t capacityRecords = 0; ///< power of two
        /** Write one 64-byte line through the cache and flush it. */
        std::function<void(uint64_t addr, std::span<const uint8_t>)>
            writeLine;
        /** True while NVRAM accepts host writes (module Active). */
        std::function<bool()> writable;

        /** Header line address (directly above the slots). */
        uint64_t headerAddr() const
        {
            return base + capacityRecords * kFrRecordBytes;
        }
    };

    /**
     * A recorder publishing into @p backing, which must supply both
     * closures and a power-of-two capacity of at least two records.
     * @p generation stamps records until the next setGeneration();
     * @p now stamps each record's simulated tick. Sequence numbers
     * start at 0 and nothing is read back from the backing.
     */
    FlightRecorder(Backing backing, uint64_t generation,
                   std::function<uint64_t()> now);

    /** One writer per ring: a copy would publish duplicate seqs. */
    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /** Bump the generation stamp (boot epoch). */
    void setGeneration(uint64_t generation) { generation_ = generation; }

    /**
     * Restart ring contiguity at the oldest record that can still
     * reach NVRAM (the staged queue, else the next emission). Call on
     * any boot that did not stream the full image back into DRAM — a
     * cold, fallback, or salvage boot loses every published slot with
     * the DRAM it lived in, and the header must stop vouching for
     * them before the next save programs their zeroed slots.
     */
    void restartContiguity();

    /**
     * Record one event: publish it, or stage it while the backing is
     * not writable. The staged queue holds at most one ring's worth
     * of records; overflow drops the oldest.
     */
    void emit(FrEvent event, Category category, uint64_t a0 = 0,
              uint64_t a1 = 0);

    /** Write any staged records out if the backing became writable. */
    void flushStaged();

    /** Records this recorder ever emitted. */
    uint64_t totalEmitted() const { return nextSeq_; }

    /** Records that had to be staged and were then dropped because
     *  the backing never became writable in time. */
    uint64_t stagedDropped() const { return stagedDropped_; }

  private:
    void publish(const FrRecord &record);
    void writeHeader(uint64_t head_seq);

    Backing backing_;
    uint64_t generation_ = 0;
    std::function<uint64_t()> now_;

    uint64_t nextSeq_ = 0;
    /** Seq from which ring content is contiguous: staged-queue drops
     *  and boots that lost DRAM break contiguity, and the header
     *  publishes this tail so the decoder never expects a record that
     *  was deliberately never written. */
    uint64_t ringTail_ = 0;
    uint64_t stagedDropped_ = 0;
    std::deque<FrRecord> staged_;
};

/** Emit helper: records into @p recorder, nothing when it is null. */
inline void
frEmit(FlightRecorder *recorder, FrEvent event, Category category,
       uint64_t a0 = 0, uint64_t a1 = 0)
{
    if (recorder != nullptr)
        recorder->emit(event, category, a0, a1);
}

// Decoding a surviving ring ------------------------------------------

/**
 * Byte reader over whatever holds the ring: a captured NvramImage's
 * flash, a live NvramSpace, or a file. @return false when the range
 * is not available (beyond the programmed flash suffix); the decoder
 * then counts the slot as unsaved rather than torn. A reader that
 * accepts a range must accept every range inside it: the decoder
 * reads many slots at once and falls back to single slots only when
 * that read is refused.
 */
using FrByteReader =
    std::function<bool(uint64_t addr, std::span<uint8_t> out)>;

/** Classification of every slot in a decoded ring. */
struct FrDecodeResult
{
    bool headerFound = false; ///< magic matched at the header line
    bool headerValid = false; ///< header CRC matched too
    uint64_t generation = 0;
    uint64_t headSeq = 0;       ///< first unpublished sequence number
    uint64_t tailSeq = 0;       ///< oldest contiguously published seq
    uint64_t totalEmitted = 0;  ///< lifetime emissions at publish time
    size_t capacity = 0;        ///< ring size in records
    uint64_t base = 0;          ///< slot 0 address the decode used

    /** Published records, oldest first (stale/unsaved slots absent). */
    std::vector<FrRecord> records;

    bool unpublishedTail = false; ///< slot head%cap held seq==headSeq
    size_t tornSlots = 0;    ///< in-window readable slots that failed
    size_t unsavedSlots = 0; ///< in-window slots the reader refused
    size_t staleSlots = 0;   ///< valid records from older sequences
    std::vector<std::string> notes; ///< human-readable anomalies

    /** The BlackBoxSound invariant: nothing torn beyond the single
     *  acceptable in-flight tail slot. A missing or torn header means
     *  nothing was published, so nothing is provable (or violated). */
    bool sound() const
    {
        return (headerFound && headerValid) ? tornSlots == 0 : true;
    }
};

/**
 * Decode the ring whose header line sits at @p header_addr. Slots are
 * the @c capacity lines directly below the header. A ring of up to
 * kFrDefaultRecords slots is read in one call to @p read; all-zero
 * (never-written) slots outside the published window are dropped
 * without computing their CRC.
 */
FrDecodeResult frDecode(const FrByteReader &read, uint64_t header_addr);

/**
 * Locate a recorder header by scanning line-aligned addresses from
 * @p top downward (at most @p scan_bytes), looking for the header
 * magic with a valid CRC. @return the header address, if found.
 */
std::optional<uint64_t> frFindHeader(const FrByteReader &read,
                                     uint64_t top, uint64_t scan_bytes);

/** One "[   12.345 ms] nvram  save start (full, 4.0 MiB)" line per
 *  published record, oldest first. */
std::vector<std::string> frFormatTimeline(const FrDecodeResult &decode);

/** Human description of one record's event and arguments. */
std::string frDescribe(const FrRecord &record);

} // namespace wsp::trace
