/**
 * @file
 * Resume block: saved processor contexts at a well-known location.
 *
 * During the save, every processor writes its context into its slot
 * of the resume block; the control processor writes the header last
 * (paper Fig. 4 step 5). On the restore path the boot code jumps to
 * the resume context found here (step 12) and restores the other
 * processors' contexts from their slots (step 14). The block's
 * CRC64 is stored in the valid marker, binding marker and contexts
 * together: a marker from boot N never validates contexts from boot
 * N-1, and, being a CRC, it catches every burst fault of up to 64
 * bits inside the block.
 */

#pragma once

#include <cstdint>

#include "machine/cache.h"
#include "machine/machine.h"
#include "util/units.h"

namespace wsp {

/** Fixed-layout array of per-processor context slots plus a header. */
class ResumeBlock
{
  public:
    /**
     * @param cache control processor's cache (writes are flushed).
     * @param base  line-aligned NVRAM physical address.
     * @param cores number of context slots.
     */
    ResumeBlock(CacheModel &cache, uint64_t base, unsigned cores);

    /** Bytes reserved for @p cores slots plus the header. */
    static uint64_t sizeFor(unsigned cores);

    uint64_t base() const { return base_; }
    unsigned cores() const { return cores_; }

    /**
     * Save one core's context into its slot and flush the lines it
     * touches (each processor does this for itself during the save).
     * @return modelled cost.
     */
    Tick saveContext(unsigned core, const CpuContext &context);

    /**
     * Write and flush the header (core count + boot sequence); the
     * control processor calls this after every slot is filled.
     * @return modelled cost.
     */
    Tick writeHeader(uint64_t boot_sequence);

    /**
     * CRC64 over the header and every slot as currently stored in
     * NVRAM. The save path stores this in the valid marker; the
     * restore path recomputes and compares.
     */
    uint64_t checksum(const NvramSpace &memory) const;

    /**
     * Read back one core's context from NVRAM (restore path, cold
     * caches).
     */
    CpuContext loadContext(const NvramSpace &memory, unsigned core) const;

    /** Read back the boot sequence from the header. */
    uint64_t bootSequence(const NvramSpace &memory) const;

  private:
    uint64_t slotAddr(unsigned core) const;

    static constexpr uint64_t kHeaderSize = CacheModel::kLineSize;
    static constexpr uint64_t kMagic = 0x57535052534d4231ull; // "WSPRSMB1"

    CacheModel &cache_;
    uint64_t base_;
    unsigned cores_;
};

} // namespace wsp
