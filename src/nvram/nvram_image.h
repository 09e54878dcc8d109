/**
 * @file
 * Portable snapshot of the non-volatile half of an NVRAM space.
 *
 * After a power failure the only state that survives is what each
 * NVDIMM's ultracapacitor-powered save managed to put into flash.
 * NvramImage captures exactly that — per-module flash content plus
 * the valid flag — so crash exploration can lift the surviving image
 * out of a dead system and socket it into a *fresh* WspSystem, the
 * way a field engineer would move the DIMMs to a replacement chassis.
 * Everything volatile (DRAM, caches, core contexts) is deliberately
 * absent: a restore must succeed from flash alone or not at all.
 */

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "nvram/nvram_space.h"

namespace wsp {

/** Flash-side snapshot of every module in an NvramSpace. */
class NvramImage
{
  public:
    /** Per-module surviving state. */
    struct ModuleImage
    {
        SparseMemory flash;
        bool valid = false;
        uint64_t generation = 0; ///< epoch stamped by the save
        uint64_t epoch = 0;      ///< module's persistent epoch register
        uint64_t savedBytes = 0; ///< programmed suffix of the last save
    };

    /** Capture the flash content and validity of every module. */
    static NvramImage capture(const NvramSpace &space);

    /**
     * Install this image into @p space's modules (capacities and
     * module count must match). DRAM sides are poisoned; the restore
     * path must rebuild them from flash.
     */
    void adoptInto(NvramSpace &space) const;

    size_t moduleCount() const { return modules_.size(); }
    const ModuleImage &module(size_t i) const { return modules_.at(i); }

    /**
     * Serialize to a portable binary file ("WSPIMG1" container: per
     * module the valid/generation/epoch/savedBytes metadata plus only
     * the non-zero flash pages). @return false on I/O failure.
     */
    bool writeFile(const std::string &path) const;

    /** Load an image previously written by writeFile(). */
    static std::optional<NvramImage> readFile(const std::string &path);

  private:
    std::vector<ModuleImage> modules_;
};

} // namespace wsp
