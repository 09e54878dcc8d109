#include "nvram/nvdimm.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <vector>

#include "trace/flight_recorder.h"
#include "trace/stat_registry.h"
#include "trace/trace.h"
#include "util/logging.h"

namespace wsp {

namespace {

/** Trailing ordinal of a module name ("nvdimm3" -> 3). */
uint64_t
moduleOrdinal(const std::string &name)
{
    uint64_t value = 0;
    uint64_t scale = 1;
    for (size_t i = name.size(); i > 0; --i) {
        const char c = name[i - 1];
        if (c < '0' || c > '9')
            break;
        value += static_cast<uint64_t>(c - '0') * scale;
        scale *= 10;
    }
    return value;
}

/** Completed or failed saves whose flash differs from DRAM. */
trace::Counter &
verifyMismatchCounter()
{
    static trace::Counter &counter =
        trace::StatRegistry::instance().counter(
            "nvram.save_verify_mismatches");
    return counter;
}

/** Emit a per-module span edge ("nvdimm0 save" B/E) on its track. */
void
traceModuleEdge(const SimObject &module, const char *what,
                trace::Phase phase)
{
    if (!trace::enabled(trace::Category::Nvram))
        return;
    char span[trace::Record::kNameBytes];
    std::snprintf(span, sizeof(span), "%s %s", module.name().c_str(),
                  what);
    trace::emitNow(module.queue(), trace::Category::Nvram, phase, span);
}

} // namespace

std::string
nvdimmStateName(NvdimmState state)
{
    switch (state) {
      case NvdimmState::Active:
        return "active";
      case NvdimmState::SelfRefresh:
        return "self-refresh";
      case NvdimmState::Saving:
        return "saving";
      case NvdimmState::Restoring:
        return "restoring";
      case NvdimmState::SaveFailed:
        return "save-failed";
    }
    return "unknown";
}

std::string
mediaFaultKindName(MediaFaultKind kind)
{
    switch (kind) {
      case MediaFaultKind::BitFlip:
        return "bit-flip";
      case MediaFaultKind::BadBlock:
        return "bad-block";
      case MediaFaultKind::TornWrite:
        return "torn-write";
    }
    return "unknown";
}

NvdimmModule::NvdimmModule(EventQueue &queue, std::string name,
                           NvdimmConfig config)
    : SimObject(queue, std::move(name)), config_(config),
      ultracap_(config.ultracap), dram_(config.capacityBytes),
      flash_(config.capacityBytes)
{
    WSP_CHECK(config_.capacityBytes > 0);
    WSP_CHECK(config_.channelSaveBw > 0.0);
    WSP_CHECK(config_.channelRestoreBw > 0.0);
}

unsigned
NvdimmModule::flashChannels() const
{
    if (config_.flashChannels > 0)
        return config_.flashChannels;
    const auto per_gib = static_cast<unsigned>(
        (config_.capacityBytes + kGiB - 1) / kGiB);
    return std::max(per_gib, 1u);
}

double
NvdimmModule::savePowerWatts() const
{
    if (config_.savePowerWatts > 0.0)
        return config_.savePowerWatts;
    return 2.0 + 4.0 * static_cast<double>(flashChannels());
}

Tick
NvdimmModule::saveDuration() const
{
    const double bw =
        config_.channelSaveBw * static_cast<double>(flashChannels());
    return fromSeconds(static_cast<double>(config_.capacityBytes) / bw);
}

Tick
NvdimmModule::fullRestoreDuration() const
{
    const double bw =
        config_.channelRestoreBw * static_cast<double>(flashChannels());
    return fromSeconds(static_cast<double>(config_.capacityBytes) / bw);
}

Tick
NvdimmModule::restoreDuration() const
{
    if (!config_.lazyRestore)
        return fullRestoreDuration();
    // Lazy page-in: set up the copy-on-read mapping of the flash
    // image instead of streaming it. The cost is per mapped extent,
    // not per byte, so multi-GiB images resume in milliseconds.
    const uint64_t chunks =
        (dram_.totalPages() + SparseMemory::kPagesPerChunk - 1) /
        SparseMemory::kPagesPerChunk;
    return config_.lazyRestoreFixedLatency +
           config_.lazyRestorePerChunk * static_cast<Tick>(chunks);
}

double
NvdimmModule::saveEnergy() const
{
    return savePowerWatts() * toSeconds(saveDuration());
}

bool
NvdimmModule::incrementalEligible() const
{
    return config_.incrementalSave && flashValid_ && baselineValid_ &&
           !flashTainted_ && !dram_.allDirty() &&
           dram_.dirtyEpoch() == baselineEpoch_;
}

uint64_t
NvdimmModule::pendingSaveBytes() const
{
    if (!incrementalEligible())
        return config_.capacityBytes;
    // Even an empty delta programs at least one page of control
    // metadata, so the save never models as instantaneous.
    return std::max(dram_.dirtyBytes(), SparseMemory::kPageSize);
}

Tick
NvdimmModule::pendingSaveDuration() const
{
    const double bw =
        config_.channelSaveBw * static_cast<double>(flashChannels());
    return std::max<Tick>(
        1, fromSeconds(static_cast<double>(pendingSaveBytes()) / bw));
}

double
NvdimmModule::pendingSaveEnergy() const
{
    return savePowerWatts() * toSeconds(pendingSaveDuration());
}

void
NvdimmModule::establishBaseline()
{
    dram_.resetDirty();
    baselineEpoch_ = dram_.dirtyEpoch();
    baselineValid_ = true;
}

void
NvdimmModule::hostRead(uint64_t addr, std::span<uint8_t> out) const
{
    WSP_CHECKF(state_ == NvdimmState::Active,
               "%s: host read while %s", name().c_str(),
               nvdimmStateName(state_).c_str());
    dram_.read(addr, out);
}

void
NvdimmModule::hostWrite(uint64_t addr, std::span<const uint8_t> data)
{
    WSP_CHECKF(state_ == NvdimmState::Active,
               "%s: host write while %s", name().c_str(),
               nvdimmStateName(state_).c_str());
    dram_.write(addr, data);
}

void
NvdimmModule::adoptFlashImage(const SparseMemory &flash, bool valid,
                              uint64_t flash_generation, uint64_t epoch,
                              uint64_t saved_bytes)
{
    WSP_CHECKF(state_ == NvdimmState::Active,
               "%s: adoptFlashImage requires Active (state %s)",
               name().c_str(), nvdimmStateName(state_).c_str());
    WSP_CHECKF(flash.capacity() == config_.capacityBytes,
               "%s: adopted image capacity mismatch", name().c_str());
    flash_.restoreFrom(flash);
    flashValid_ = valid;
    flashGeneration_ = flash_generation;
    epoch_ = epoch;
    flashSavedBytes_ = saved_bytes == ~0ull
                           ? (valid ? config_.capacityBytes : 0)
                           : saved_bytes;
    dram_.poison();
    // A socketed image has no relation to this module's DRAM history.
    baselineValid_ = false;
    flashTainted_ = false;
}

void
NvdimmModule::injectFlashFault(MediaFaultKind kind, uint64_t addr)
{
    WSP_CHECKF(addr < config_.capacityBytes,
               "%s: media fault beyond capacity", name().c_str());
    WSP_CHECKF(state_ != NvdimmState::Saving,
               "%s: media fault injection while saving", name().c_str());
    switch (kind) {
      case MediaFaultKind::BitFlip: {
        uint8_t byte = 0;
        flash_.read(addr, std::span<uint8_t>(&byte, 1));
        byte ^= static_cast<uint8_t>(1u << (addr % 8));
        flash_.write(addr, std::span<const uint8_t>(&byte, 1));
        break;
      }
      case MediaFaultKind::BadBlock: {
        const uint64_t block = addr / SparseMemory::kPageSize *
                               SparseMemory::kPageSize;
        std::vector<uint8_t> garbage(SparseMemory::kPageSize, 0xa5);
        flash_.write(block, garbage);
        break;
      }
      case MediaFaultKind::TornWrite: {
        const uint64_t line = addr / 64 * 64;
        const std::array<uint8_t, 32> zeros{};
        flash_.write(line + 32, zeros); // second half never programmed
        break;
      }
    }
    // The image no longer matches what the save wrote; a delta save
    // on top of it would persist the corruption, so the next save
    // falls back to full.
    flashTainted_ = true;
    static trace::Counter &media_faults =
        trace::StatRegistry::instance().counter("nvram.media_faults");
    media_faults.add();
    trace::frEmit(recorder_, trace::FrEvent::MediaFault,
                  trace::Category::Nvram, moduleOrdinal(name()), addr);
    warn("%s: injected %s flash fault at 0x%llx (silent)",
         name().c_str(), mediaFaultKindName(kind).c_str(),
         static_cast<unsigned long long>(addr));
}

void
NvdimmModule::enterSelfRefresh()
{
    WSP_CHECKF(state_ == NvdimmState::Active,
               "%s: enterSelfRefresh from %s", name().c_str(),
               nvdimmStateName(state_).c_str());
    state_ = NvdimmState::SelfRefresh;
}

void
NvdimmModule::exitSelfRefresh()
{
    WSP_CHECKF(state_ == NvdimmState::SelfRefresh,
               "%s: exitSelfRefresh from %s", name().c_str(),
               nvdimmStateName(state_).c_str());
    state_ = NvdimmState::Active;
}

bool
NvdimmModule::busy() const
{
    return state_ == NvdimmState::Saving ||
           state_ == NvdimmState::Restoring;
}

void
NvdimmModule::startSave()
{
    WSP_CHECKF(state_ == NvdimmState::SelfRefresh,
               "%s: startSave requires self-refresh (state %s)",
               name().c_str(), nvdimmStateName(state_).c_str());
    state_ = NvdimmState::Saving;
    saveStarted_ = now();
    lastSaveStep_ = now();
    // Mode decision happens here, before any flash flag is touched:
    // the delta path needs the previous image still marked valid.
    saveIncremental_ = incrementalEligible();
    savePendingBytes_ = pendingSaveBytes();
    saveTotalDuration_ = pendingSaveDuration();
    saveDeadline_ = now() + saveTotalDuration_;
    savePoweredTime_ = 0;
    saveProgrammedBytes_ = 0;
    savePlan_.clear();
    savePlanCursor_ = 0;
    baselineValid_ = false; // flash diverges from the baseline now
    if (saveIncremental_) {
        // Delta save: program only the dirty pages, highest address
        // first so the control structures at the top of memory stay
        // first in line. Every clean page already equals DRAM in
        // flash (that is what the baseline means), so the up-to-date
        // suffix extends down to the next unprogrammed dirty page.
        savePlan_ = dram_.dirtyPagesDescending();
        flashSavedBytes_ =
            savePlan_.empty()
                ? config_.capacityBytes
                : config_.capacityBytes -
                      std::min(config_.capacityBytes,
                               (savePlan_.front() + 1) *
                                   SparseMemory::kPageSize);
    } else {
        // Full save: programming flash consumes the previous image
        // block by block — from the moment the erase starts, the old
        // save is gone. A restore attempt against a module that died
        // mid-save sees only the partial suffix this attempt managed
        // to program.
        flashSavedBytes_ = 0;
    }
    flashValid_ = false;
    flashGeneration_ = epoch_;
    static trace::Counter &saves_started =
        trace::StatRegistry::instance().counter("nvram.saves_started");
    static trace::Gauge &dirty_pages =
        trace::StatRegistry::instance().gauge("nvram.dirty_pages");
    static trace::Gauge &pending_save_bytes =
        trace::StatRegistry::instance().gauge("nvram.pending_save_bytes");
    saves_started.add();
    dirty_pages.set(static_cast<double>(dram_.dirtyPageCount()));
    pending_save_bytes.set(static_cast<double>(savePendingBytes_));
    // The module is Saving now, so this record stages in the recorder
    // until the ring's backing module is writable again — exactly the
    // black-box semantics wanted: the epoch choice survives the crash
    // via the staged drain on this machine's next boot.
    trace::frEmit(recorder_, trace::FrEvent::NvdimmSaveStart,
                  trace::Category::Nvram, saveIncremental_ ? 1 : 0,
                  savePendingBytes_);
    traceModuleEdge(*this, "save", trace::Phase::Begin);
    WSP_DEBUG_LOG("%s: %s save started, %llu bytes, duration %s, "
                  "energy %.1f J",
                  name().c_str(), saveIncremental_ ? "incremental" : "full",
                  static_cast<unsigned long long>(savePendingBytes_),
                  formatTime(saveTotalDuration_).c_str(),
                  savePowerWatts() * toSeconds(saveTotalDuration_));
    queue_.scheduleAfter(std::min(kSaveStep, saveTotalDuration_),
                         [this] { saveStep(); });
}

void
NvdimmModule::programFlashTo(uint64_t target_bytes)
{
    target_bytes = std::min(target_bytes, config_.capacityBytes);
    if (target_bytes <= flashSavedBytes_)
        return;
    // Top-down: the suffix [capacity - target, capacity) is in flash.
    flash_.copyRangeFrom(dram_, config_.capacityBytes - target_bytes,
                         target_bytes - flashSavedBytes_);
    flashSavedBytes_ = target_bytes;
    saveProgrammedBytes_ = target_bytes;
}

void
NvdimmModule::programIncrementalTo(uint64_t target_bytes)
{
    while (saveProgrammedBytes_ < target_bytes &&
           savePlanCursor_ < savePlan_.size()) {
        const uint64_t page = savePlan_[savePlanCursor_];
        const uint64_t base = page * SparseMemory::kPageSize;
        const uint64_t len = std::min(SparseMemory::kPageSize,
                                      config_.capacityBytes - base);
        flash_.copyRangeFrom(dram_, base, len);
        saveProgrammedBytes_ += len;
        ++savePlanCursor_;
        // The up-to-date suffix now reaches down to the page above
        // the next dirty page still waiting (clean pages in between
        // match DRAM by the baseline invariant).
        flashSavedBytes_ =
            savePlanCursor_ < savePlan_.size()
                ? config_.capacityBytes -
                      std::min(config_.capacityBytes,
                               (savePlan_[savePlanCursor_] + 1) *
                                   SparseMemory::kPageSize)
                : config_.capacityBytes;
    }
}

void
NvdimmModule::programProgress(uint64_t target_bytes)
{
    if (saveIncremental_)
        programIncrementalTo(target_bytes);
    else
        programFlashTo(target_bytes);
}

void
NvdimmModule::saveStep()
{
    if (state_ != NvdimmState::Saving)
        return;

    // Drain the ultracapacitor for the time elapsed since the last
    // step. The module always runs the save engine from its own bank
    // so the copy is immune to host power state.
    const Tick elapsed = now() - lastSaveStep_;
    lastSaveStep_ = now();
    const double wanted_j = savePowerWatts() * toSeconds(elapsed);
    const double delivered_j = ultracap_.discharge(savePowerWatts(),
                                                   elapsed);
    // Flash was programmed only for the portion of the step the bank
    // actually powered; a bank that died mid-step leaves that much of
    // the copy in flash.
    savePoweredTime_ +=
        wanted_j <= 0.0
            ? elapsed
            : static_cast<Tick>(
                  static_cast<double>(elapsed) *
                  std::clamp(delivered_j / wanted_j, 0.0, 1.0));
    programProgress(static_cast<uint64_t>(
        static_cast<double>(savePendingBytes_) *
        std::min(1.0, static_cast<double>(savePoweredTime_) /
                          static_cast<double>(saveTotalDuration_))));
    if (!ultracap_.canSupply(savePowerWatts())) {
        failSave("ultracapacitor exhausted");
        return;
    }
    if (now() >= saveDeadline_) {
        finishSave();
        return;
    }
    queue_.scheduleAfter(std::min<Tick>(kSaveStep, saveDeadline_ - now()),
                         [this] { saveStep(); });
}

void
NvdimmModule::finishSave()
{
    if (saveIncremental_)
        programIncrementalTo(~0ull);
    else
        programFlashTo(config_.capacityBytes);
    flashSavedBytes_ = config_.capacityBytes;
    flashValid_ = true;
    flashTainted_ = false;
    lastSaveProgrammedBytes_ = saveProgrammedBytes_;
    state_ = NvdimmState::SelfRefresh;
    ++savesCompleted_;
    if (saveIncremental_)
        ++incrementalSavesCompleted_;
    // The image now matches DRAM exactly: open the dirty baseline the
    // next delta save will be relative to.
    establishBaseline();
    if (config_.verifySaves && !flash_.contentEquals(dram_)) {
        // A completed save — delta or full — must leave flash
        // byte-identical to DRAM; anything else is an engine bug.
        ++saveMismatches_;
        verifyMismatchCounter().add();
        warn("%s: save verify MISMATCH (%s save, %llu bytes "
             "programmed)",
             name().c_str(), saveIncremental_ ? "incremental" : "full",
             static_cast<unsigned long long>(saveProgrammedBytes_));
    }
    static trace::Counter &saves_completed =
        trace::StatRegistry::instance().counter("nvram.saves_completed");
    static trace::Counter &bytes_saved =
        trace::StatRegistry::instance().counter("nvram.bytes_saved");
    saves_completed.add();
    bytes_saved.add(saveProgrammedBytes_);
    if (saveIncremental_) {
        static trace::Counter &incremental_saves =
            trace::StatRegistry::instance().counter(
                "nvram.incremental_saves");
        incremental_saves.add();
    }
    trace::frEmit(recorder_, trace::FrEvent::NvdimmSaveDone,
                  trace::Category::Nvram, saveProgrammedBytes_,
                  saveIncremental_ ? 1 : 0);
    traceModuleEdge(*this, "save", trace::Phase::End);
    WSP_DEBUG_LOG("%s: %s save completed at %s (%llu bytes programmed)",
                  name().c_str(), saveIncremental_ ? "incremental" : "full",
                  formatTime(now()).c_str(),
                  static_cast<unsigned long long>(saveProgrammedBytes_));
    if (!hostPower_) {
        // With the image safely in flash the module powers down; the
        // DRAM side is no longer maintained.
        dram_.poison();
        state_ = NvdimmState::Active;
    }
}

void
NvdimmModule::failSave(const char *reason)
{
    warn("%s: save FAILED (%s) after %s", name().c_str(), reason,
         formatTime(now() - saveStarted_).c_str());
    lastSaveProgrammedBytes_ = saveProgrammedBytes_;
    if (config_.verifySaves && flashSavedBytes_ > 0 &&
        !dram_.poisoned()) {
        // Even a failed save must leave its up-to-date suffix
        // byte-identical to DRAM — the salvage path restores from it.
        const uint64_t base = config_.capacityBytes - flashSavedBytes_;
        if (!flash_.rangeEquals(dram_, base, flashSavedBytes_)) {
            ++saveMismatches_;
            verifyMismatchCounter().add();
            warn("%s: failed-save suffix verify MISMATCH "
                 "(%llu bytes claimed)",
                 name().c_str(),
                 static_cast<unsigned long long>(flashSavedBytes_));
        }
    }
    flashValid_ = false;
    state_ = NvdimmState::SaveFailed;
    static trace::Counter &save_failures =
        trace::StatRegistry::instance().counter("nvram.save_failures");
    save_failures.add();
    trace::frEmit(recorder_, trace::FrEvent::NvdimmSaveFailed,
                  trace::Category::Nvram, saveProgrammedBytes_, 0);
    traceModuleEdge(*this, "save", trace::Phase::End);
    TRACE_SIM_INSTANT(queue_, Nvram, "NVDIMM save failed");
    if (!hostPower_)
        dram_.poison();
}

void
NvdimmModule::startRestore()
{
    WSP_CHECKF(hostPower_, "%s: restore requires host power",
               name().c_str());
    WSP_CHECKF(state_ == NvdimmState::SelfRefresh,
               "%s: startRestore requires self-refresh (state %s)",
               name().c_str(), nvdimmStateName(state_).c_str());
    // A partial image (failed save) is restorable too: the firmware
    // reads back whatever suffix was programmed so the salvage path
    // can recover checksummed-intact regions from it.
    WSP_CHECKF(flashRestorable(),
               "%s: restore without any flash content", name().c_str());
    state_ = NvdimmState::Restoring;
    traceModuleEdge(*this, "restore", trace::Phase::Begin);
    queue_.scheduleAfter(restoreDuration(), [this] { finishRestore(); });
}

void
NvdimmModule::finishRestore()
{
    if (state_ != NvdimmState::Restoring)
        return;
    // Functionally both restore modes produce the same bytes: the
    // copy-on-write page table makes even the eager restore a pointer
    // copy, and the lazy mode only changes the modelled latency.
    dram_.restoreFrom(flash_);
    // DRAM now equals flash byte for byte, so the next save may be a
    // delta relative to this image (if the image is a complete one).
    establishBaseline();
    state_ = NvdimmState::SelfRefresh;
    ++restoresCompleted_;
    if (config_.lazyRestore)
        ++lazyRestoresCompleted_;
    static trace::Counter &restores_completed =
        trace::StatRegistry::instance().counter("nvram.restores_completed");
    static trace::Counter &bytes_restored =
        trace::StatRegistry::instance().counter("nvram.bytes_restored");
    restores_completed.add();
    bytes_restored.add(config_.capacityBytes);
    if (config_.lazyRestore) {
        static trace::Counter &lazy_restores =
            trace::StatRegistry::instance().counter("nvram.lazy_restores");
        lazy_restores.add();
        trace::frEmit(recorder_, trace::FrEvent::LazyPageIn,
                      trace::Category::Nvram, moduleOrdinal(name()),
                      config_.capacityBytes / SparseMemory::kPageSize);
    }
    traceModuleEdge(*this, "restore", trace::Phase::End);
    WSP_DEBUG_LOG("%s: restore completed at %s", name().c_str(),
                  formatTime(now()).c_str());
}

void
NvdimmModule::hostPowerLost()
{
    hostPower_ = false;
    TRACE_SIM_INSTANT(queue_, Nvram, "host power lost");
    switch (state_) {
      case NvdimmState::Active:
        if (armed_) {
            // Hardware-triggered save: an armed module forces its
            // DRAM into self-refresh and saves on its own when it
            // sees power disappear (AgigaRAM behaviour). Whatever the
            // host failed to flush is simply not in the image; the
            // WSP valid marker is what distinguishes a usable image
            // from a torn one.
            state_ = NvdimmState::SelfRefresh;
            startSave();
        } else {
            // DRAM without refresh or backup: contents decay. The
            // flash image, if any, is unaffected.
            dram_.poison();
        }
        break;
      case NvdimmState::SelfRefresh:
        if (armed_) {
            // Hardware-triggered save, as above.
            startSave();
        } else {
            // Self-refresh is powered by the ultracap only briefly;
            // without a save the content is eventually lost. Model
            // that as immediate loss for determinism.
            dram_.poison();
            state_ = NvdimmState::Active;
        }
        break;
      case NvdimmState::Saving:
        break; // save continues on ultracap power
      case NvdimmState::Restoring:
        // Restore needs host power; the partial DRAM image is junk,
        // but the flash image stays valid for a retry.
        dram_.poison();
        state_ = NvdimmState::Active;
        break;
      case NvdimmState::SaveFailed:
        dram_.poison();
        break;
    }
}

void
NvdimmModule::hostPowerRestored()
{
    hostPower_ = true;
    TRACE_SIM_INSTANT(queue_, Nvram, "host power restored");
    // The bank recharges from the 12 V rail; model the recharge as
    // complete by the time the host is back up (tens of seconds).
    if (ultracap_.voltage() < ultracap_.config().maxVoltage)
        ultracap_.rechargeFully();
    if (state_ == NvdimmState::SaveFailed)
        state_ = NvdimmState::Active;
}

} // namespace wsp
