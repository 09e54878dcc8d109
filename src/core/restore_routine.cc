#include "core/restore_routine.h"

#include <algorithm>
#include <span>
#include <vector>

#include "trace/flight_recorder.h"
#include "trace/stat_registry.h"
#include "trace/trace.h"
#include "util/logging.h"

namespace wsp {

namespace {

/** Whether the attached modules take the lazy page-in restore path. */
bool
lazyRestoreConfigured(NvdimmController &nvdimms)
{
    const auto &modules = nvdimms.modules();
    return !modules.empty() && modules.front()->config().lazyRestore;
}

} // namespace

RestoreRoutine::RestoreRoutine(MachineModel &machine,
                               NvdimmController &nvdimms,
                               ValidMarker &marker,
                               ResumeBlock &resume_block,
                               DeviceManager *devices,
                               const WspConfig &config,
                               SalvageDirectory *directory,
                               trace::FlightRecorder *recorder)
    : machine_(machine), nvdimms_(nvdimms), marker_(marker),
      resumeBlock_(resume_block), devices_(devices), config_(config),
      directory_(directory), recorder_(recorder),
      queue_(machine.queue())
{
}

void
RestoreRoutine::setRegionRecovery(
    std::function<void(const RegionOutcome &)> hook)
{
    regionRecovery_ = std::move(hook);
}

void
RestoreRoutine::record(const char *step, Tick start, Tick end)
{
    report_.steps.push_back(StepTiming{step, start, end});
    if (trace::enabled(trace::Category::Core)) {
        auto &manager = trace::TraceManager::instance();
        manager.emitAt(trace::Category::Core, trace::Phase::Begin, step,
                       queue_.machineId(), start);
        manager.emitAt(trace::Category::Core, trace::Phase::End, step,
                       queue_.machineId(), end);
    }
    // Named by step, as the save's gauges are: the whole-resume,
    // salvage and cold-boot paths run different steps, so a name by
    // position would bind a different step on each path.
    static trace::GaugeFamily gauges("core.restore.step.", "_ns");
    gauges[step].set(static_cast<double>(end - start));
}

void
RestoreRoutine::run(std::function<void()> backend_recovery,
                    std::function<void(const RestoreReport &)> done)
{
    backendRecovery_ = std::move(backend_recovery);
    done_ = std::move(done);
    report_ = RestoreReport{};
    report_.steps.reserve(8); // the longest boot path records 7 steps
    report_.started = queue_.now();
    TRACE_SIM_INSTANT(queue_, Core, "RestoreRoutine start");
    // Restore-path records stage in the recorder until the backing
    // module is Active again; they drain into the revived ring when
    // the boot completes.
    trace::frEmit(recorder_, trace::FrEvent::RestoreBegin,
                  trace::Category::Core,
                  static_cast<uint64_t>(config_.restoreMode),
                  lazyRestoreConfigured(nvdimms_) ? 1 : 0);
    machine_.resetForBoot();

    // Firmware: POST, memory re-initialization, boot loader.
    const Tick start = queue_.now();
    queue_.scheduleAfter(config_.firmwareBootLatency, [this, start] {
        if (!machine_.powerOn())
            return; // power failed again during the boot
        record("firmware boot", start, queue_.now());
        stepNvdimmRestore();
    });
}

void
RestoreRoutine::stepNvdimmRestore()
{
    if (!machine_.powerOn())
        return;
    if (!nvdimms_.allIdle()) {
        // A hardware-triggered save can still be draining its
        // ultracapacitor when power returns; the firmware waits.
        queue_.scheduleAfter(fromMillis(10.0),
                             [this] { stepNvdimmRestore(); });
        return;
    }
    const Tick start = queue_.now();
    report_.flashValid = nvdimms_.allFlashValid();
    if (!nvdimms_.anyRestorable()) {
        fallbackColdBoot("no valid NVDIMM flash image");
        return;
    }
    if (!report_.flashValid) {
        // Some module's save died partway. Its programmed suffix (and
        // every complete sibling image) is still worth reading back:
        // the salvage directory will tell us which regions are intact.
        nvdimms_.restoreAvailable([this, start] {
            if (!machine_.powerOn())
                return;
            report_.nvdimmRestoreTime = queue_.now() - start;
            record("restore NVDIMM contents (partial)", start,
                   queue_.now());
            trace::frEmit(recorder_, trace::FrEvent::NvdimmRestoreDone,
                          trace::Category::Nvram, nvdimms_.modules().size(),
                          lazyRestoreConfigured(nvdimms_) ? 1 : 0);
            trySalvageColdBoot("incomplete flash save");
        });
        return;
    }
    nvdimms_.restoreAll([this, start] {
        if (!machine_.powerOn())
            return;
        report_.nvdimmRestoreTime = queue_.now() - start;
        record("restore NVDIMM contents", start, queue_.now());
        trace::frEmit(recorder_, trace::FrEvent::NvdimmRestoreDone,
                      trace::Category::Nvram, nvdimms_.modules().size(),
                      lazyRestoreConfigured(nvdimms_) ? 1 : 0);
        stepCheckMarker();
    });
}

void
RestoreRoutine::stepCheckMarker()
{
    const Tick start = queue_.now();
    const MarkerState state = marker_.read(machine_.memory());
    report_.markerValid = state.valid;
    trace::frEmit(recorder_, trace::FrEvent::MarkerChecked,
                  trace::Category::Core, state.valid ? 1 : 0,
                  state.bootSequence);
    if (!state.valid) {
        record("check image validity", start, queue_.now());
        trySalvageColdBoot("valid marker missing or torn");
        return;
    }
    report_.imageGeneration = state.bootSequence;
    report_.imageTierCut = static_cast<SaveTier>(
        std::min<uint64_t>(state.tierCut,
                           static_cast<uint64_t>(SaveTier::Bulk)));

    // A marker from an earlier boot can validate only contexts from
    // that boot: if a later save started (erasing flash) and failed,
    // the still-readable old marker must not vouch for the new,
    // partial image. The per-module epoch register is the tiebreak.
    report_.generationOk = state.bootSequence == nvdimms_.currentEpoch();
    if (!report_.generationOk) {
        record("check image validity", start, queue_.now());
        trySalvageColdBoot("stale image generation");
        return;
    }

    const uint64_t checksum = resumeBlock_.checksum(machine_.memory());
    report_.checksumOk = checksum == state.resumeChecksum;
    record("check image validity", start, queue_.now());
    if (!report_.checksumOk) {
        trySalvageColdBoot("resume block checksum mismatch");
        return;
    }
    if (report_.imageTierCut != SaveTier::Bulk) {
        // A degraded save never wrote the bulk of memory back; whole-
        // system resume over missing data would be silent corruption.
        trySalvageColdBoot("degraded tier-cut image");
        return;
    }
    stepVerifyRegions(state);
}

void
RestoreRoutine::stepVerifyRegions(const MarkerState &state)
{
    if (directory_ == nullptr || state.directoryChecksum == 0) {
        // No registered regions at save time: legacy whole-resume.
        record("jump to resume block", queue_.now(), queue_.now());
        stepDevices();
        return;
    }
    const Tick start = queue_.now();
    auto image = SalvageDirectory::read(machine_.memory(),
                                        directory_->base());
    if (!image || image->checksum != state.directoryChecksum ||
        image->generation != state.bootSequence) {
        // The marker vouched for a directory we cannot decode — the
        // fault hit the table itself, so nothing can vouch for any
        // region. Only the full back-end rebuild is safe.
        report_.directoryOk = false;
        record("verify salvage regions", start, queue_.now());
        fallbackColdBoot("marker-bound salvage directory corrupt");
        return;
    }

    uint64_t saved_bytes = 0;
    for (const SalvageDirectoryEntry &entry : image->entries) {
        if (entry.saved)
            saved_bytes += entry.size;
    }
    const Tick cost = fromSeconds(static_cast<double>(saved_bytes) /
                                  config_.salvageCrcBandwidth);
    queue_.scheduleAfter(cost, [this, start, image = std::move(*image)] {
        if (!machine_.powerOn())
            return;
        // Whole-resume still re-verifies every region: a flash media
        // fault under an intact marker quarantines just that region
        // while the rest of the machine resumes.
        report_.regions.reserve(image.entries.size());
        for (const SalvageDirectoryEntry &entry : image.entries)
            processRegion(entry);
        record("verify salvage regions", start, queue_.now());
        record("jump to resume block", queue_.now(), queue_.now());
        stepDevices();
    });
}

void
RestoreRoutine::processRegion(const SalvageDirectoryEntry &entry)
{
    RegionOutcome outcome;
    outcome.name = entry.name;
    outcome.base = entry.base;
    outcome.size = entry.size;
    outcome.tier = entry.tier;
    outcome.saved = entry.saved;

    bool intact = false;
    if (entry.saved) {
        // trustSalvageDirectory is the planted bug: skipping the CRC
        // re-verification revives media-faulted bytes silently.
        intact = config_.trustSalvageDirectory ||
                 SalvageDirectory::regionCrc(machine_.memory(), entry.base,
                                             entry.size) == entry.crc;
    }
    if (intact) {
        static trace::Counter &salvaged =
            trace::StatRegistry::instance().counter("core.regions_salvaged");
        outcome.salvaged = true;
        ++report_.regionsSalvaged;
        salvaged.add();
        trace::frEmit(recorder_, trace::FrEvent::RegionSalvaged,
                      trace::Category::Core, static_cast<uint64_t>(entry.tier),
                      entry.base);
    } else {
        // Scrub before recovery: a half-programmed or faulted region
        // must never masquerade as data.
        std::vector<uint8_t> zeros(
            std::min<uint64_t>(entry.size, 256 * 1024), 0);
        uint64_t offset = 0;
        while (offset < entry.size) {
            const uint64_t n =
                std::min<uint64_t>(entry.size - offset, zeros.size());
            machine_.memory().write(
                entry.base + offset,
                std::span<const uint8_t>(zeros.data(), n));
            offset += n;
        }
        outcome.quarantined = true;
        static trace::Counter &quarantined =
            trace::StatRegistry::instance().counter(
                "core.regions_quarantined");
        ++report_.regionsQuarantined;
        quarantined.add();
        trace::frEmit(recorder_, trace::FrEvent::RegionQuarantined,
                      trace::Category::Core, static_cast<uint64_t>(entry.tier),
                      entry.base);
        inform("restore: region '%s' quarantined (%s)",
               entry.name.c_str(),
               entry.saved ? "checksum mismatch" : "not saved");
        if (regionRecovery_) {
            regionRecovery_(outcome);
            outcome.recovered = true;
            static trace::Counter &recovered =
                trace::StatRegistry::instance().counter(
                    "core.regions_recovered");
            ++report_.regionsRecovered;
            recovered.add();
            trace::frEmit(recorder_, trace::FrEvent::RegionRecovered,
                          trace::Category::Core,
                          static_cast<uint64_t>(entry.tier), entry.base);
        }
    }
    report_.regions.push_back(std::move(outcome));
}

void
RestoreRoutine::stepDevices()
{
    if (devices_ == nullptr) {
        stepRestoreContexts();
        return;
    }
    const Tick start = queue_.now();
    devices_->restoreAll(config_.devicePolicy,
                         config_.hostStackBootLatency,
                         [this, start](DeviceRestoreReport device_report) {
        if (!machine_.powerOn())
            return;
        report_.deviceReport = device_report;
        record("re-initialize devices", start, queue_.now());
        stepRestoreContexts();
    });
}

void
RestoreRoutine::stepRestoreContexts()
{
    const Tick start = queue_.now();

    if (config_.restoreMode == RestoreMode::ProcessOnly) {
        // Process persistence (paper section 6): application memory
        // survived, but a *fresh* kernel boots instead of resuming
        // the old one; applications re-attach to their state through
        // a narrow restart interface (Otherworld / Drawbridge). The
        // saved thread contexts are discarded.
        machine_.resetForBoot();
        marker_.clear();
        report_.contextsRestored = false;
        queue_.scheduleAfter(config_.freshKernelBootLatency,
                             [this, start] {
            if (!machine_.powerOn())
                return;
            record("boot fresh kernel, re-attach processes", start,
                   queue_.now());
            finish(true);
        });
        return;
    }

    for (unsigned i = 0; i < machine_.coreCount(); ++i) {
        machine_.core(i).context =
            resumeBlock_.loadContext(machine_.memory(), i);
        machine_.core(i).halted = false;
    }
    report_.contextsRestored = true;
    trace::frEmit(recorder_, trace::FrEvent::ContextsRestored,
                  trace::Category::Core, machine_.coreCount(), 0);
    // The marker must not survive the resume: a crash after this
    // point is a fresh failure, not a replay of this image.
    marker_.clear();

    queue_.scheduleAfter(config_.osResumeLatency, [this, start] {
        if (!machine_.powerOn())
            return;
        record("restore CPU contexts, resume scheduling", start,
               queue_.now());
        finish(true);
    });
}

void
RestoreRoutine::trySalvageColdBoot(const char *reason)
{
    // Whole-system resume is off the table; see whether the save left
    // a trustworthy directory so intact regions survive the cold boot.
    if (directory_ == nullptr) {
        fallbackColdBoot(reason);
        return;
    }
    auto image =
        SalvageDirectory::read(machine_.memory(), directory_->base());
    if (!image || image->entries.empty() ||
        image->generation != nvdimms_.currentEpoch()) {
        // No table, a torn table, or one from an older boot: nothing
        // vouches for any region, so everything comes from the back
        // end.
        fallbackColdBoot(reason);
        return;
    }

    inform("restore: salvage cold boot (%s), %zu regions in directory",
           reason, image->entries.size());
    static trace::Counter &salvage_boots =
        trace::StatRegistry::instance().counter("core.salvage_boots");
    salvage_boots.add();
    TRACE_SIM_INSTANT(queue_, Core, "salvage cold boot");
    report_.salvageMode = true;
    report_.imageTierCut = image->tierCut;

    const Tick start = queue_.now();
    machine_.resetForBoot();
    nvdimms_.resetToActive();
    marker_.clear();

    uint64_t saved_bytes = 0;
    for (const SalvageDirectoryEntry &entry : image->entries) {
        if (entry.saved)
            saved_bytes += entry.size;
    }
    const Tick cost = fromSeconds(static_cast<double>(saved_bytes) /
                                  config_.salvageCrcBandwidth);
    queue_.scheduleAfter(cost, [this, start, image = std::move(*image)] {
        if (!machine_.powerOn())
            return;
        report_.regions.reserve(image.entries.size());
        for (const SalvageDirectoryEntry &entry : image.entries)
            processRegion(entry);
        trace::frEmit(recorder_, trace::FrEvent::SalvageColdBoot,
                      trace::Category::Core, report_.regionsSalvaged,
                      report_.regionsQuarantined);
        record("salvage checksummed regions", start, queue_.now());

        // Devices cold-start as on any boot; the back-end hook does
        // NOT run — recovery happened region by region.
        const Tick dev_start = queue_.now();
        auto after_devices = [this, dev_start] {
            record("cold boot", dev_start, queue_.now());
            finish(false);
        };
        if (devices_ != nullptr)
            devices_->coldBootAll(
                [after_devices](Tick) { after_devices(); });
        else
            after_devices();
    });
}

void
RestoreRoutine::fallbackColdBoot(const char *reason)
{
    inform("restore: falling back to cold boot (%s)", reason);
    static trace::Counter &cold_boots =
        trace::StatRegistry::instance().counter("core.cold_boots");
    cold_boots.add();
    trace::frEmit(recorder_, trace::FrEvent::FallbackColdBoot,
                  trace::Category::Core, 0, 0);
    TRACE_SIM_INSTANT(queue_, Core, "fallback to cold boot");
    const Tick start = queue_.now();
    machine_.resetForBoot();
    nvdimms_.resetToActive();
    marker_.clear();

    // Devices cold-start as on any boot.
    auto after_devices = [this, start] {
        record("cold boot", start, queue_.now());
        if (backendRecovery_)
            backendRecovery_();
        finish(false);
    };
    if (devices_ != nullptr)
        devices_->coldBootAll([after_devices](Tick) { after_devices(); });
    else
        after_devices();
}

void
RestoreRoutine::finish(bool used_wsp)
{
    report_.usedWsp = used_wsp;
    report_.finished = queue_.now();
    trace::frEmit(recorder_, trace::FrEvent::RestoreDone,
                  trace::Category::Core, used_wsp ? 1 : 0,
                  report_.salvageMode ? 1 : 0);
    static trace::Counter &restores_completed =
        trace::StatRegistry::instance().counter("core.restores_completed");
    static trace::Gauge &total_ns =
        trace::StatRegistry::instance().gauge("core.restore.total_ns");
    restores_completed.add();
    total_ns.set(static_cast<double>(report_.finished - report_.started));
    if (done_)
        done_(report_);
}

} // namespace wsp
