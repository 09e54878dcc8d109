#include "core/wsp_controller.h"

#include <algorithm>

#include "trace/stat_registry.h"
#include "util/logging.h"

namespace wsp {

WspLayout
WspLayout::topOfMemory(uint64_t capacity, unsigned cores,
                       size_t recorder_records)
{
    const uint64_t line = CacheModel::kLineSize;
    const uint64_t resume_size = ResumeBlock::sizeFor(cores);
    WspLayout layout;
    layout.markerBase = (capacity - ValidMarker::kSize) / line * line;
    layout.resumeBase =
        (layout.markerBase - resume_size) / line * line;
    // The directory sits below the resume block: all three control
    // structures share the top of memory, which the NVDIMM save
    // engine programs *first* — a save that dies early still persists
    // the metadata describing what it managed.
    layout.directoryBase =
        (layout.resumeBase - SalvageDirectory::kSize) / line * line;
    // The flight-recorder ring sits directly below the directory,
    // header line on top of its slots: under top-down flash
    // programming the header (the published head) persists before any
    // slot it vouches for can be lost.
    layout.recorderHeader =
        (layout.directoryBase - trace::kFrHeaderBytes) / line * line;
    layout.recorderBase = layout.recorderHeader -
                          recorder_records * trace::kFrRecordBytes;
    return layout;
}

WspController::WspController(EventQueue &queue, MachineModel &machine,
                             AtxPowerSupply &psu, PowerMonitor &monitor,
                             NvdimmController &nvdimms,
                             DeviceManager *devices, WspConfig config)
    : SimObject(queue, "wsp-controller"), config_(config),
      machine_(machine), psu_(psu), monitor_(monitor), nvdimms_(nvdimms),
      devices_(devices),
      layout_(WspLayout::topOfMemory(machine.memory().capacity(),
                                     machine.coreCount(),
                                     config_.flightRecorderRecords)),
      marker_(machine.cacheOfCore(0), layout_.markerBase),
      resumeBlock_(machine.cacheOfCore(0), layout_.resumeBase,
                   machine.coreCount()),
      directory_(machine.cacheOfCore(0), layout_.directoryBase),
      save_(machine, monitor, marker_, resumeBlock_, devices, config_,
            &nvdimms, &directory_),
      restore_(machine, nvdimms, marker_, resumeBlock_, devices, config_,
               &directory_)
{
    attachFlightRecorder();
    monitor_.setPowerFailHandler([this] { onPowerFailInterrupt(); });
    monitor_.setCommandSink(nvdimms_.commandSink());
    if (config_.armNvdimms)
        nvdimms_.armAll();

    if (config_.healthCheckPeriod > 0) {
        // One probe per module: can its bank deliver the *pending*
        // save's energy plus the margin right now? With a dirty
        // baseline open the pending save is the delta, so margins
        // (and the degraded-tier decisions they drive) track the
        // bytes that actually need programming, not the capacity.
        health_ = std::make_unique<EnergyHealthMonitor>(
            queue, HealthMonitorConfig{config_.healthCheckPeriod,
                                       config_.healthEnergyMargin});
        for (NvdimmModule *module : nvdimms_.modules()) {
            health_->addProbe(HealthProbe{
                module->name(),
                [module] { return module->ultracap().usableEnergy(); },
                [module] { return module->pendingSaveEnergy(); }});
        }
        health_->setDegradedHandler([this](bool degraded) {
            degraded_ = degraded;
            trace::frEmit(trace::FrEvent::HealthDegrade,
                          trace::Category::Power, degraded ? 1 : 0,
                          health_->transitions());
        });
    }

    // The instant regulation ends, everything on host power dies.
    psu_.pwrOkSignal().observeEdge(false, [this] {
        pwrOkDroppedAt_ = now();
        const Tick end = psu_.regulationEndTick();
        queue_.schedule(end, [this] { onHardPowerLoss(); });
    });
}

WspController::~WspController()
{
    auto &recorder = trace::FlightRecorder::instance();
    recorder.detach(this);
    recorder.clearTickSource(this);
}

void
WspController::attachFlightRecorder()
{
    auto &recorder = trace::FlightRecorder::instance();
    recorder.setMode(config_.flightRecorder);
    recorder.setTickSource(this, [this] { return now(); });
    if (config_.flightRecorder != trace::FrMode::Nvram)
        return;

    // The recorder lives below the trace layer, so its NVRAM backing
    // is expressed as closures over the control processor's cache:
    // one line write plus an immediate flush per published line, the
    // same write -> flush discipline the valid marker uses. The
    // writable probe keeps records staged while the backing module is
    // mid save/restore or the host is dark — host writes are only
    // legal against an Active, powered module.
    trace::FlightRecorder::Backing backing;
    backing.base = layout_.recorderBase;
    backing.capacityRecords = config_.flightRecorderRecords;
    backing.writeLine = [this](uint64_t addr,
                               std::span<const uint8_t> bytes) {
        CacheModel &cache = machine_.cacheOfCore(0);
        cache.write(addr, bytes);
        cache.flushLine(addr);
    };
    NvramSpace &memory = machine_.memory();
    const size_t owning_module = memory.moduleCount() - 1;
    backing.writable = [this, &memory, owning_module] {
        const NvdimmModule &module = memory.module(owning_module);
        // A module that finished its hardware-triggered save while the
        // host was dark parks in Active with decayed DRAM; it reads as
        // writable the instant boot() clears powerLostAt_, but the
        // restore about to stream flash back would erase anything
        // published into it. restoring_ keeps records staged until the
        // boot path calls flushStaged() after the restore completes.
        return module.hostPowered() &&
               module.state() == NvdimmState::Active &&
               !powerLostAt_.has_value() && !restoring_;
    };
    recorder.attach(this, std::move(backing), bootSequence_);
}

void
WspController::registerSalvageRegion(SalvageRegionSpec spec)
{
    directory_.registerRegion(std::move(spec));
}

void
WspController::setRegionRecovery(
    std::function<void(const RegionOutcome &)> hook)
{
    restore_.setRegionRecovery(std::move(hook));
}

void
WspController::onPowerFailInterrupt()
{
    if (!running_) {
        if (powerLostAt_.has_value()) {
            // A residual window shorter than the monitor's notify
            // latency: the hard loss already darkened the machine, as
            // expected for such windows.
            trace::StatRegistry::instance()
                .counter("core.power_fail_irq_after_loss")
                .add();
            return;
        }
        warn("power-fail interrupt while not running; ignored");
        return;
    }
    running_ = false;
    if (health_)
        health_->stop();
    save_.run(bootSequence_, degraded_, [this](SaveReport report) {
        lastSave_ = report;
        if (pwrOkDroppedAt_ && psu_.residualWindow() > 0) {
            windowFractionUsed_ =
                static_cast<double>(report.halted - *pwrOkDroppedAt_) /
                static_cast<double>(psu_.residualWindow());
        }
        debugLog("save completed in %s",
                 formatTime(report.duration()).c_str());
    });
}

void
WspController::start()
{
    WSP_CHECK(!running_);
    marker_.clear();
    nvdimms_.publishEpoch(bootSequence_);
    if (health_) {
        health_->checkNow();
        health_->start();
    }
    running_ = true;
    trace::FlightRecorder::instance().setGeneration(this,
                                                    bootSequence_);
    trace::frEmit(trace::FrEvent::BootEpoch, trace::Category::Core,
                  bootSequence_, 0);
}

void
WspController::onHardPowerLoss()
{
    if (powerLostAt_.has_value())
        return;
    if (!psu_.inputFailed())
        return; // the outage ended inside the residual window
    powerLostAt_ = now();
    running_ = false;
    if (health_)
        health_->stop();
    machine_.onPowerLost();
    if (devices_ != nullptr)
        devices_->onPowerLost();
    nvdimms_.hostPowerLost();
}

std::optional<double>
WspController::windowFractionUsed() const
{
    return windowFractionUsed_;
}

void
WspController::boot(std::function<void()> backend_recovery,
                    std::function<void(RestoreReport)> done)
{
    // Power has returned: the PSU regulates again, the NVDIMM banks
    // recharge, devices are cold.
    psu_.restoreInput();
    psu_.setLoadWatts(machine_.spec().load.idleWatts);
    nvdimms_.hostPowerRestored();
    powerLostAt_.reset();
    pwrOkDroppedAt_.reset();
    restoring_ = true;

    restore_.run(std::move(backend_recovery),
                 [this, done = std::move(done)](RestoreReport report) {
        lastRestore_ = report;
        running_ = true;
        restoring_ = false;
        // The new boot's sequence must exceed every epoch any module
        // has seen — including a crashed chassis whose image we
        // adopted — so a save from this boot is never mistaken for
        // one from a previous life.
        bootSequence_ = std::max(bootSequence_, nvdimms_.currentEpoch()) + 1;
        nvdimms_.publishEpoch(bootSequence_);
        if (health_) {
            health_->checkNow();
            health_->start();
        }
        auto &recorder = trace::FlightRecorder::instance();
        recorder.setGeneration(this, bootSequence_);
        // A boot that did not stream the image back into DRAM (cold,
        // fallback, salvage) lost every published ring slot with it;
        // the header must stop vouching for them.
        if (!report.usedWsp || report.salvageMode)
            recorder.restartContiguity(this);
        trace::frEmit(trace::FrEvent::BootEpoch, trace::Category::Core,
                      bootSequence_, report.usedWsp ? 1 : 0);
        // Records staged while the modules were saving or dark drain
        // into the revived ring now that NVRAM is writable again.
        recorder.flushStaged();
        if (done)
            done(report);
    });
}

} // namespace wsp
