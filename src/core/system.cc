#include "core/system.h"

#include "util/logging.h"

namespace wsp {

WspSystem::WspSystem(SystemConfig config)
    : config_(std::move(config)), rng_(config_.seed)
{
    // Every model below stamps its trace records from queue_ (its
    // machine id and tick), so systems alive at the same time keep
    // separate timelines. Their StatRegistry counters and gauges are
    // process totals instead: every machine adds into the same named
    // statistic, and neither construction nor bootFromImage resets
    // one, so no machine can wipe another's counts.
    psu_ = std::make_unique<AtxPowerSupply>(queue_, config_.psu,
                                            rng_.fork(1));
    psu_->setLoadWatts(config_.platform.load.watts(config_.load));

    monitor_ = std::make_unique<PowerMonitor>(queue_, *psu_,
                                              config_.monitor);

    nvdimmController_ = std::make_unique<NvdimmController>(queue_);
    for (unsigned i = 0; i < config_.nvdimmCount; ++i) {
        nvdimms_.push_back(std::make_unique<NvdimmModule>(
            queue_, "nvdimm" + std::to_string(i), config_.nvdimm));
        nvdimmController_->attach(*nvdimms_.back());
        memory_.addModule(*nvdimms_.back());
    }

    machine_ = std::make_unique<MachineModel>(queue_, config_.platform,
                                              memory_);

    devices_ = std::make_unique<DeviceManager>(queue_);
    for (size_t i = 0; i < config_.devices.size(); ++i)
        devices_->addDevice(config_.devices[i], rng_.fork(100 + i));

    wsp_ = std::make_unique<WspController>(
        queue_, *machine_, *psu_, *monitor_, *nvdimmController_,
        config_.devices.empty() ? nullptr : devices_.get(), config_.wsp);
}

void
WspSystem::start()
{
    wsp_->start();
}

void
WspSystem::runFor(Tick duration)
{
    queue_.runUntil(queue_.now() + duration);
}

NvramImage
WspSystem::captureNvramImage() const
{
    return NvramImage::capture(memory_);
}

const RestoreReport &
WspSystem::bootToCompletion(std::function<void()> backend_recovery)
{
    bool boot_done = false;
    wsp_->boot(std::move(backend_recovery),
               [&boot_done](const RestoreReport &) { boot_done = true; });
    // Drain until the boot callback fires (bounded by construction:
    // firmware + NVDIMM restore + devices are all finite).
    while (!boot_done && queue_.step()) {
    }
    WSP_CHECKF(boot_done, "boot never completed");
    return *wsp_->lastRestore();
}

const RestoreReport &
WspSystem::bootFromImage(const NvramImage &image,
                         std::function<void()> backend_recovery)
{
    image.adoptInto(memory_);
    return bootToCompletion(std::move(backend_recovery));
}

PowerFailureOutcome
WspSystem::powerFailAndRestore(Tick fail_delay, Tick outage,
                               std::function<void()> backend_recovery)
{
    PowerFailureOutcome outcome;
    outcome.outageStart = queue_.now() + fail_delay;
    outcome.bootStart = outcome.outageStart + outage;

    psu_->failInputAt(outcome.outageStart);

    // Let the failure, the save race, the NVDIMM saves, and the dead
    // time all play out.
    queue_.runUntil(outcome.bootStart);

    outcome.restore = bootToCompletion(std::move(backend_recovery));
    outcome.save = wsp_->lastSave();
    return outcome;
}

} // namespace wsp
