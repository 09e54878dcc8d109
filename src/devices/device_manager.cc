#include "devices/device_manager.h"

#include <cstdio>

#include "trace/stat_registry.h"
#include "trace/trace.h"

namespace wsp {

namespace {

/** Emit a per-device span edge ("nic suspend" B/E). */
void
traceDeviceEdge(const Device &device, const char *what,
                trace::Phase phase)
{
    if (!trace::enabled(trace::Category::Devices))
        return;
    char span[trace::Record::kNameBytes];
    std::snprintf(span, sizeof(span), "%s %s", device.name().c_str(),
                  what);
    trace::emitNow(device.queue(), trace::Category::Devices, phase,
                   span);
}

/** Devices brought back by a resume or a restart. */
trace::Counter &
restartsCounter()
{
    static trace::Counter &counter =
        trace::StatRegistry::instance().counter("devices.restarts");
    return counter;
}

} // namespace

std::string
devicePolicyName(DevicePolicy policy)
{
    switch (policy) {
      case DevicePolicy::AcpiSuspendOnSave:
        return "acpi-suspend-on-save";
      case DevicePolicy::PnpRestartOnRestore:
        return "pnp-restart-on-restore";
      case DevicePolicy::VirtualizedReplay:
        return "virtualized-replay";
    }
    return "unknown";
}

DeviceManager::DeviceManager(EventQueue &queue)
    : SimObject(queue, "device-manager")
{
}

Device &
DeviceManager::addDevice(DeviceConfig config, Rng rng)
{
    devices_.push_back(std::make_unique<Device>(queue_, std::move(config),
                                                rng));
    return *devices_.back();
}

Device *
DeviceManager::find(const std::string &name)
{
    for (auto &device : devices_) {
        if (device->name() == name)
            return device.get();
    }
    return nullptr;
}

void
DeviceManager::startBusyAll()
{
    for (auto &device : devices_)
        device->startBusyWorkload();
}

void
DeviceManager::suspendAll(std::function<void(Tick)> done)
{
    suspendNext(0, now(), std::move(done));
}

void
DeviceManager::suspendNext(size_t index, Tick started,
                           std::function<void(Tick)> done)
{
    if (index >= devices_.size()) {
        if (done)
            done(now() - started);
        return;
    }
    traceDeviceEdge(*devices_[index], "suspend", trace::Phase::Begin);
    devices_[index]->suspend([this, index, started,
                              done = std::move(done)](Tick) mutable {
        traceDeviceEdge(*devices_[index], "suspend", trace::Phase::End);
        static trace::Counter &suspends =
            trace::StatRegistry::instance().counter("devices.suspends");
        suspends.add();
        suspendNext(index + 1, started, std::move(done));
    });
}

void
DeviceManager::restoreAll(DevicePolicy policy, Tick host_stack_boot,
                          std::function<void(DeviceRestoreReport)> done)
{
    const Tick started = now();
    DeviceRestoreReport report;

    switch (policy) {
      case DevicePolicy::AcpiSuspendOnSave:
        // Devices were suspended cleanly before the failure; resume
        // them sequentially from their saved state.
        queue_.scheduleAfter(0, [this, started,
                                 done = std::move(done)]() mutable {
            DeviceRestoreReport r;
            resumeChain(0, started, r, std::move(done));
        });
        return;

      case DevicePolicy::PnpRestartOnRestore:
        restartNext(0, policy, started, report, std::move(done));
        return;

      case DevicePolicy::VirtualizedReplay:
        // A fresh host OS instance boots its whole device stack, then
        // the hypervisor replays the outstanding virtual I/O.
        queue_.scheduleAfter(host_stack_boot, [this, policy, started,
                                               report,
                                               done = std::move(done)]() mutable {
            restartNext(0, policy, started, report, std::move(done));
        });
        return;
    }
}

void
DeviceManager::resumeChain(size_t index, Tick started,
                           DeviceRestoreReport report,
                           std::function<void(DeviceRestoreReport)> done)
{
    if (index >= devices_.size()) {
        report.latency = now() - started;
        if (done)
            done(report);
        return;
    }
    traceDeviceEdge(*devices_[index], "resume", trace::Phase::Begin);
    devices_[index]->resume([this, index, started, report,
                             done = std::move(done)](Tick) mutable {
        traceDeviceEdge(*devices_[index], "resume", trace::Phase::End);
        ++report.devicesRestarted;
        restartsCounter().add();
        resumeChain(index + 1, started, report, std::move(done));
    });
}

void
DeviceManager::restartNext(size_t index, DevicePolicy policy, Tick started,
                           DeviceRestoreReport report,
                           std::function<void(DeviceRestoreReport)> done)
{
    if (index >= devices_.size()) {
        report.latency = now() - started;
        if (done)
            done(report);
        return;
    }

    Device &device = *devices_[index];
    if (policy == DevicePolicy::PnpRestartOnRestore &&
        !device.config().supportsPnpRestart) {
        // Cannot "unplug" this device: the strategy is incomplete
        // (paper section 4) — count it and move on.
        ++report.devicesUnsupported;
        restartNext(index + 1, policy, started, report, std::move(done));
        return;
    }

    traceDeviceEdge(device, "restart", trace::Phase::Begin);
    device.restart([this, index, policy, started, report,
                    dev = &device, done = std::move(done)](Tick) mutable {
        traceDeviceEdge(*dev, "restart", trace::Phase::End);
        ++report.devicesRestarted;
        restartsCounter().add();
        if (policy == DevicePolicy::VirtualizedReplay) {
            const size_t replayed = dev->replayLostOps();
            report.opsReplayed += replayed;
            static trace::Counter &ops_replayed =
                trace::StatRegistry::instance().counter(
                    "devices.ops_replayed");
            ops_replayed.add(replayed);
        }
        restartNext(index + 1, policy, started, report, std::move(done));
    });
}

void
DeviceManager::coldBootAll(std::function<void(Tick)> done)
{
    // A normal boot re-initializes everything; forgotten I/O belongs
    // to the pre-failure world and is dropped, not replayed.
    const Tick started = now();
    for (auto &device : devices_)
        device->dropLostOps();
    restartNext(0, DevicePolicy::VirtualizedReplay, started,
                DeviceRestoreReport{},
                [this, started, done = std::move(done)](DeviceRestoreReport) {
        done(now() - started);
    });
}

void
DeviceManager::onPowerLost()
{
    for (auto &device : devices_)
        device->onPowerLost();
}

size_t
DeviceManager::totalLostOps() const
{
    size_t total = 0;
    for (const auto &device : devices_)
        total += device->lostOps().size();
    return total;
}

std::vector<DeviceConfig>
deviceSetIntel()
{
    return {gpuConfig(), diskConfig(), nicConfig(), usbConfig(),
            legacyUartConfig()};
}

std::vector<DeviceConfig>
deviceSetAmd()
{
    // Lower-powered testbed: weaker GPU and a slower disk stack.
    DeviceConfig gpu = gpuConfig();
    gpu.suspendFixed = fromMillis(2100.0);
    DeviceConfig disk = diskConfig();
    disk.suspendFixed = fromMillis(1500.0);
    DeviceConfig nic = nicConfig();
    nic.suspendFixed = fromMillis(1100.0);
    return {gpu, disk, nic, usbConfig(), legacyUartConfig()};
}

} // namespace wsp
