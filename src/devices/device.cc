#include "devices/device.h"

#include <algorithm>

#include "util/logging.h"

namespace wsp {

Device::Device(EventQueue &queue, DeviceConfig config, Rng rng)
    : SimObject(queue, config.name), config_(std::move(config)), rng_(rng)
{
    WSP_CHECK(config_.ioMeanLatency > 0);
}

Tick
Device::drawIoLatency()
{
    const double mean = static_cast<double>(config_.ioMeanLatency);
    const double draw = rng_.exponential(mean);
    return static_cast<Tick>(std::clamp(draw, mean / 4.0, mean * 4.0));
}

uint64_t
Device::submitIo(Tick duration)
{
    if (power_ != DevicePowerState::D0 || suspending_)
        return 0; // device refuses new work while leaving D0
    IoOp op;
    op.id = nextOpId_++;
    op.issued = now();
    op.duration = duration ? duration : drawIoLatency();
    inflight_.push_back(op);
    queue_.scheduleAfter(op.duration,
                         [this, id = op.id] { completeIo(id); });
    return op.id;
}

void
Device::completeIo(uint64_t id)
{
    auto it = std::find_if(inflight_.begin(), inflight_.end(),
                           [id](const IoOp &op) { return op.id == id; });
    if (it == inflight_.end())
        return; // lost to a power failure or drained synchronously
    inflight_.erase(it);
    ++opsCompleted_;

    if (busyWorkload_ && !suspending_ && power_ == DevicePowerState::D0) {
        while (inflight_.size() < busyDepth_)
            submitIo();
    }
    if (suspending_)
        maybeFinishSuspend();
}

void
Device::startBusyWorkload(unsigned depth)
{
    busyWorkload_ = true;
    busyDepth_ = depth ? depth : config_.busyQueueDepth;
    while (inflight_.size() < busyDepth_ && !suspending_ &&
           power_ == DevicePowerState::D0) {
        submitIo();
    }
}

void
Device::stopBusyWorkload()
{
    busyWorkload_ = false;
}

void
Device::suspend(std::function<void(Tick)> done)
{
    WSP_CHECKF(power_ == DevicePowerState::D0 && !suspending_,
               "%s: suspend from invalid state", name().c_str());
    suspending_ = true;
    suspendStart_ = now();
    suspendDone_ = std::move(done);

    if (config_.serialDrain && !inflight_.empty()) {
        // The driver quiesces the device by pushing the whole queue
        // through one element at a time (and flushing write caches):
        // cost is the sum of the remaining service times.
        Tick drain = 0;
        for (const auto &op : inflight_) {
            const Tick end = op.issued + op.duration;
            drain += end > now() ? end - now() : 0;
        }
        opsCompleted_ += inflight_.size();
        inflight_.clear();
        queue_.scheduleAfter(drain, [this] { maybeFinishSuspend(); });
        return;
    }
    maybeFinishSuspend();
}

void
Device::maybeFinishSuspend()
{
    if (!suspending_ || !inflight_.empty())
        return;
    // Queue drained: pay the fixed driver/firmware cost (with a small
    // run-to-run jitter) and drop to D3.
    const double jitter =
        1.0 + config_.suspendJitter * (2.0 * rng_.uniform() - 1.0);
    const auto fixed = static_cast<Tick>(
        static_cast<double>(config_.suspendFixed) * jitter);
    queue_.scheduleAfter(fixed, [this] {
        if (!suspending_)
            return; // a power loss beat us to it
        suspending_ = false;
        power_ = DevicePowerState::D3;
        if (suspendDone_) {
            auto done = std::move(suspendDone_);
            suspendDone_ = nullptr;
            done(now() - suspendStart_);
        }
    });
}

void
Device::resume(std::function<void(Tick)> done)
{
    WSP_CHECKF(power_ == DevicePowerState::D3,
               "%s: resume from D0", name().c_str());
    const Tick start = now();
    queue_.scheduleAfter(config_.resumeFixed, [this, start,
                                               done = std::move(done)] {
        power_ = DevicePowerState::D0;
        if (done)
            done(now() - start);
    });
}

void
Device::restart(std::function<void(Tick)> done)
{
    // Cold reset: no drain possible, the device was power-cycled.
    const Tick start = now();
    suspending_ = false;
    suspendDone_ = nullptr;
    queue_.scheduleAfter(config_.resetFixed, [this, start,
                                              done = std::move(done)] {
        power_ = DevicePowerState::D0;
        if (done)
            done(now() - start);
    });
}

void
Device::onPowerLost()
{
    // Every outstanding operation is lost; remember it for replay.
    for (auto &op : inflight_)
        lostOps_.push_back(op);
    opsLostTotal_ += inflight_.size();
    inflight_.clear();
    suspending_ = false;
    suspendDone_ = nullptr;
    busyWorkload_ = false;
    power_ = DevicePowerState::D3;
}

size_t
Device::replayLostOps()
{
    WSP_CHECKF(power_ == DevicePowerState::D0,
               "%s: replay while not in D0", name().c_str());
    const size_t count = lostOps_.size();
    for (auto &op : lostOps_) {
        op.replayed = true;
        submitIo(op.duration);
    }
    lostOps_.clear();
    return count;
}

DeviceConfig
gpuConfig()
{
    DeviceConfig config;
    config.name = "gpu";
    config.suspendFixed = fromMillis(2600.0);
    config.resumeFixed = fromMillis(900.0);
    config.resetFixed = fromMillis(400.0);
    config.ioMeanLatency = fromMillis(2.0);
    config.busyQueueDepth = 8;
    return config;
}

DeviceConfig
diskConfig()
{
    DeviceConfig config;
    config.name = "disk";
    config.suspendFixed = fromMillis(1700.0);
    config.resumeFixed = fromMillis(600.0);
    config.resetFixed = fromMillis(250.0);
    config.ioMeanLatency = fromMillis(8.0);
    config.busyQueueDepth = 32;
    config.serialDrain = true;
    config.supportsPnpRestart = false; // holds the paging file
    return config;
}

DeviceConfig
nicConfig()
{
    DeviceConfig config;
    config.name = "nic";
    config.suspendFixed = fromMillis(1300.0);
    config.resumeFixed = fromMillis(400.0);
    config.resetFixed = fromMillis(150.0);
    config.ioMeanLatency = fromMicros(300.0);
    config.busyQueueDepth = 64;
    return config;
}

DeviceConfig
usbConfig()
{
    DeviceConfig config;
    config.name = "usb";
    config.suspendFixed = fromMillis(250.0);
    config.resumeFixed = fromMillis(120.0);
    config.resetFixed = fromMillis(80.0);
    config.ioMeanLatency = fromMillis(1.0);
    config.busyQueueDepth = 4;
    return config;
}

DeviceConfig
legacyUartConfig()
{
    DeviceConfig config;
    config.name = "uart";
    config.suspendFixed = fromMillis(150.0);
    config.resumeFixed = fromMillis(60.0);
    config.resetFixed = fromMillis(40.0);
    config.ioMeanLatency = fromMillis(4.0);
    config.busyQueueDepth = 1;
    config.supportsPnpRestart = false; // legacy, not enumerable
    return config;
}

} // namespace wsp
