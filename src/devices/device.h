/**
 * @file
 * Device model with power states and in-flight I/O.
 *
 * WSP keeps memory and processor state across a power failure, but
 * devices are power-cycled, so their driver state becomes stale and
 * in-flight I/O is lost (paper section 4, "Device restart"). The
 * paper examines three strategies:
 *
 *  1. the strawman: ACPI-suspend every device on the save path (slow
 *     and unbounded: it drains outstanding I/O and runs per-driver
 *     timeouts; measured in Fig. 9 at several *seconds*),
 *  2. restart devices on the restore path (fast save, but complex and
 *     impossible for legacy or paging devices),
 *  3. virtualize devices and replay outstanding I/O in the
 *     hypervisor on restore (the paper's preferred direction).
 *
 * The Device model carries what all three need: a D0/D3 power state,
 * an in-flight operation queue with drain behaviour, per-device
 * suspend/resume/reset latencies (calibrated so the Fig. 9 totals
 * and their busy/idle gap reproduce), and loss/replay bookkeeping.
 */

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/sim_object.h"
#include "util/rng.h"
#include "util/units.h"

namespace wsp {

/** ACPI-style device power states (only the end points matter). */
enum class DevicePowerState { D0, D3 };

/** One in-flight device operation. */
struct IoOp
{
    uint64_t id = 0;
    Tick issued = 0;
    Tick duration = 0;
    bool replayed = false;
};

/** Per-device latency and behaviour parameters. */
struct DeviceConfig
{
    std::string name;

    /**
     * Fixed cost of a D0->D3 transition once the queue is drained:
     * driver bookkeeping, firmware handshakes, and the conservative
     * timeouts Windows drivers take even when idle (the reason
     * Fig. 9's idle bars are still seconds).
     */
    Tick suspendFixed = fromMillis(200.0);

    /** Fixed cost of a D3->D0 resume with saved state. */
    Tick resumeFixed = fromMillis(100.0);

    /** Cost of a cold reset + re-initialization (restart path). */
    Tick resetFixed = fromMillis(50.0);

    /** Mean duration of one I/O operation on this device. */
    Tick ioMeanLatency = fromMillis(5.0);

    /** Maximum queue depth the busy workload keeps outstanding. */
    unsigned busyQueueDepth = 16;

    /** Jitter applied to suspendFixed per run (fraction of fixed). */
    double suspendJitter = 0.05;

    /**
     * True for devices whose driver drains the queue serially while
     * quiescing (rotational disks flushing write caches); false for
     * devices whose outstanding operations complete in parallel.
     */
    bool serialDrain = false;

    /**
     * False for devices that cannot be re-plugged through PnP: legacy
     * devices or the disk holding the paging file (paper section 4).
     */
    bool supportsPnpRestart = true;
};

/** A device with an operation queue and modelled power transitions. */
class Device : public SimObject
{
  public:
    Device(EventQueue &queue, DeviceConfig config, Rng rng);

    const DeviceConfig &config() const { return config_; }
    size_t inflight() const { return inflight_.size(); }
    bool suspended() const { return power_ == DevicePowerState::D3; }

    /**
     * Submit one operation with the given duration (0 = draw from the
     * device's latency distribution). Completion is event-driven.
     */
    uint64_t submitIo(Tick duration = 0);

    /** Keep @p depth operations outstanding until told otherwise. */
    void startBusyWorkload(unsigned depth = 0);

    /** Stop replenishing the busy workload (queue drains naturally). */
    void stopBusyWorkload();

    /**
     * ACPI-style suspend: refuse new I/O, drain the queue, then run
     * the fixed suspend cost and enter D3. @p done receives the total
     * suspend latency.
     */
    void suspend(std::function<void(Tick latency)> done);

    /** D3->D0 resume with preserved driver state. */
    void resume(std::function<void(Tick latency)> done);

    /**
     * Cold restart on the restore path: device was power-cycled, no
     * drain is possible; costs resetFixed and clears driver state.
     */
    void restart(std::function<void(Tick latency)> done);

    /**
     * Model system power loss: the device drops to D3 uncleanly and
     * every in-flight operation is lost (recorded for replay).
     */
    void onPowerLost();

    /** Operations lost to power failures and not yet replayed. */
    const std::vector<IoOp> &lostOps() const { return lostOps_; }

    /**
     * Re-issue lost operations (virtualized replay path). Returns the
     * number re-submitted; clears the lost list.
     */
    size_t replayLostOps();

    /** Forget lost operations without replaying them (cold boot). */
    void dropLostOps() { lostOps_.clear(); }

    uint64_t opsCompleted() const { return opsCompleted_; }
    uint64_t opsLostTotal() const { return opsLostTotal_; }

  private:
    void completeIo(uint64_t id);
    void maybeFinishSuspend();
    Tick drawIoLatency();

    DeviceConfig config_;
    Rng rng_;
    DevicePowerState power_ = DevicePowerState::D0;
    std::vector<IoOp> inflight_;
    std::vector<IoOp> lostOps_;
    uint64_t nextOpId_ = 1;
    uint64_t opsCompleted_ = 0;
    uint64_t opsLostTotal_ = 0;
    bool busyWorkload_ = false;
    unsigned busyDepth_ = 0;
    bool suspending_ = false;
    Tick suspendStart_ = 0;
    std::function<void(Tick)> suspendDone_;
};

/** GPU: the slowest device to suspend on the Intel testbed (Fig. 9). */
DeviceConfig gpuConfig();

/** SATA disk; holds the paging file, so no PnP restart. */
DeviceConfig diskConfig();

/** Network interface. */
DeviceConfig nicConfig();

/** USB controller (quick). */
DeviceConfig usbConfig();

/** Legacy (non-PnP) device, e.g. a serial UART. */
DeviceConfig legacyUartConfig();

} // namespace wsp
