/**
 * @file
 * Device manager: system-wide suspend, restart, and replay.
 *
 * Implements the three device-recovery strategies from paper
 * section 4 over a set of Device models:
 *
 *  - AcpiSuspendOnSave: the strawman. Devices are put into D3
 *    sequentially on the save path, mirroring how the ACPI S3
 *    transition walks the device tree. Fig. 9 measures this path.
 *  - PnpRestartOnRestore: nothing on the save path; on restore, every
 *    PnP-capable device is reset. Devices without PnP support (legacy
 *    hardware, the paging disk) make this strategy incomplete.
 *  - VirtualizedReplay: nothing on the save path; on restore a fresh
 *    host device stack is brought up and outstanding operations are
 *    replayed against the virtual devices.
 */

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "devices/device.h"
#include "sim/sim_object.h"

namespace wsp {

/** Device-recovery strategies (paper section 4). */
enum class DevicePolicy {
    AcpiSuspendOnSave,
    PnpRestartOnRestore,
    VirtualizedReplay,
};

/** Human-readable policy name. */
std::string devicePolicyName(DevicePolicy policy);

/** Outcome of a restore-path device recovery. */
struct DeviceRestoreReport
{
    Tick latency = 0;          ///< total restore-path device time
    size_t devicesRestarted = 0;
    size_t devicesUnsupported = 0; ///< PnP restart impossible
    size_t opsReplayed = 0;
};

/** Owner and orchestrator of the machine's devices. */
class DeviceManager : public SimObject
{
  public:
    explicit DeviceManager(EventQueue &queue);

    /** Create and attach a device from a config. */
    Device &addDevice(DeviceConfig config, Rng rng);

    const std::vector<std::unique_ptr<Device>> &devices() const
    {
        return devices_;
    }

    Device *find(const std::string &name);

    /** Start busy workloads on every device. */
    void startBusyAll();

    /**
     * Sequentially suspend every device (ACPI S3 walk); @p done
     * receives the total latency. This is what Fig. 9 measures.
     */
    void suspendAll(std::function<void(Tick total)> done);

    /**
     * Restore-path recovery per @p policy; @p done receives a report.
     * For VirtualizedReplay, @p host_stack_boot models booting the
     * fresh host OS device stack before replay.
     */
    void restoreAll(DevicePolicy policy, Tick host_stack_boot,
                    std::function<void(DeviceRestoreReport)> done);

    /**
     * Cold-boot every device (normal boot path): reset each one, drop
     * any recorded lost operations without replaying them.
     */
    void coldBootAll(std::function<void(Tick total)> done);

    /** Propagate a power loss to every device. */
    void onPowerLost();

    /** Total operations lost across devices (pending replay). */
    size_t totalLostOps() const;

  private:
    void suspendNext(size_t index, Tick started,
                     std::function<void(Tick)> done);
    void resumeChain(size_t index, Tick started, DeviceRestoreReport report,
                     std::function<void(DeviceRestoreReport)> done);
    void restartNext(size_t index, DevicePolicy policy, Tick started,
                     DeviceRestoreReport report,
                     std::function<void(DeviceRestoreReport)> done);

    std::vector<std::unique_ptr<Device>> devices_;
};

/** The Intel testbed's device set (GPU + disk + NIC dominate). */
std::vector<DeviceConfig> deviceSetIntel();

/** The AMD testbed's device set. */
std::vector<DeviceConfig> deviceSetAmd();

} // namespace wsp
