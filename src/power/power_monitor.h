/**
 * @file
 * Power-monitor microcontroller.
 *
 * The paper's prototype (Fig. 3) uses a NetDuino microcontroller that
 * watches the ATX PWR_OK signal, raises an interrupt on a host
 * processor over a serial line when the signal drops, and relays
 * save/restore commands from the host to the NVDIMMs over an I2C bus
 * (section 4). The model reproduces the two latencies that matter to
 * the save budget: firmware detection + serial transfer on the
 * failure path, and per-command I2C transfer on the NVDIMM path.
 */

#pragma once

#include <functional>

#include "power/psu.h"
#include "sim/sim_object.h"
#include "util/units.h"

namespace wsp {

/** Latency parameters of the microcontroller paths. */
struct PowerMonitorConfig
{
    /** Firmware latency from the PWR_OK edge to starting the serial
     *  write (GPIO interrupt plus handler). */
    Tick detectLatency = fromMicros(50.0);

    /** Serial-line transfer of the power-fail notification
     *  (a few bytes at 115200 baud). */
    Tick serialLatency = fromMicros(260.0);

    /** I2C transfer of one NVDIMM command (command + address bytes at
     *  400 kHz). */
    Tick i2cCommandLatency = fromMicros(120.0);
};

/**
 * Microcontroller bridging the PSU, the host, and the NVDIMM bus.
 *
 * The host subscribes a power-fail interrupt handler; the NVDIMM
 * subsystem subscribes a command sink. Both run on the event queue
 * after the configured latencies.
 */
class PowerMonitor : public SimObject
{
  public:
    /** Commands relayed over the I2C bus to the NVDIMM subsystem. */
    enum class Command { Save, Restore, Arm, Disarm };

    using InterruptHandler = std::function<void()>;
    using CommandSink = std::function<void(Command)>;

    PowerMonitor(EventQueue &queue, AtxPowerSupply &psu,
                 PowerMonitorConfig config = {});

    /** Subscribe the host's power-fail interrupt handler. */
    void setPowerFailHandler(InterruptHandler handler);

    /** Subscribe the NVDIMM subsystem's command sink. */
    void setCommandSink(CommandSink sink);

    /**
     * Relay a command from the host to the NVDIMM bus; delivered to
     * the sink after the I2C latency.
     */
    void sendCommand(Command command);

    /** Total failure-path latency (detect + serial), for budgeting. */
    Tick
    notifyLatency() const
    {
        return config_.detectLatency + config_.serialLatency;
    }

    const PowerMonitorConfig &config() const { return config_; }

    /** Number of power-fail interrupts raised so far. */
    uint64_t interruptsRaised() const { return interruptsRaised_; }

    /**
     * Fault injection: silently drop the next @p count I2C commands
     * (bus glitch / microcontroller brown-out during the failure
     * race). The save routine's degraded path re-issues its save
     * command once after a backoff to survive exactly this.
     */
    void failNextCommands(unsigned count) { dropCommands_ = count; }

  private:
    void onPwrOkDropped();

    PowerMonitorConfig config_;
    InterruptHandler powerFailHandler_;
    CommandSink commandSink_;
    uint64_t interruptsRaised_ = 0;
    unsigned dropCommands_ = 0;
};

} // namespace wsp
