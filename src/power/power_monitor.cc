#include "power/power_monitor.h"

#include "trace/stat_registry.h"
#include "trace/trace.h"
#include "util/logging.h"

namespace wsp {

PowerMonitor::PowerMonitor(EventQueue &queue, AtxPowerSupply &psu,
                           PowerMonitorConfig config)
    : SimObject(queue, "power-monitor"), config_(config)
{
    psu.pwrOkSignal().observeEdge(false, [this] { onPwrOkDropped(); });
}

void
PowerMonitor::setPowerFailHandler(InterruptHandler handler)
{
    powerFailHandler_ = std::move(handler);
}

void
PowerMonitor::setCommandSink(CommandSink sink)
{
    commandSink_ = std::move(sink);
}

void
PowerMonitor::onPwrOkDropped()
{
    if (!powerFailHandler_) {
        warn("%s: PWR_OK dropped but no host handler is attached",
             name().c_str());
        return;
    }
    queue_.scheduleAfter(notifyLatency(), [this] {
        ++interruptsRaised_;
        static trace::Counter &interrupts =
            trace::StatRegistry::instance().counter(
                "power.monitor_interrupts");
        interrupts.add();
        TRACE_SIM_INSTANT(queue_, Power, "power-fail interrupt");
        powerFailHandler_();
    });
}

void
PowerMonitor::sendCommand(Command command)
{
    WSP_CHECKF(commandSink_ != nullptr,
               "power monitor has no NVDIMM command sink");
    if (dropCommands_ > 0) {
        --dropCommands_;
        static trace::Counter &dropped =
            trace::StatRegistry::instance().counter(
                "power.i2c_commands_dropped");
        dropped.add();
        TRACE_SIM_INSTANT(queue_, Power, "I2C command DROPPED");
        warn("%s: I2C command dropped (injected bus fault)",
             name().c_str());
        return;
    }
    static trace::Counter &commands =
        trace::StatRegistry::instance().counter("power.i2c_commands");
    commands.add();
    TRACE_SIM_INSTANT(queue_, Power, "I2C command to NVDIMMs");
    queue_.scheduleAfter(config_.i2cCommandLatency,
                         [this, command] { commandSink_(command); });
}

} // namespace wsp
