#include "power/health_monitor.h"

#include <algorithm>
#include <limits>

#include "trace/stat_registry.h"
#include "trace/trace.h"
#include "util/logging.h"

namespace wsp {

EnergyHealthMonitor::EnergyHealthMonitor(EventQueue &queue,
                                         HealthMonitorConfig config)
    : SimObject(queue, "health-monitor"), config_(config)
{
    WSP_CHECKF(config_.period > 0, "health monitor period must be > 0");
    WSP_CHECKF(config_.energyMargin >= 0.0,
               "health monitor margin must be >= 0");
}

void
EnergyHealthMonitor::addProbe(HealthProbe probe)
{
    WSP_CHECKF(probe.availableJoules && probe.requiredJoules,
               "health probe '%s' needs both energy callbacks",
               probe.name.c_str());
    marginGauges_.push_back(&trace::StatRegistry::instance().gauge(
        "power.health." + probe.name + ".margin_j"));
    probes_.push_back(std::move(probe));
}

void
EnergyHealthMonitor::setDegradedHandler(std::function<void(bool)> handler)
{
    degradedHandler_ = std::move(handler);
}

void
EnergyHealthMonitor::start()
{
    if (started_)
        return;
    started_ = true;
    uint64_t epoch = ++runEpoch_;
    queue_.scheduleAfter(config_.period, [this, epoch] { tick(epoch); });
}

void
EnergyHealthMonitor::stop()
{
    started_ = false;
    ++runEpoch_;
}

void
EnergyHealthMonitor::tick(uint64_t epoch)
{
    if (!started_ || epoch != runEpoch_)
        return; // stale tick from before a stop()
    checkNow();
    queue_.scheduleAfter(config_.period, [this, epoch] { tick(epoch); });
}

bool
EnergyHealthMonitor::checkNow()
{
    auto &stats = trace::StatRegistry::instance();
    static trace::Counter &checks = stats.counter("power.health.checks");
    static trace::Gauge &worst_margin =
        stats.gauge("power.health.worst_margin_j");
    static trace::Gauge &degraded_gauge =
        stats.gauge("power.health.degraded");
    ++checksRun_;
    checks.add();

    bool healthy = true;
    double worst = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < probes_.size(); ++i) {
        const HealthProbe &probe = probes_[i];
        double available = probe.availableJoules();
        double needed = probe.requiredJoules() * (1.0 + config_.energyMargin);
        double margin = available - needed;
        worst = std::min(worst, margin);
        marginGauges_[i]->set(margin);
        if (margin < 0.0)
            healthy = false;
    }
    worstMargin_ = probes_.empty() ? 0.0 : worst;
    worst_margin.set(worstMargin_);
    degraded_gauge.set(healthy ? 0.0 : 1.0);

    if (healthy == degraded_) { // state flip
        degraded_ = !healthy;
        ++transitions_;
        static trace::Counter &transitions =
            stats.counter("power.health.transitions");
        transitions.add();
        if (degraded_) {
            TRACE_SIM_INSTANT(queue_, Power, "health: DEGRADED");
            warn("%s: energy self-test failed, worst margin %.3f J — "
                 "entering degraded mode",
                 name().c_str(), worstMargin_);
        } else {
            TRACE_SIM_INSTANT(queue_, Power, "health: recovered");
            inform("%s: energy self-test recovered, worst margin %.3f J",
                   name().c_str(), worstMargin_);
        }
        if (degradedHandler_)
            degradedHandler_(degraded_);
    }
    return healthy;
}

} // namespace wsp
