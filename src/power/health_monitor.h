/**
 * @file
 * Energy-margin health monitor.
 *
 * WSP's weakest point is NVRAM failure (paper section 6): an aged or
 * drained ultracapacitor silently converts the next "suspend" into
 * total state loss, because nothing checks the bank until the save
 * actually needs it. The monitor closes that gap with a periodic
 * self-test: each registered probe compares the energy a backup bank
 * can deliver right now against what its save is predicted to need,
 * plus a safety margin. When any probe's margin is gone the monitor
 * flips the platform into *degraded mode* — the save routine then
 * plans a tiered save that fits the energy actually available instead
 * of discovering mid-save that it doesn't.
 *
 * The monitor is deliberately generic (name + two energy callbacks):
 * it lives in the power layer, below the NVRAM model, so the platform
 * wires one probe per NVDIMM module without this layer knowing what a
 * module is.
 */

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/sim_object.h"
#include "util/units.h"

namespace wsp::trace {
class Gauge;
} // namespace wsp::trace

namespace wsp {

/** One monitored backup-energy source. */
struct HealthProbe
{
    std::string name;
    std::function<double()> availableJoules; ///< deliverable right now
    std::function<double()> requiredJoules;  ///< predicted save need
};

/** Tunables of the periodic self-test. */
struct HealthMonitorConfig
{
    /** Self-test period. */
    Tick period = fromMillis(100.0);

    /**
     * Safety margin: a probe is healthy while
     * available >= required * (1 + energyMargin).
     */
    double energyMargin = 0.25;
};

/** Periodic energy self-test publishing health gauges. */
class EnergyHealthMonitor : public SimObject
{
  public:
    EnergyHealthMonitor(EventQueue &queue, HealthMonitorConfig config);

    void addProbe(HealthProbe probe);

    /** Called with the new state on every healthy<->degraded flip. */
    void setDegradedHandler(std::function<void(bool)> handler);

    /** Begin (or resume) the periodic self-test. */
    void start();

    /** Stop the periodic self-test (pending ticks become no-ops). */
    void stop();

    /**
     * Run one self-test immediately: evaluate every probe, publish
     * gauges, fire the handler on a transition.
     * @return true when every probe holds its margin.
     */
    bool checkNow();

    bool degraded() const { return degraded_; }
    bool started() const { return started_; }
    uint64_t checksRun() const { return checksRun_; }
    uint64_t transitions() const { return transitions_; }

    /** Worst probe margin of the last check (joules; negative = deficit). */
    double worstMarginJoules() const { return worstMargin_; }

    const HealthMonitorConfig &config() const { return config_; }

  private:
    void tick(uint64_t epoch);

    HealthMonitorConfig config_;
    std::vector<HealthProbe> probes_;
    std::vector<trace::Gauge *> marginGauges_; ///< one per probe
    std::function<void(bool)> degradedHandler_;
    bool started_ = false;
    bool degraded_ = false;
    double worstMargin_ = 0.0;
    uint64_t runEpoch_ = 0; ///< invalidates pending ticks on stop()
    uint64_t checksRun_ = 0;
    uint64_t transitions_ = 0;
};

} // namespace wsp
