#include "power/psu.h"

#include <algorithm>
#include <cmath>

#include "trace/stat_registry.h"
#include "trace/trace.h"
#include "util/logging.h"

namespace wsp {

double
railNominal(Rail rail)
{
    switch (rail) {
      case Rail::V12:
        return 12.0;
      case Rail::V5:
        return 5.0;
      case Rail::V3_3:
        return 3.3;
    }
    return 0.0;
}

PsuPreset
psuPresetAmd400W()
{
    PsuPreset preset;
    preset.name = "400W PSU (AMD testbed)";
    preset.ratedWatts = 400.0;
    preset.busyLoadWatts = 165.0;
    preset.idleLoadWatts = 110.0;
    preset.busyWindow = fromMillis(346.0);
    preset.idleWindow = fromMillis(392.0);
    preset.windowJitter = fromMillis(25.0);
    return preset;
}

PsuPreset
psuPresetAmd525W()
{
    PsuPreset preset;
    preset.name = "525W PSU (AMD testbed)";
    preset.ratedWatts = 525.0;
    preset.busyLoadWatts = 165.0;
    preset.idleLoadWatts = 110.0;
    preset.busyWindow = fromMillis(22.0);
    preset.idleWindow = fromMillis(71.0);
    preset.windowJitter = fromMillis(8.0);
    return preset;
}

PsuPreset
psuPresetIntel750W()
{
    PsuPreset preset;
    preset.name = "750W PSU (Intel testbed)";
    preset.ratedWatts = 750.0;
    preset.busyLoadWatts = 330.0;
    preset.idleLoadWatts = 195.0;
    preset.busyWindow = fromMillis(10.0);
    preset.idleWindow = fromMillis(10.0);
    preset.windowJitter = fromMillis(3.0);
    return preset;
}

PsuPreset
psuPresetIntel1050W()
{
    PsuPreset preset;
    preset.name = "1050W PSU (Intel testbed)";
    preset.ratedWatts = 1050.0;
    preset.busyLoadWatts = 330.0;
    preset.idleLoadWatts = 195.0;
    preset.busyWindow = fromMillis(33.0);
    preset.idleWindow = fromMillis(33.0);
    preset.windowJitter = fromMillis(5.0);
    return preset;
}

AtxPowerSupply::AtxPowerSupply(EventQueue &queue, PsuPreset preset, Rng rng)
    : SimObject(queue, preset.name), preset_(std::move(preset)),
      rng_(rng), loadWatts_(preset_.idleLoadWatts)
{
    WSP_CHECK(preset_.ratedWatts > 0.0);
    WSP_CHECK(preset_.busyLoadWatts > 0.0);
    WSP_CHECK(preset_.idleLoadWatts > 0.0);
    WSP_CHECK(preset_.droopTau > 0);
}

void
AtxPowerSupply::setLoadWatts(double watts)
{
    WSP_CHECKF(watts >= 0.0, "negative PSU load %f W", watts);
    if (watts > preset_.ratedWatts) {
        warn("%s: load %.0f W exceeds the %.0f W rating",
             name().c_str(), watts, preset_.ratedWatts);
    }
    loadWatts_ = watts;
}

void
AtxPowerSupply::setResidualWindows(Tick busy, Tick idle, Tick jitter)
{
    WSP_CHECKF(busy > 0 && idle > 0,
               "residual windows must be positive (busy=%llu idle=%llu)",
               static_cast<unsigned long long>(busy),
               static_cast<unsigned long long>(idle));
    preset_.busyWindow = busy;
    preset_.idleWindow = idle;
    preset_.windowJitter = jitter;
}

Tick
AtxPowerSupply::windowForLoad() const
{
    const double busy_w = preset_.busyLoadWatts;
    const double idle_w = preset_.idleLoadWatts;
    const double lo = std::min(busy_w, idle_w);
    const double hi = std::max(busy_w, idle_w);
    const double load = std::clamp(loadWatts_, lo, hi);
    if (hi == lo)
        return preset_.busyWindow;
    // Window shrinks as load grows; interpolate between the two
    // calibrated points (idle load -> idle window, busy -> busy).
    const double frac = (load - idle_w) / (busy_w - idle_w);
    const double busy_ms = toMillis(preset_.busyWindow);
    const double idle_ms = toMillis(preset_.idleWindow);
    return fromMillis(idle_ms + frac * (busy_ms - idle_ms));
}

void
AtxPowerSupply::failInputAt(Tick at)
{
    WSP_CHECK(!inputFailed_);
    queue_.cancel(pendingFailure_);
    pendingFailure_ = queue_.schedule(at, [this] { failInputNow(); });
}

void
AtxPowerSupply::failInputNow()
{
    if (inputFailed_)
        return;
    inputFailed_ = true;
    pendingFailure_ = kEventNone;
    onInputFailed();
}

void
AtxPowerSupply::onInputFailed()
{
    // Draw this run's residual window: the calibrated worst case for
    // the present load plus bounded jitter from AC phase and the
    // PWR_OK comparator.
    const Tick jitter = preset_.windowJitter
        ? static_cast<Tick>(rng_.next(preset_.windowJitter))
        : 0;
    residualWindow_ = windowForLoad() + jitter;

    pwrOkDropTick_ = now() + preset_.pwrOkDetectDelay;
    regulationEnd_ = pwrOkDropTick_ + residualWindow_;

    static trace::Counter &input_failures =
        trace::StatRegistry::instance().counter("power.input_failures");
    static trace::Gauge &residual_window_ns =
        trace::StatRegistry::instance().gauge("power.residual_window_ns");
    input_failures.add();
    residual_window_ns.set(static_cast<double>(residualWindow_));
    TRACE_SIM_INSTANT(queue_, Power, "AC input failed");

    queue_.schedule(pwrOkDropTick_, [this] {
        if (inputFailed_) {
            pwrOk_.set(false);
            TRACE_SIM_INSTANT(queue_, Power, "PWR_OK drop");
        }
    });
}

double
AtxPowerSupply::railVoltage(Rail rail) const
{
    const double nominal = railNominal(rail);
    if (!inputFailed_ || now() < regulationEnd_)
        return nominal;
    // Regulation lost: the output capacitors discharge into the load.
    const double dt = toSeconds(now() - regulationEnd_);
    const double tau = toSeconds(preset_.droopTau);
    return nominal * std::exp(-dt / tau);
}

bool
AtxPowerSupply::outputsValid() const
{
    for (Rail rail : {Rail::V12, Rail::V5, Rail::V3_3}) {
        if (railVoltage(rail) < 0.95 * railNominal(rail))
            return false;
    }
    return true;
}

void
AtxPowerSupply::restoreInput()
{
    queue_.cancel(pendingFailure_);
    pendingFailure_ = kEventNone;
    inputFailed_ = false;
    pwrOkDropTick_ = kTickNever;
    regulationEnd_ = kTickNever;
    residualWindow_ = 0;
    pwrOk_.set(true);
    TRACE_SIM_INSTANT(queue_, Power, "AC input restored");
}

} // namespace wsp
