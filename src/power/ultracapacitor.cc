#include "power/ultracapacitor.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace wsp {

std::string
agingCurveName(AgingCurve curve)
{
    switch (curve) {
      case AgingCurve::BestCase:
        return "best case";
      case AgingCurve::DataSheet:
        return "data sheet value";
      case AgingCurve::WorstCase:
        return "worst case";
      case AgingCurve::LiIonBattery:
        return "li-ion battery";
    }
    return "unknown";
}

double
agingFraction(AgingCurve curve, uint64_t cycles)
{
    const double c = static_cast<double>(cycles);
    switch (curve) {
      case AgingCurve::BestCase:
        // ~3% loss at 100k cycles, logarithmic-flavoured fade.
        return std::max(0.90, 1.0 - 0.03 * c / 100000.0);
      case AgingCurve::DataSheet:
        // Vendor-quoted 10% loss bound at 100k cycles.
        return std::max(0.85, 1.0 - 0.10 * c / 100000.0);
      case AgingCurve::WorstCase:
        // Slightly steeper early fade converging near 88%.
        return std::max(0.80,
                        0.88 + 0.12 * std::exp(-c / 40000.0));
      case AgingCurve::LiIonBattery:
        // Rechargeable batteries sustain only a few hundred cycles
        // before capacity degrades sharply (paper section 2).
        if (c <= 300.0)
            return 1.0 - 0.20 * c / 300.0;
        return std::max(0.05, 0.80 * std::exp(-(c - 300.0) / 150.0));
    }
    return 1.0;
}

double
requiredCapacitance(double power_w, Tick duration, double v_start,
                    double v_min, double margin)
{
    WSP_CHECK(power_w > 0.0);
    WSP_CHECK(v_start > v_min);
    WSP_CHECK(v_min >= 0.0);
    const double energy = power_w * toSeconds(duration) * margin;
    return 2.0 * energy / (v_start * v_start - v_min * v_min);
}

double
ultracapCostUsd(double capacitance_f, double v_start)
{
    // Paper section 2 quotes < $0.01/F and $2.85/kJ; energy is the
    // binding term for small banks.
    const double energy_kj =
        0.5 * capacitance_f * v_start * v_start / 1000.0;
    const double by_energy = 2.85 * energy_kj;
    const double by_farads = 0.01 * capacitance_f;
    return by_energy > by_farads ? by_energy : by_farads;
}

Ultracapacitor::Ultracapacitor(UltracapConfig config)
    : config_(config), voltage_(config.maxVoltage)
{
    WSP_CHECK(config_.ratedCapacitanceF > 0.0);
    WSP_CHECK(config_.esrOhm >= 0.0);
    WSP_CHECK(config_.maxVoltage > config_.minUsableVoltage);
    WSP_CHECK(config_.minUsableVoltage >= 0.0);
}

double
Ultracapacitor::effectiveCapacitance() const
{
    return config_.ratedCapacitanceF * agingFraction(config_.aging, cycles_);
}

double
Ultracapacitor::terminalVoltage(double power_w) const
{
    if (power_w <= 0.0)
        return voltage_;
    // Vt solves Vt^2 - Vc*Vt + P*R = 0 (load current I = P/Vt through
    // the ESR). The larger root is the stable operating point.
    const double disc =
        voltage_ * voltage_ - 4.0 * power_w * config_.esrOhm;
    if (disc < 0.0)
        return 0.0; // demanded power exceeds what the ESR allows
    return (voltage_ + std::sqrt(disc)) / 2.0;
}

double
Ultracapacitor::storedEnergy() const
{
    const double c = effectiveCapacitance();
    return 0.5 * c * voltage_ * voltage_;
}

double
Ultracapacitor::usableEnergy() const
{
    const double c = effectiveCapacitance();
    const double vmin = config_.minUsableVoltage;
    const double usable =
        0.5 * c * (voltage_ * voltage_ - vmin * vmin);
    return std::max(usable, 0.0);
}

bool
Ultracapacitor::canSupply(double power_w) const
{
    return terminalVoltage(power_w) >= config_.minUsableVoltage;
}

double
Ultracapacitor::discharge(double power_w, Tick duration)
{
    if (power_w <= 0.0 || duration == 0)
        return 0.0;

    // Integrate in sub-steps no longer than 1 ms for stability.
    const Tick max_step = kMillisecond;
    const double c = effectiveCapacitance();
    double delivered = 0.0;
    Tick elapsed = 0;
    while (elapsed < duration) {
        const Tick step = std::min<Tick>(max_step, duration - elapsed);
        const double dt = toSeconds(step);
        const double vt = terminalVoltage(power_w);
        if (vt < config_.minUsableVoltage)
            break;
        const double current = power_w / vt;
        voltage_ = std::max(voltage_ - current * dt / c, 0.0);
        delivered += power_w * dt;
        elapsed += step;
    }
    return delivered;
}

void
Ultracapacitor::rechargeFully()
{
    voltage_ = config_.maxVoltage;
    ++cycles_;
}

Tick
Ultracapacitor::supplyTime(double power_w) const
{
    if (power_w <= 0.0)
        return kTickNever;
    const double seconds = usableEnergy() / power_w;
    return fromSeconds(seconds);
}

} // namespace wsp
