/**
 * @file
 * Ultracapacitor (supercapacitor) model.
 *
 * NVDIMMs of the AgigaRAM kind carry an ultracapacitor bank that
 * charges from the system's 12 V supply and powers the DRAM-to-flash
 * save after system power is lost (paper section 2). The model covers
 * the three properties the paper relies on:
 *
 *  - stored energy E = 1/2 C V^2, drained through an ESR while
 *    delivering constant power to the save engine (Fig. 2),
 *  - a minimum usable terminal voltage (the NVDIMM's DC-DC input
 *    floor: 6 V for an internal 3.3 V rail, per the paper's footnote),
 *  - capacitance aging over charge/discharge cycles, which stays
 *    within ~10% over 100,000 cycles, unlike Li-ion batteries that
 *    collapse after a few hundred (Fig. 1).
 */

#pragma once

#include <cstdint>
#include <string>

#include "util/units.h"

namespace wsp {

/** Aging curves reported in the paper's Fig. 1 (source: AgigA Tech). */
enum class AgingCurve {
    BestCase,   ///< upper envelope of measured parts
    DataSheet,  ///< vendor datasheet value
    WorstCase,  ///< lower envelope of measured parts
    LiIonBattery, ///< comparison curve: rechargeable battery fade
};

/** Human-readable name of an aging curve. */
std::string agingCurveName(AgingCurve curve);

/**
 * Fraction of rated capacitance remaining after @p cycles
 * charge/discharge cycles at elevated temperature and voltage.
 * For AgingCurve::LiIonBattery the value is the remaining *capacity*
 * fraction of a battery, for the Fig. 1 comparison.
 */
double agingFraction(AgingCurve curve, uint64_t cycles);

/**
 * Capacitance needed to supply @p power_w for @p duration between
 * @p v_start and @p v_min, with a multiplicative safety @p margin
 * (paper section 5.4: "the state save on our test platform could be
 * powered by a 0.5 F supercapacitor that costs less than US$2";
 * section 6: "straightforward and cheap to provision the PSU with
 * sufficient capacitance").
 */
double requiredCapacitance(double power_w, Tick duration, double v_start,
                           double v_min, double margin = 2.0);

/** Rough ultracapacitor cost at the paper's quoted $2.85/kJ. */
double ultracapCostUsd(double capacitance_f, double v_start);

/** Configuration for an ultracapacitor bank. */
struct UltracapConfig
{
    double ratedCapacitanceF = 5.0;  ///< paper: 5-50 F depending on size
    double esrOhm = 0.05;            ///< equivalent series resistance
    double maxVoltage = 12.0;        ///< charged from the 12 V rail
    double minUsableVoltage = 6.0;   ///< DC-DC input floor (paper fn. 1)
    AgingCurve aging = AgingCurve::DataSheet;
};

/**
 * An ultracapacitor bank delivering constant power through an ESR.
 *
 * Discharge integrates the capacitor equation in fixed sub-steps:
 * the load draws power P from the terminal voltage Vt, where
 * Vt = (Vc + sqrt(Vc^2 - 4 P R)) / 2 accounts for the ESR drop, and
 * dVc/dt = -I/C with I = P / Vt.
 */
class Ultracapacitor
{
  public:
    explicit Ultracapacitor(UltracapConfig config);

    /** Capacitance after aging is applied. */
    double effectiveCapacitance() const;

    /** Open-circuit capacitor voltage. */
    double voltage() const { return voltage_; }

    /** Terminal voltage while delivering @p power_w (ESR drop applied). */
    double terminalVoltage(double power_w) const;

    /** Stored energy at the current voltage, in joules. */
    double storedEnergy() const;

    /**
     * Energy extractable before the terminal voltage falls below the
     * usable floor, ignoring ESR loss (an upper bound), in joules.
     */
    double usableEnergy() const;

    /** True while the terminal can still supply @p power_w usably. */
    bool canSupply(double power_w) const;

    /**
     * Drain @p power_w for @p duration. Returns the energy actually
     * delivered (J); stops early if the terminal voltage floor is hit.
     */
    double discharge(double power_w, Tick duration);

    /** Instantly restore full charge; counts one aging cycle. */
    void rechargeFully();

    /**
     * Predicted time the bank can deliver @p power_w before hitting
     * the usable floor, by closed-form energy balance (no ESR), in
     * ticks. Returns kTickNever for non-positive power.
     */
    Tick supplyTime(double power_w) const;

    uint64_t cycles() const { return cycles_; }
    const UltracapConfig &config() const { return config_; }

  private:
    UltracapConfig config_;
    double voltage_;
    uint64_t cycles_ = 0;
};

} // namespace wsp
