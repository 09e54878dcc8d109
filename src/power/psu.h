/**
 * @file
 * ATX power-supply model with residual energy window.
 *
 * When AC input fails, a real ATX supply keeps regulating its DC
 * output rails from the charge in its bulk capacitors for a short
 * hold-up period, and drops the PWR_OK signal as soon as it detects
 * the input failure. The interval between the PWR_OK drop and the
 * first output-rail droop is the *residual energy window* that
 * whole-system persistence spends on flush-on-fail (paper sections 1,
 * 5.2).
 *
 * The paper measured this window empirically on four supplies
 * (Fig. 7) and found it to vary from 10 ms to ~400 ms with supply and
 * load; first-principles prediction from the nameplate is not
 * possible, so the model is *calibrated*: each PsuPreset carries the
 * paper's worst-observed windows at the busy and idle load points and
 * the model interpolates over load, adds bounded run-to-run jitter
 * (AC-phase and comparator effects), and replays the electrical
 * behaviour — PWR_OK edge, regulated rails, exponential droop — that
 * the paper's oscilloscope traces show (Fig. 6).
 */

#pragma once

#include <array>
#include <string>

#include "power/ultracapacitor.h"
#include "sim/sim_object.h"
#include "sim/signal.h"
#include "util/rng.h"
#include "util/units.h"

namespace wsp {

/** ATX DC output rails. */
enum class Rail { V12, V5, V3_3 };

/** Nominal voltage of a rail. */
double railNominal(Rail rail);

/** Calibration and behaviour parameters for one power supply. */
struct PsuPreset
{
    std::string name;
    double ratedWatts = 0.0;

    /** Load points (system draw, W) the paper measured at. */
    double busyLoadWatts = 0.0;
    double idleLoadWatts = 0.0;

    /** Worst observed residual window at each load point. */
    Tick busyWindow = 0;
    Tick idleWindow = 0;

    /** Upper bound of run-to-run window jitter (added to the worst). */
    Tick windowJitter = 0;

    /** Input-failure detection delay before PWR_OK is dropped. */
    Tick pwrOkDetectDelay = fromMillis(2.0);

    /** Rail droop time constant once regulation is lost. */
    Tick droopTau = fromMillis(20.0);
};

/** The four supplies evaluated in the paper (Fig. 7). */
PsuPreset psuPresetAmd400W();
PsuPreset psuPresetAmd525W();
PsuPreset psuPresetIntel750W();
PsuPreset psuPresetIntel1050W();

/**
 * An ATX power supply: AC input, PWR_OK wire, three DC rails.
 *
 * Rails are queried analytically (railVoltage() is a pure function of
 * simulated time and the failure schedule), so an oscilloscope-style
 * tracer can sample them at any rate without extra events.
 */
class AtxPowerSupply : public SimObject
{
  public:
    AtxPowerSupply(EventQueue &queue, PsuPreset preset, Rng rng);

    const PsuPreset &preset() const { return preset_; }

    /** PWR_OK wire; observers see the drop on input failure. */
    Wire &pwrOkSignal() { return pwrOk_; }

    /** True while PWR_OK is asserted. */
    bool pwrOk() const { return pwrOk_.value(); }

    /** Set the system load the supply is driving, in watts. */
    void setLoadWatts(double watts);

    /**
     * Recalibrate the residual windows at runtime. The fleet fault
     * plane uses this to land each correlated kill at an exact instant
     * of the save pipeline without reconstructing the whole system
     * (FailureInjector::withExactWindow is construction-time only).
     * Takes effect on the next input failure, not a pending one.
     */
    void setResidualWindows(Tick busy, Tick idle, Tick jitter = 0);

    /** Instantaneous voltage of @p rail at the current tick. */
    double railVoltage(Rail rail) const;

    /** True while every rail is within 5% of nominal. */
    bool outputsValid() const;

    /** Schedule an AC input failure at absolute tick @p at. */
    void failInputAt(Tick at);

    /** Fail the AC input right now. */
    void failInputNow();

    /** Restore AC input now (e.g. for a power-restore boot). */
    void restoreInput();

    /** True once the AC input has failed and not been restored. */
    bool inputFailed() const { return inputFailed_; }

    /**
     * The residual window drawn for the current failure: the interval
     * from the PWR_OK drop until regulation is lost. Meaningful only
     * after the input has failed.
     */
    Tick residualWindow() const { return residualWindow_; }

    /** Tick at which rail regulation ends (kTickNever before failure). */
    Tick regulationEndTick() const { return regulationEnd_; }

  private:
    /** Interpolate the worst-case window for the present load. */
    Tick windowForLoad() const;
    void onInputFailed();

    PsuPreset preset_;
    Rng rng_;
    Wire pwrOk_{true};
    double loadWatts_;
    bool inputFailed_ = false;
    Tick pwrOkDropTick_ = kTickNever;
    Tick regulationEnd_ = kTickNever;
    Tick residualWindow_ = 0;
    EventId pendingFailure_ = kEventNone;
};

} // namespace wsp
