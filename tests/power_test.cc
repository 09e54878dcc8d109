/**
 * @file
 * Unit tests for the power substrate: ultracapacitor, PSU, monitor,
 * tracer.
 */

#include <gtest/gtest.h>

#include "power/load_model.h"
#include "power/power_monitor.h"
#include "power/psu.h"
#include "power/signal_tracer.h"
#include "power/ultracapacitor.h"

namespace wsp {
namespace {

// Ultracapacitor -------------------------------------------------------

UltracapConfig
smallCap()
{
    UltracapConfig config;
    config.ratedCapacitanceF = 5.0;
    config.esrOhm = 0.05;
    config.maxVoltage = 12.0;
    config.minUsableVoltage = 6.0;
    return config;
}

TEST(Ultracap, StartsFullyCharged)
{
    Ultracapacitor cap(smallCap());
    EXPECT_DOUBLE_EQ(cap.voltage(), 12.0);
    // E = 1/2 * 5 * 144 = 360 J.
    EXPECT_NEAR(cap.storedEnergy(), 360.0, 1e-9);
    // Usable above 6 V: 1/2 * 5 * (144 - 36) = 270 J.
    EXPECT_NEAR(cap.usableEnergy(), 270.0, 1e-9);
}

TEST(Ultracap, TerminalVoltageBelowOpenCircuit)
{
    Ultracapacitor cap(smallCap());
    EXPECT_LT(cap.terminalVoltage(10.0), cap.voltage());
    EXPECT_DOUBLE_EQ(cap.terminalVoltage(0.0), cap.voltage());
}

TEST(Ultracap, DischargeDeliversRequestedEnergy)
{
    Ultracapacitor cap(smallCap());
    const double delivered = cap.discharge(6.0, fromSeconds(10.0));
    EXPECT_NEAR(delivered, 60.0, 1e-6);
    EXPECT_LT(cap.voltage(), 12.0);
}

TEST(Ultracap, DischargeStopsAtFloor)
{
    Ultracapacitor cap(smallCap());
    // Ask for far more than the usable energy.
    const double delivered = cap.discharge(50.0, fromSeconds(1000.0));
    EXPECT_LT(delivered, cap.config().ratedCapacitanceF * 144.0);
    EXPECT_FALSE(cap.canSupply(50.0));
    // Voltage never drops below zero and stays near the floor.
    EXPECT_GE(cap.voltage(), 0.0);
    EXPECT_LT(cap.voltage(), 6.5);
}

TEST(Ultracap, SupplyTimeMatchesEnergyBalance)
{
    Ultracapacitor cap(smallCap());
    // 270 J usable at 27 W -> 10 s.
    EXPECT_NEAR(toSeconds(cap.supplyTime(27.0)), 10.0, 0.01);
    EXPECT_EQ(cap.supplyTime(0.0), kTickNever);
}

TEST(Ultracap, DischargeMatchesSupplyTimePrediction)
{
    Ultracapacitor cap(smallCap());
    const Tick predicted = cap.supplyTime(27.0);
    // Run slightly less than the prediction: should still be usable.
    cap.discharge(27.0, predicted - fromMillis(600.0));
    EXPECT_TRUE(cap.canSupply(27.0));
    // A little more drains it past the floor (ESR makes it earlier).
    cap.discharge(27.0, fromSeconds(1.5));
    EXPECT_FALSE(cap.canSupply(27.0));
}

TEST(Ultracap, RechargeFullyCountsCycle)
{
    Ultracapacitor cap(smallCap());
    EXPECT_EQ(cap.cycles(), 0u);
    cap.discharge(50.0, fromSeconds(1000.0));
    cap.rechargeFully();
    EXPECT_EQ(cap.cycles(), 1u);
    EXPECT_DOUBLE_EQ(cap.voltage(), 12.0);
}

TEST(UltracapAging, CurvesMatchFigure1)
{
    // Fig. 1: ultracap retains ~90%+ of capacitance at 100k cycles.
    EXPECT_GE(agingFraction(AgingCurve::BestCase, 100000), 0.95);
    EXPECT_NEAR(agingFraction(AgingCurve::DataSheet, 100000), 0.90, 0.01);
    EXPECT_GE(agingFraction(AgingCurve::WorstCase, 100000), 0.85);
    // Batteries collapse after a few hundred cycles.
    EXPECT_LT(agingFraction(AgingCurve::LiIonBattery, 1000), 0.10);
    EXPECT_GT(agingFraction(AgingCurve::LiIonBattery, 100), 0.9);
}

TEST(UltracapAging, MonotoneNonIncreasing)
{
    for (AgingCurve curve : {AgingCurve::BestCase, AgingCurve::DataSheet,
                             AgingCurve::WorstCase,
                             AgingCurve::LiIonBattery}) {
        double prev = agingFraction(curve, 0);
        EXPECT_NEAR(prev, 1.0, 1e-9);
        for (uint64_t c = 1; c <= 100000; c *= 10) {
            const double f = agingFraction(curve, c);
            EXPECT_LE(f, prev + 1e-12) << agingCurveName(curve);
            prev = f;
        }
    }
}

TEST(UltracapAging, AgedCapStoresLess)
{
    UltracapConfig config = smallCap();
    Ultracapacitor fresh(config);
    Ultracapacitor aged(config);
    for (int i = 0; i < 1000; ++i)
        aged.rechargeFully();
    EXPECT_LT(aged.effectiveCapacitance(), fresh.effectiveCapacitance());
    EXPECT_LT(aged.storedEnergy(), fresh.storedEnergy());
}

TEST(UltracapProvisioning, RequiredCapacitanceMatchesEnergyBalance)
{
    // 100 W for 10 ms with 2x margin = 2 J; between 12 V and 6 V the
    // usable specific energy is (144-36)/2 = 54 J/F -> ~0.037 F.
    const double c = requiredCapacitance(100.0, fromMillis(10.0), 12.0,
                                         6.0, 2.0);
    EXPECT_NEAR(c, 2.0 * 1.0 / 54.0, 1e-6);
    // A bank of exactly that size really delivers the energy.
    UltracapConfig config;
    config.ratedCapacitanceF = c;
    config.esrOhm = 0.0;
    Ultracapacitor cap(config);
    EXPECT_GE(cap.usableEnergy(), 100.0 * 0.010 * 2.0 - 1e-9);
}

TEST(UltracapProvisioning, MarginScalesLinearly)
{
    const double c1 = requiredCapacitance(50.0, fromMillis(5.0), 12.0,
                                          6.0, 1.0);
    const double c3 = requiredCapacitance(50.0, fromMillis(5.0), 12.0,
                                          6.0, 3.0);
    EXPECT_NEAR(c3, 3.0 * c1, 1e-9);
}

TEST(UltracapProvisioning, PaperCostClaimHolds)
{
    // Paper 5.4: a 0.5 F supercapacitor costs less than US$2.
    EXPECT_LT(ultracapCostUsd(0.5, 12.0), 2.0);
    // Bigger banks cost more.
    EXPECT_GT(ultracapCostUsd(50.0, 12.0), ultracapCostUsd(5.0, 12.0));
}

// PSU -------------------------------------------------------------------

TEST(Psu, RailsNominalBeforeFailure)
{
    EventQueue queue;
    AtxPowerSupply psu(queue, psuPresetIntel1050W(), Rng(1));
    EXPECT_TRUE(psu.pwrOk());
    EXPECT_TRUE(psu.outputsValid());
    EXPECT_DOUBLE_EQ(psu.railVoltage(Rail::V12), 12.0);
    EXPECT_DOUBLE_EQ(psu.railVoltage(Rail::V5), 5.0);
    EXPECT_DOUBLE_EQ(psu.railVoltage(Rail::V3_3), 3.3);
}

TEST(Psu, PwrOkDropsAfterDetectDelay)
{
    EventQueue queue;
    PsuPreset preset = psuPresetIntel1050W();
    AtxPowerSupply psu(queue, preset, Rng(1));
    Tick drop_tick = 0;
    psu.pwrOkSignal().observeEdge(false, [&] { drop_tick = queue.now(); });
    psu.failInputAt(fromMillis(5.0));
    queue.runUntil(fromSeconds(1.0));
    EXPECT_EQ(drop_tick, fromMillis(5.0) + preset.pwrOkDetectDelay);
}

TEST(Psu, RailsHoldThroughResidualWindow)
{
    EventQueue queue;
    AtxPowerSupply psu(queue, psuPresetIntel1050W(), Rng(1));
    psu.setLoadWatts(330.0);
    psu.failInputNow();
    const Tick window = psu.residualWindow();
    EXPECT_GE(window, fromMillis(33.0)); // worst case plus jitter
    // Just before regulation ends the rails are still valid.
    queue.runUntil(psu.regulationEndTick() - 1);
    EXPECT_TRUE(psu.outputsValid());
    // Well after, they have drooped.
    queue.runUntil(psu.regulationEndTick() + fromMillis(50.0));
    EXPECT_FALSE(psu.outputsValid());
    EXPECT_LT(psu.railVoltage(Rail::V12), 12.0);
}

TEST(Psu, WindowShrinksWithLoad)
{
    // The AMD 525W preset has distinct busy/idle windows.
    PsuPreset preset = psuPresetAmd525W();
    preset.windowJitter = 0; // deterministic for the comparison

    EventQueue q1;
    AtxPowerSupply busy(q1, preset, Rng(1));
    busy.setLoadWatts(preset.busyLoadWatts);
    busy.failInputNow();

    EventQueue q2;
    AtxPowerSupply idle(q2, preset, Rng(1));
    idle.setLoadWatts(preset.idleLoadWatts);
    idle.failInputNow();

    EXPECT_LT(busy.residualWindow(), idle.residualWindow());
    EXPECT_EQ(busy.residualWindow(), preset.busyWindow);
    EXPECT_EQ(idle.residualWindow(), preset.idleWindow);
}

TEST(Psu, WindowInterpolatesBetweenLoadPoints)
{
    PsuPreset preset = psuPresetAmd525W();
    preset.windowJitter = 0;
    EventQueue queue;
    AtxPowerSupply psu(queue, preset, Rng(1));
    const double mid =
        (preset.busyLoadWatts + preset.idleLoadWatts) / 2.0;
    psu.setLoadWatts(mid);
    psu.failInputNow();
    EXPECT_GT(psu.residualWindow(), preset.busyWindow);
    EXPECT_LT(psu.residualWindow(), preset.idleWindow);
}

TEST(Psu, RestoreInputRecovers)
{
    EventQueue queue;
    AtxPowerSupply psu(queue, psuPresetIntel750W(), Rng(1));
    psu.failInputNow();
    queue.runUntil(psu.regulationEndTick() + fromMillis(100.0));
    EXPECT_FALSE(psu.outputsValid());
    psu.restoreInput();
    EXPECT_TRUE(psu.pwrOk());
    EXPECT_TRUE(psu.outputsValid());
    EXPECT_FALSE(psu.inputFailed());
}

TEST(Psu, JitterNeverShrinksBelowWorstCase)
{
    PsuPreset preset = psuPresetIntel750W();
    for (uint64_t seed = 0; seed < 20; ++seed) {
        EventQueue queue;
        AtxPowerSupply psu(queue, preset, Rng(seed));
        psu.setLoadWatts(preset.busyLoadWatts);
        psu.failInputNow();
        EXPECT_GE(psu.residualWindow(), preset.busyWindow);
        EXPECT_LE(psu.residualWindow(),
                  preset.busyWindow + preset.windowJitter);
    }
}

// PowerMonitor ----------------------------------------------------------

TEST(PowerMonitor, RaisesInterruptAfterLatency)
{
    EventQueue queue;
    AtxPowerSupply psu(queue, psuPresetIntel1050W(), Rng(1));
    PowerMonitor monitor(queue, psu);
    Tick interrupt_at = 0;
    monitor.setPowerFailHandler([&] { interrupt_at = queue.now(); });

    psu.failInputNow();
    queue.runUntil(fromSeconds(1.0));

    const Tick expected = psu.preset().pwrOkDetectDelay +
                          monitor.notifyLatency();
    EXPECT_EQ(interrupt_at, expected);
    EXPECT_EQ(monitor.interruptsRaised(), 1u);
}

TEST(PowerMonitor, CommandsArriveAfterI2cLatency)
{
    EventQueue queue;
    AtxPowerSupply psu(queue, psuPresetIntel1050W(), Rng(1));
    PowerMonitorConfig config;
    PowerMonitor monitor(queue, psu, config);
    std::vector<PowerMonitor::Command> seen;
    Tick arrival = 0;
    monitor.setCommandSink([&](PowerMonitor::Command command) {
        seen.push_back(command);
        arrival = queue.now();
    });
    monitor.sendCommand(PowerMonitor::Command::Save);
    queue.run();
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], PowerMonitor::Command::Save);
    EXPECT_EQ(arrival, config.i2cCommandLatency);
}

// SignalTracer ------------------------------------------------------------

TEST(SignalTracer, SamplesAtConfiguredRate)
{
    EventQueue queue;
    SignalTracer tracer(queue, fromMicros(10.0));
    double level = 1.0;
    tracer.addChannel("ch", [&] { return level; });
    tracer.start();
    queue.runUntil(fromMillis(1.0));
    tracer.stop();
    queue.run();
    // 1 ms at 100 kHz -> 101 samples including both endpoints.
    EXPECT_NEAR(static_cast<double>(tracer.channel("ch").size()), 101, 2);
}

TEST(SignalTracer, DroopDetectionMatchesPaperDefinition)
{
    EventQueue queue;
    SignalTracer tracer(queue, fromMicros(10.0));
    // A rail that droops below 95% of nominal at t = 33 ms.
    tracer.addChannel("rail", [&] {
        return queue.now() < fromMillis(33.0) ? 12.0 : 10.0;
    });
    tracer.start();
    queue.runUntil(fromMillis(40.0));
    tracer.stop();
    queue.run();

    Tick when = 0;
    ASSERT_TRUE(tracer.firstDroop("rail", 12.0, 0.95, fromMicros(250.0),
                                  &when));
    EXPECT_NEAR(toMillis(when), 33.0, 0.05);
}

TEST(SignalTracer, BriefGlitchBelowWindowIgnored)
{
    EventQueue queue;
    SignalTracer tracer(queue, fromMicros(10.0));
    // 100 us glitch: shorter than the 250 us droop definition.
    tracer.addChannel("rail", [&] {
        const Tick t = queue.now();
        const bool glitch = t >= fromMillis(5.0) &&
                            t < fromMillis(5.0) + fromMicros(100.0);
        return glitch ? 10.0 : 12.0;
    });
    tracer.start();
    queue.runUntil(fromMillis(10.0));
    tracer.stop();
    queue.run();

    Tick when = 0;
    EXPECT_FALSE(tracer.firstDroop("rail", 12.0, 0.95, fromMicros(250.0),
                                   &when));
}

TEST(SignalTracer, PsuTraceMeasuresConfiguredWindow)
{
    // End-to-end: measure a PSU's residual window exactly the way the
    // paper does (oscilloscope, 95% droop over 250 us).
    EventQueue queue;
    PsuPreset preset = psuPresetIntel1050W();
    preset.windowJitter = 0;
    AtxPowerSupply psu(queue, preset, Rng(1));
    psu.setLoadWatts(preset.busyLoadWatts);

    SignalTracer tracer(queue, fromMicros(10.0));
    tracer.addChannel("12V", [&] { return psu.railVoltage(Rail::V12); });
    tracer.addChannel("PWR_OK", [&] { return psu.pwrOk() ? 5.0 : 0.0; });
    tracer.start();

    psu.failInputNow();
    queue.runUntil(fromMillis(200.0));
    tracer.stop();
    queue.run();

    Tick pwr_ok_drop = 0;
    ASSERT_TRUE(tracer.firstDroop("PWR_OK", 5.0, 0.95, fromMicros(250.0),
                                  &pwr_ok_drop));
    Tick droop = 0;
    ASSERT_TRUE(tracer.firstDroop("12V", 12.0, 0.95, fromMicros(250.0),
                                  &droop));
    const double window_ms = toMillis(droop - pwr_ok_drop);
    // Measured window ~= configured 33 ms (plus a little droop decay).
    EXPECT_NEAR(window_ms, 33.0, 2.5);
}

// Load model ----------------------------------------------------------

TEST(LoadModel, PresetsAndNames)
{
    EXPECT_EQ(loadClassName(LoadClass::Busy), "Busy");
    EXPECT_EQ(loadClassName(LoadClass::Idle), "Idle");
    const SystemLoad intel = loadIntelTestbed();
    EXPECT_GT(intel.watts(LoadClass::Busy), intel.watts(LoadClass::Idle));
    const SystemLoad amd = loadAmdTestbed();
    EXPECT_LT(amd.busyWatts, intel.busyWatts);
}

} // namespace
} // namespace wsp
