/**
 * @file
 * Failure injection for WSP experiments.
 *
 * Wraps the ways a WSP system can be made to fail, so tests and
 * benches express scenarios declaratively instead of poking model
 * internals:
 *
 *  - AC input failures at chosen instants (the normal case),
 *  - residual windows forced to an exact length (to land a hard power
 *    loss at any chosen point of the save sequence),
 *  - sabotaged NVDIMM ultracapacitors (undersized or pre-drained
 *    banks, the "NVRAM failures" discussion of paper section 6),
 *  - dropped NVDIMM save commands (an I2C bus fault).
 */

#pragma once

#include "core/system.h"

namespace wsp {

/** Declarative failure injection against a WspSystem. */
class FailureInjector
{
  public:
    explicit FailureInjector(WspSystem &system) : system_(system) {}

    /**
     * Drain module @p index's ultracapacitor down to @p voltage so
     * the next save may run out of energy.
     */
    void
    drainUltracap(size_t index, double voltage)
    {
        Ultracapacitor &cap =
            system_.memory().module(index).ultracap();
        // Drain gently: near the floor a heavy draw delivers nothing
        // (the ESR drop puts the terminal below the usable voltage).
        while (cap.voltage() > voltage) {
            if (cap.discharge(2.0, fromSeconds(1.0)) <= 0.0)
                break;
        }
    }

    /**
     * Build a SystemConfig whose PSU yields an exact, jitter-free
     * residual window — the scalpel for hitting a specific step of
     * the save sequence.
     */
    static SystemConfig
    withExactWindow(SystemConfig config, Tick window)
    {
        config.psu.windowJitter = 0;
        config.psu.pwrOkDetectDelay = 0;
        config.psu.busyWindow = window;
        config.psu.idleWindow = window;
        return config;
    }

    /**
     * Build a SystemConfig whose NVDIMM banks are too small to finish
     * their flash saves (energy-exhaustion failures).
     */
    static SystemConfig
    withUndersizedUltracaps(SystemConfig config)
    {
        config.nvdimm.ultracap.ratedCapacitanceF = 0.01;
        config.nvdimm.savePowerWatts = 50.0;
        return config;
    }

    /**
     * Inject an I2C bus fault: the next @p count NVDIMM commands the
     * power monitor relays are silently dropped.
     */
    void
    dropSaveCommands(unsigned count)
    {
        system_.monitor().failNextCommands(count);
    }

  private:
    WspSystem &system_;
};

} // namespace wsp
