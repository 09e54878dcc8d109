/**
 * @file
 * Sampling oscilloscope for simulated electrical signals.
 *
 * The paper measured residual energy windows with a sampling
 * oscilloscope at 100 kHz, defining an output droop as any 250 us
 * interval in which a rail stays below 95% of nominal (section 5.2).
 * SignalTracer reproduces exactly that methodology against the
 * simulated PSU so the Fig. 6 / Fig. 7 benches measure windows the
 * same way the authors did rather than reading model internals.
 */

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/sim_object.h"
#include "util/stats.h"
#include "util/units.h"

namespace wsp {

/** Multi-channel sampled tracer with droop detection. */
class SignalTracer : public SimObject
{
  public:
    /** @param sample_period default 10 us = the paper's 100 kHz. */
    SignalTracer(EventQueue &queue, Tick sample_period = fromMicros(10.0));

    /** Add a probe; sampled every period once start() is called. */
    void addChannel(const std::string &name,
                    std::function<double()> probe);

    /** Begin sampling at the current tick. */
    void start();

    /** Stop sampling. */
    void stop();

    bool running() const { return running_; }

    /** Recorded trace of a channel; x = seconds, y = probe value. */
    const Series &channel(const std::string &name) const;

    /**
     * Find the first time a channel droops: the start of the first
     * @p window interval during which every sample is below
     * @p frac * @p nominal.
     *
     * @return true if a droop was found; *when_out is the droop start
     *         in ticks from the start of tracing.
     */
    bool firstDroop(const std::string &name, double nominal,
                    double frac, Tick window, Tick *when_out) const;

  private:
    struct Channel
    {
        std::string name;
        std::function<double()> probe;
        Series trace;
    };

    void sampleAll();
    const Channel &find(const std::string &name) const;

    Tick samplePeriod_;
    Tick startTick_ = 0;
    bool running_ = false;
    std::vector<Channel> channels_;
};

} // namespace wsp
