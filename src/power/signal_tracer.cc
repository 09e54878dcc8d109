#include "power/signal_tracer.h"

#include <cmath>

#include "trace/trace.h"
#include "util/logging.h"

namespace wsp {

SignalTracer::SignalTracer(EventQueue &queue, Tick sample_period)
    : SimObject(queue, "signal-tracer"), samplePeriod_(sample_period)
{
    WSP_CHECK(samplePeriod_ > 0);
}

void
SignalTracer::addChannel(const std::string &name,
                         std::function<double()> probe)
{
    WSP_CHECK(probe != nullptr);
    for (const auto &ch : channels_)
        WSP_CHECKF(ch.name != name, "duplicate channel %s", name.c_str());
    channels_.push_back(Channel{name, std::move(probe), Series{name, {}, {}}});
}

void
SignalTracer::start()
{
    WSP_CHECK(!running_);
    running_ = true;
    startTick_ = now();
    sampleAll();
}

void
SignalTracer::stop()
{
    running_ = false;
}

void
SignalTracer::sampleAll()
{
    if (!running_)
        return;
    const double t = toSeconds(now() - startTick_);
    for (auto &ch : channels_) {
        const double value = ch.probe();
        ch.trace.add(t, value);
        // Bridge analog channels onto the event trace as counter
        // tracks ("12V rail", "PWR_OK", ...).
        TRACE_SIM_COUNTER(queue_, Power, ch.name.c_str(), value);
    }
    queue_.scheduleAfter(samplePeriod_, [this] { sampleAll(); });
}

const SignalTracer::Channel &
SignalTracer::find(const std::string &name) const
{
    for (const auto &ch : channels_) {
        if (ch.name == name)
            return ch;
    }
    fatal("signal tracer has no channel named '%s'", name.c_str());
}

const Series &
SignalTracer::channel(const std::string &name) const
{
    return find(name).trace;
}

bool
SignalTracer::firstDroop(const std::string &name, double nominal,
                         double frac, Tick window, Tick *when_out) const
{
    const Series &trace = find(name).trace;
    const double threshold = frac * nominal;
    const auto need = static_cast<size_t>(
        std::max<Tick>(window / samplePeriod_, 1));

    size_t run = 0;
    for (size_t i = 0; i < trace.size(); ++i) {
        if (trace.ys[i] < threshold) {
            ++run;
            if (run >= need) {
                const size_t start = i + 1 - need;
                *when_out = fromSeconds(trace.xs[start]);
                return true;
            }
        } else {
            run = 0;
        }
    }
    return false;
}

} // namespace wsp
