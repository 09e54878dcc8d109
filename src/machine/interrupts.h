/**
 * @file
 * Interrupt delivery between processors.
 *
 * The save routine's control processor sends an inter-processor
 * interrupt (IPI) to every other processor so they save their own
 * context and flush their caches in parallel (paper section 4). Only
 * the delivery latency matters to the save budget; handlers run as
 * event-queue callbacks.
 */

#pragma once

#include <functional>

#include "sim/sim_object.h"
#include "trace/stat_registry.h"
#include "trace/trace.h"
#include "util/units.h"

namespace wsp {

/** APIC-style interrupt fabric with a fixed delivery latency. */
class InterruptController : public SimObject
{
  public:
    using Handler = std::function<void(unsigned cpu)>;

    InterruptController(EventQueue &queue, Tick ipi_latency)
        : SimObject(queue, "interrupt-controller"),
          ipiLatency_(ipi_latency)
    {}

    Tick ipiLatency() const { return ipiLatency_; }

    /** Deliver an IPI to @p cpu after the fabric latency. */
    void
    sendIpi(unsigned cpu, Handler handler)
    {
        ++ipisSent_;
        static trace::Counter &ipis_sent =
            trace::StatRegistry::instance().counter("machine.ipis_sent");
        ipis_sent.add();
        TRACE_SIM_INSTANT(queue_, Machine, "IPI");
        queue_.scheduleAfter(ipiLatency_,
                             [cpu, handler = std::move(handler)] {
            handler(cpu);
        });
    }

    uint64_t ipisSent() const { return ipisSent_; }

  private:
    Tick ipiLatency_;
    uint64_t ipisSent_ = 0;
};

} // namespace wsp
