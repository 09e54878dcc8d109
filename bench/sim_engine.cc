/**
 * @file
 * Event-engine microbench: throughput of the slab-heap EventQueue on
 * three workloads, gated on deterministic properties of the engine
 * rather than on wall-clock ratios.
 *
 * Three workloads, each measuring sustained events/sec:
 *
 *  - dispatch mix: a steady-state self-rescheduling ladder (every
 *    fired event schedules a successor at a random offset) where each
 *    fired event also re-arms the deadline timers of the components
 *    it touched — the PSU pending-failure and device-watchdog pattern
 *    (cancel the old deadline, schedule a new one; see
 *    psu.cc) — at fleet scale, four timers per event. Callbacks
 *    capture a state pointer plus two 64-bit words, representative of
 *    model closures and well inside EventFn's inline buffer.
 *    Measurement starts only after the first timer deadlines pass,
 *    i.e. in steady state.
 *  - cancel-heavy: every iteration schedules two live events, cancels
 *    one of them, and dispatches one — the retry/timeout pattern.
 *  - same-tick burst: hundreds of events on one tick, exercising the
 *    FIFO (seq-ordered) contract that seeded determinism rests on.
 *
 * The rates are printed and land in the --metrics-out snapshot, but
 * are not gated: one shot on a shared host is too noisy for a floor.
 * The gates are what the engine guarantees on any host and at any
 * optimization level:
 *
 *  - no heap allocation inside the dispatch mix's timed window,
 *    counted by the replacement global operator new below — a
 *    closure outgrowing EventFn's inline buffer, or a queue that
 *    grows per event, allocates there;
 *  - after the cancel-heavy loop, pending() equals schedules minus
 *    cancels minus dispatches, so cancel leaves no tombstone behind;
 *  - same-tick events fire in schedule order.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <vector>

#include "bench/bench_util.h"
#include "sim/event_queue.h"
#include "trace/stat_registry.h"
#include "util/rng.h"

using namespace wsp;

namespace {

/** Every global operator new call since the program started. */
std::atomic<uint64_t> gHeapAllocations{0};

uint64_t
heapAllocations()
{
    return gHeapAllocations.load(std::memory_order_relaxed);
}

} // namespace

void *
operator new(std::size_t size)
{
    gHeapAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *block = std::malloc(size == 0 ? 1 : size))
        return block;
    throw std::bad_alloc();
}

void
operator delete(void *block) noexcept
{
    std::free(block);
}

void
operator delete(void *block, std::size_t) noexcept
{
    std::free(block);
}

namespace {

/** Devices in the dispatch-mix ladder. */
constexpr uint64_t kLadderWidth = 4096;
/** Deadline timers re-armed per fired ladder event. */
constexpr uint32_t kTimersPerEvent = 4;
/** Deadline distance. */
constexpr Tick kDeadline = 16384;
/** Mean gap between a device's consecutive events (offset 1..1024). */
constexpr uint64_t kMeanGap = 512;

/** Self-rescheduling ladder state shared by all pending events. */
struct LadderState
{
    EventQueue &queue;
    Rng rng;
    uint64_t remaining = 0; ///< successors still to schedule
    uint64_t fired = 0;
    uint64_t warmup = 0;  ///< fired count at which timing starts
    uint64_t measure = 0; ///< events in the timed window
    uint64_t sink = 0;    ///< keeps the payload math observable
    uint64_t deadlinesHit = 0;
    std::vector<EventId> timers{}; ///< timer ids, per device x timer
    std::chrono::steady_clock::time_point windowBegin{}, windowEnd{};
    uint64_t allocationsBegin = 0, allocationsEnd = 0;
};

void
pump(LadderState *state, uint32_t device, uint64_t arg_a, uint64_t arg_b)
{
    ++state->fired;
    if (state->fired == state->warmup) {
        state->allocationsBegin = heapAllocations();
        state->windowBegin = std::chrono::steady_clock::now();
    } else if (state->fired == state->warmup + state->measure) {
        state->windowEnd = std::chrono::steady_clock::now();
        state->allocationsEnd = heapAllocations();
    }
    state->sink ^= arg_a + (arg_b << 1);
    // Re-arm the deadline timers of the components this event touched
    // (the psu.cc pendingFailure_ pattern): cancel the old deadline,
    // schedule the fresh one.
    for (uint32_t t = 0; t < kTimersPerEvent; ++t) {
        const uint32_t timer = device * kTimersPerEvent + t;
        if (state->timers[timer])
            state->queue.cancel(state->timers[timer]);
        const Tick deadline = state->queue.now() + kDeadline + t;
        state->timers[timer] =
            state->queue.schedule(deadline, [state, timer, deadline] {
                state->deadlinesHit += deadline != 0;
                state->timers[timer] = 0;
            });
    }
    if (state->remaining == 0)
        return;
    --state->remaining;
    const uint64_t a = state->rng();
    // 24 bytes of capture: one pointer, index, one argument.
    state->queue.schedule(state->queue.now() + 1 + (a & 1023),
                          [state, device, a] { pump(state, device, a, a); });
}

/** What the dispatch mix measured over its timed window. */
struct DispatchWindow
{
    double eventsPerSec = 0.0;
    uint64_t allocations = 0;
};

/** Steady-state schedule+cancel+dispatch mix, timed over a window
 *  that starts after the warm-up ramp. */
DispatchWindow
dispatchMix(uint64_t total_events, uint64_t seed)
{
    EventQueue queue;
    LadderState state{.queue = queue, .rng = Rng(seed)};
    // Steady state begins once the earliest deadlines pass now(): from
    // then on every re-arm cancels a live timer.
    state.warmup = kDeadline * kLadderWidth / kMeanGap + kLadderWidth;
    state.measure = total_events;
    state.remaining = state.warmup + state.measure;
    state.timers.assign(kLadderWidth * kTimersPerEvent, 0);
    for (uint64_t i = 0; i < kLadderWidth; ++i) {
        const uint64_t a = state.rng();
        LadderState *st = &state;
        const uint32_t device = static_cast<uint32_t>(i);
        queue.schedule(1 + (a & 1023),
                       [st, device, a] { pump(st, device, a, a); });
    }
    queue.run();
    WSP_CHECK(state.fired >= state.warmup + state.measure);
    const double seconds = std::chrono::duration<double>(
                               state.windowEnd - state.windowBegin)
                               .count();
    return {static_cast<double>(state.measure) / seconds,
            state.allocationsEnd - state.allocationsBegin};
}

/** Queue population after the cancel-heavy loop. */
struct CancelLedger
{
    uint64_t pending = 0; ///< EventQueue::pending()
    uint64_t live = 0;    ///< schedules - cancels - dispatches
};

/** Schedule two, cancel one live, fire one; returns events/sec over
 *  all schedule+cancel+dispatch operations. */
double
cancelHeavy(uint64_t iterations, uint64_t seed, CancelLedger *ledger)
{
    EventQueue queue;
    Rng rng(seed);
    uint64_t fired = 0;
    uint64_t scheduled = 0;
    uint64_t cancelled = 0;
    const auto fire = [&fired] { ++fired; };
    // Warm the queue so dispatches never run dry mid-measurement.
    constexpr uint64_t kWarm = 1024;
    for (uint64_t i = 0; i < kWarm; ++i, ++scheduled)
        queue.schedule(1 + rng.next(1024), fire);
    bench::Stopwatch watch;
    for (uint64_t i = 0; i < iterations; ++i) {
        const Tick base = queue.now() + 1;
        const auto a = queue.schedule(base + rng.next(1024), fire);
        const auto b = queue.schedule(base + rng.next(1024), fire);
        scheduled += 2;
        WSP_CHECK(queue.cancel((rng() & 1) != 0 ? a : b));
        ++cancelled;
        queue.step();
    }
    const double seconds = watch.seconds();
    ledger->pending = queue.pending();
    ledger->live = scheduled - cancelled - fired;
    // 4 queue operations per iteration (2 schedules, 1 cancel, 1 step).
    return static_cast<double>(iterations * 4) / seconds;
}

/** Same-tick bursts; verifies FIFO order, returns events/sec. */
double
sameTickBurst(uint64_t rounds, uint64_t burst, bool *fifo_ok)
{
    EventQueue queue;
    uint64_t expected = 0;
    bool in_order = true;
    bench::Stopwatch watch;
    for (uint64_t round = 0; round < rounds; ++round) {
        const Tick when = queue.now() + 10;
        for (uint64_t i = 0; i < burst; ++i) {
            const uint64_t tag = round * burst + i;
            queue.schedule(when, [&expected, &in_order, tag] {
                in_order = in_order && tag == expected;
                ++expected;
            });
        }
        queue.run();
    }
    const double seconds = watch.seconds();
    *fifo_ok = in_order && expected == rounds * burst;
    return static_cast<double>(rounds * burst) / seconds;
}

std::string
mops(double rate)
{
    return formatDouble(rate / 1e6, 2);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::init("sim_engine", argc, argv);

    const uint64_t seed = bench::rngSeed(20260808);
    const uint64_t events = bench::fullRuns() ? 8u << 20 : 1u << 20;
    const unsigned repeat = bench::repeat();

    // Gated quantities are the worst over every repeat.
    uint64_t window_allocations = 0;
    CancelLedger ledger;
    bool ledger_balanced = true;
    bool fifo_ok = true;

    const double dispatch = bench::minOf(repeat, [&] {
        const DispatchWindow window = dispatchMix(events, seed);
        window_allocations = std::max(window_allocations, window.allocations);
        return window.eventsPerSec;
    });
    const double cancel = bench::minOf(repeat, [&] {
        const double rate = cancelHeavy(events / 4, seed + 1, &ledger);
        ledger_balanced = ledger_balanced && ledger.pending == ledger.live;
        return rate;
    });
    const double burst = bench::minOf(repeat, [&] {
        bool ok = true;
        const double rate = sameTickBurst(events / 1024, 256, &ok);
        fifo_ok = fifo_ok && ok;
        return rate;
    });

    Table table("Event engine throughput (Mevents/sec, min of --repeat)");
    table.setHeader({"workload", "Mevents/sec"});
    table.addRow({"dispatch mix", mops(dispatch)});
    table.addRow({"cancel-heavy", mops(cancel)});
    table.addRow({"same-tick burst", mops(burst)});
    table.print();
    std::printf("\nheap allocations in the %llu-event dispatch window: "
                "%llu\npending after the cancel-heavy loop: %llu "
                "(schedules - cancels - dispatches: %llu)\n\n",
                static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(window_allocations),
                static_cast<unsigned long long>(ledger.pending),
                static_cast<unsigned long long>(ledger.live));

    auto &stats = trace::StatRegistry::instance();
    stats.gauge("sim_engine.fast.dispatch_per_sec").set(dispatch);
    stats.gauge("sim_engine.fast.cancel_per_sec").set(cancel);
    stats.gauge("sim_engine.fast.burst_per_sec").set(burst);
    stats.gauge("sim_engine.dispatch_window_allocations")
        .set(static_cast<double>(window_allocations));
    stats.gauge("sim_engine.pending_after_cancels")
        .set(static_cast<double>(ledger.pending));

    ShapeCheck check("Event engine");
    check.expectBetween("no heap allocation in the dispatch window",
                        static_cast<double>(window_allocations), 0.0, 0.0);
    check.expectTrue("pending() == schedules - cancels - dispatches "
                     "(no tombstones)",
                     ledger_balanced);
    check.expectTrue("same-tick events fire in FIFO order", fifo_ok);
    return bench::finish(check);
}
