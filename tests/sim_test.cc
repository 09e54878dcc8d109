/**
 * @file
 * Unit tests for the discrete-event engine and signals.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.h"
#include "sim/signal.h"
#include "sim/sim_object.h"

namespace wsp {
namespace {

TEST(EventQueue, StartsAtZero)
{
    EventQueue queue;
    EXPECT_EQ(queue.now(), 0u);
    EXPECT_EQ(queue.pending(), 0u);
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue queue;
    std::vector<int> order;
    queue.schedule(30, [&] { order.push_back(3); });
    queue.schedule(10, [&] { order.push_back(1); });
    queue.schedule(20, [&] { order.push_back(2); });
    queue.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(queue.now(), 30u);
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        queue.schedule(10, [&order, i] { order.push_back(i); });
    queue.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue queue;
    Tick fired_at = 0;
    queue.schedule(100, [&] {
        queue.scheduleAfter(50, [&] { fired_at = queue.now(); });
    });
    queue.run();
    EXPECT_EQ(fired_at, 150u);
}

TEST(EventQueue, PastScheduleClampsToNow)
{
    EventQueue queue;
    Tick fired_at = 1;
    queue.schedule(100, [&] {
        queue.schedule(10, [&] { fired_at = queue.now(); });
    });
    queue.run();
    EXPECT_EQ(fired_at, 100u);
}

TEST(EventQueue, CancelPreventsDispatch)
{
    EventQueue queue;
    bool fired = false;
    const EventId id = queue.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(queue.cancel(id));
    queue.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceFails)
{
    EventQueue queue;
    const EventId id = queue.schedule(10, [] {});
    EXPECT_TRUE(queue.cancel(id));
    EXPECT_FALSE(queue.cancel(id));
    queue.run();
}

TEST(EventQueue, CancelUnknownFails)
{
    EventQueue queue;
    EXPECT_FALSE(queue.cancel(kEventNone));
    EXPECT_FALSE(queue.cancel(12345));
}

TEST(EventQueue, RunUntilStopsAtTarget)
{
    EventQueue queue;
    std::vector<Tick> fired;
    queue.schedule(10, [&] { fired.push_back(10); });
    queue.schedule(20, [&] { fired.push_back(20); });
    queue.schedule(30, [&] { fired.push_back(30); });
    queue.runUntil(20);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20}));
    EXPECT_EQ(queue.now(), 20u);
    EXPECT_EQ(queue.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesTimeWithoutEvents)
{
    EventQueue queue;
    queue.runUntil(500);
    EXPECT_EQ(queue.now(), 500u);
}

TEST(EventQueue, RunUntilSkipsCancelledWithoutOverrunning)
{
    EventQueue queue;
    bool late_fired = false;
    const EventId id = queue.schedule(10, [] {});
    queue.schedule(100, [&] { late_fired = true; });
    queue.cancel(id);
    queue.runUntil(50);
    EXPECT_FALSE(late_fired);
    EXPECT_EQ(queue.now(), 50u);
}

TEST(EventQueue, StepFiresExactlyOne)
{
    EventQueue queue;
    int count = 0;
    queue.schedule(1, [&] { ++count; });
    queue.schedule(2, [&] { ++count; });
    EXPECT_TRUE(queue.step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(queue.step());
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(queue.step());
}

TEST(EventQueue, StopRequestHaltsRun)
{
    EventQueue queue;
    int count = 0;
    queue.schedule(1, [&] {
        ++count;
        queue.requestStop();
    });
    queue.schedule(2, [&] { ++count; });
    queue.run();
    EXPECT_EQ(count, 1);
    queue.clearStop();
    queue.run();
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, PendingTracksCancellations)
{
    EventQueue queue;
    const EventId a = queue.schedule(1, [] {});
    queue.schedule(2, [] {});
    EXPECT_EQ(queue.pending(), 2u);
    queue.cancel(a);
    EXPECT_EQ(queue.pending(), 1u);
    queue.run();
    EXPECT_EQ(queue.pending(), 0u);
}

TEST(EventQueue, EventsScheduledDuringRunAreDispatched)
{
    EventQueue queue;
    int depth = 0;
    std::function<void()> recurse = [&] {
        if (++depth < 5)
            queue.scheduleAfter(10, recurse);
    };
    queue.schedule(0, recurse);
    queue.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(queue.now(), 40u);
}

TEST(EventQueue, StopMidRunUntilLeavesNowAtLastDispatch)
{
    EventQueue queue;
    std::vector<Tick> fired;
    queue.schedule(10, [&] { fired.push_back(10); });
    queue.schedule(20, [&] {
        fired.push_back(20);
        queue.requestStop();
    });
    queue.schedule(30, [&] { fired.push_back(30); });
    queue.runUntil(100);
    // The drain halts at the stopping event; time must not jump to
    // the target, and the later event must still be pending.
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20}));
    EXPECT_EQ(queue.now(), 20u);
    EXPECT_EQ(queue.pending(), 1u);
    queue.clearStop();
    queue.runUntil(100);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20, 30}));
    EXPECT_EQ(queue.now(), 100u);
}

TEST(EventQueue, RunUntilIncludesEventScheduledAtTargetMidDrain)
{
    EventQueue queue;
    std::vector<Tick> fired;
    queue.schedule(50, [&] {
        fired.push_back(50);
        // Scheduled during the drain, exactly at the target tick:
        // must fire in this same runUntil call.
        queue.schedule(100, [&] { fired.push_back(100); });
    });
    queue.runUntil(100);
    EXPECT_EQ(fired, (std::vector<Tick>{50, 100}));
    EXPECT_EQ(queue.now(), 100u);
    EXPECT_EQ(queue.pending(), 0u);
}

TEST(EventQueue, CallbackMayCancelTheAboutToFireTop)
{
    EventQueue queue;
    std::vector<int> fired;
    EventId second = kEventNone;
    // Two events at the same tick: the first cancels the second,
    // which is at that point the next entry to dispatch.
    queue.schedule(10, [&] {
        fired.push_back(1);
        EXPECT_TRUE(queue.cancel(second));
    });
    second = queue.schedule(10, [&] { fired.push_back(2); });
    queue.schedule(20, [&] { fired.push_back(3); });
    queue.run();
    EXPECT_EQ(fired, (std::vector<int>{1, 3}));
    EXPECT_EQ(queue.now(), 20u);
}

TEST(EventQueue, StaleHandleCannotCancelRecycledSlot)
{
    EventQueue queue;
    bool survivor_fired = false;
    const EventId first = queue.schedule(5, [] {});
    queue.run(); // fires and frees the slot
    // The next schedule reuses the slot under a fresh generation; the
    // stale handle must not be able to reach it.
    queue.schedule(10, [&] { survivor_fired = true; });
    EXPECT_FALSE(queue.cancel(first));
    EXPECT_EQ(queue.pending(), 1u);
    queue.run();
    EXPECT_TRUE(survivor_fired);
}

TEST(EventQueue, CancelledHandleStaysStaleAfterSlotReuse)
{
    EventQueue queue;
    bool survivor_fired = false;
    const EventId first = queue.schedule(5, [] {});
    EXPECT_TRUE(queue.cancel(first));
    queue.schedule(10, [&] { survivor_fired = true; });
    EXPECT_FALSE(queue.cancel(first));
    queue.run();
    EXPECT_TRUE(survivor_fired);
}

TEST(EventQueue, ObserverSeesEveryDispatchBoundaryAcrossRunModes)
{
    EventQueue queue;
    std::vector<Tick> observed, fired;
    queue.setDispatchObserver([&](Tick t) { observed.push_back(t); });
    queue.schedule(10, [&] { fired.push_back(queue.now()); });
    queue.schedule(10, [&] { fired.push_back(queue.now()); });
    queue.schedule(25, [&] { fired.push_back(queue.now()); });
    queue.step();
    queue.runUntil(10);
    queue.run();
    // One observation per dispatch, at the dispatch tick, with now()
    // already advanced when the callback runs.
    EXPECT_EQ(observed, (std::vector<Tick>{10, 10, 25}));
    EXPECT_EQ(fired, observed);
    queue.setDispatchObserver(nullptr);
    queue.schedule(30, [] {});
    queue.run();
    EXPECT_EQ(observed.size(), 3u); // uninstalled: no further calls
}

// Reserved dispatch order ----------------------------------------------

TEST(EventQueue, ReservedEventsFireInReservationOrderAtEqualTicks)
{
    EventQueue queue;
    std::vector<int> order;
    queue.schedule(10, [&] { order.push_back(0); });
    const uint64_t first = queue.reserve(3);
    queue.schedule(10, [&] { order.push_back(9); });
    // Inserted after the plain event above and out of order, yet they
    // fire where they would had they been scheduled at reserve().
    queue.scheduleReserved(10, first + 2, [&] { order.push_back(3); });
    queue.scheduleReserved(10, first, [&] {
        order.push_back(1);
        // Re-armed mid-dispatch at the same tick: still ahead of the
        // event scheduled after the reservation.
        queue.scheduleReserved(10, first + 1,
                               [&] { order.push_back(2); });
    });
    queue.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 9}));
}

TEST(EventQueue, ReservedEventCanBeCancelled)
{
    EventQueue queue;
    const uint64_t first = queue.reserve(2);
    bool fired = false;
    const EventId id =
        queue.scheduleReserved(5, first + 1, [&] { fired = true; });
    EXPECT_TRUE(queue.cancel(id));
    EXPECT_FALSE(queue.cancel(id));
    queue.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(queue.now(), 0u);
}

TEST(EventQueue, PendingCountsReservedEventsNotReservations)
{
    EventQueue queue;
    const uint64_t first = queue.reserve(4);
    EXPECT_EQ(queue.pending(), 0u);
    queue.scheduleReserved(3, first + 3, [] {});
    queue.scheduleReserved(1, first, [] {});
    queue.schedule(2, [] {});
    EXPECT_EQ(queue.pending(), 3u);
    EXPECT_TRUE(queue.step());
    EXPECT_EQ(queue.now(), 1u);
    EXPECT_EQ(queue.pending(), 2u);
    queue.run();
    EXPECT_EQ(queue.pending(), 0u);
    EXPECT_EQ(queue.now(), 3u);
}

TEST(EventQueueDeathTest, ReservationPastSequenceSpaceIsRefused)
{
    constexpr uint64_t kSeqSpace = uint64_t{1} << 40;
    EXPECT_DEATH(
        {
            EventQueue queue;
            queue.schedule(1, [] {});
            queue.reserve(kSeqSpace);
        },
        "sequence space exhausted");
    EXPECT_DEATH(
        {
            EventQueue queue;
            queue.reserve(kSeqSpace); // fills the space exactly
            queue.schedule(1, [] {});
        },
        "sequence space exhausted");
    EXPECT_DEATH(
        {
            EventQueue queue;
            const uint64_t first = queue.reserve(1);
            queue.scheduleReserved(1, first + 1, [] {});
        },
        "was not reserved");
}

// Signal --------------------------------------------------------------

TEST(Signal, ObserverSeesOldAndNew)
{
    Signal<int> sig(1);
    int seen_old = 0;
    int seen_new = 0;
    sig.observe([&](const int &o, const int &n) {
        seen_old = o;
        seen_new = n;
    });
    sig.set(5);
    EXPECT_EQ(seen_old, 1);
    EXPECT_EQ(seen_new, 5);
}

TEST(Signal, NoNotificationWithoutChange)
{
    Signal<int> sig(3);
    int fires = 0;
    sig.observe([&](const int &, const int &) { ++fires; });
    sig.set(3);
    EXPECT_EQ(fires, 0);
    sig.set(4);
    EXPECT_EQ(fires, 1);
}

TEST(Signal, ObserveEdgeFiltersLevel)
{
    Wire wire(true);
    int falls = 0;
    int rises = 0;
    wire.observeEdge(false, [&] { ++falls; });
    wire.observeEdge(true, [&] { ++rises; });
    wire.set(false);
    wire.set(true);
    wire.set(false);
    EXPECT_EQ(falls, 2);
    EXPECT_EQ(rises, 1);
}

TEST(Signal, ObserverMaySubscribeMore)
{
    Signal<int> sig(0);
    int second_fired = 0;
    sig.observe([&](const int &, const int &) {
        sig.observe([&](const int &, const int &) { ++second_fired; });
    });
    sig.set(1); // subscribing during notification must not fire it
    EXPECT_EQ(second_fired, 0);
    sig.set(2);
    EXPECT_GE(second_fired, 1);
}

// SimObject -----------------------------------------------------------

TEST(SimObject, NameAndClock)
{
    EventQueue queue;
    SimObject obj(queue, "thing");
    EXPECT_EQ(obj.name(), "thing");
    queue.schedule(25, [] {});
    queue.run();
    EXPECT_EQ(obj.now(), 25u);
}

} // namespace
} // namespace wsp
