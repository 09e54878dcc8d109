/**
 * @file
 * Differential and determinism battery for the simulation core.
 *
 * Three lines of defense around the raw-speed event engine:
 *
 *  1. A differential property test drives the index-tracked-heap
 *     EventQueue and a naive reference model (a sorted vector with
 *     explicit FIFO sequence numbers) through hundreds of thousands
 *     of randomized schedule / scheduleAfter / reserve /
 *     scheduleReserved / cancel / step / runUntil / requestStop
 *     operations — including schedules, cancellations and stop
 *     requests issued from inside firing callbacks, and reserved
 *     sequence numbers inserted out of order across later dispatches
 *     — asserting identical dispatch order, now() and pending()
 *     throughout.
 *  2. A full-system determinism regression: two runs of the same
 *     crashsim schedule must produce byte-identical trace-record
 *     sequences (wall-clock timestamps excluded).
 *  3. A pinned crash-point enumeration: the distinguishable-crash-
 *     point sweep for a fixed schedule must keep its exact count and
 *     content hash across engine rewrites — the event boundaries the
 *     dispatch observer exposes are load-bearing for crashsim.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "test_seed.h"

#include "crashsim/crash_explorer.h"
#include "sim/event_queue.h"
#include "trace/trace.h"
#include "util/rng.h"
#include "util/units.h"

namespace wsp {
namespace {

// ---------------------------------------------------------------------------
// Reference model: the textbook specification of EventQueue semantics.
// ---------------------------------------------------------------------------

/**
 * Sorted-vector event queue holding opaque tokens instead of
 * callbacks. Dispatch order is (when, schedule sequence); cancel is a
 * linear search by id. Deliberately naive — every behavior is spelled
 * out so a disagreement with EventQueue is a bug in the engine.
 */
class ReferenceQueue
{
  public:
    Tick now() const { return now_; }

    uint64_t schedule(Tick when, uint64_t token)
    {
        if (when < now_)
            when = now_;
        const uint64_t id = nextId_++;
        entries_.push_back(Entry{when, seq_++, id, token});
        return id;
    }

    uint64_t scheduleAfter(Tick delay, uint64_t token)
    {
        return schedule(now_ + delay, token);
    }

    uint64_t reserve(uint64_t count)
    {
        const uint64_t first = seq_;
        seq_ += count;
        return first;
    }

    uint64_t scheduleReserved(Tick when, uint64_t seq, uint64_t token)
    {
        const uint64_t id = nextId_++;
        entries_.push_back(Entry{when, seq, id, token});
        return id;
    }

    bool cancel(uint64_t id)
    {
        for (size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].id == id) {
                entries_.erase(entries_.begin() +
                               static_cast<ptrdiff_t>(i));
                return true;
            }
        }
        return false;
    }

    size_t pending() const { return entries_.size(); }

    bool stopRequested() const { return stop_; }
    void requestStop() { stop_ = true; }
    void clearStop() { stop_ = false; }

    /** Pop the earliest entry; false when empty. Ignores stop. */
    template <typename Fire>
    bool step(Fire &&fire)
    {
        if (entries_.empty())
            return false;
        const size_t best = earliest();
        const Entry entry = entries_[best];
        entries_.erase(entries_.begin() + static_cast<ptrdiff_t>(best));
        now_ = entry.when;
        fire(entry.token);
        return true;
    }

    template <typename Fire>
    Tick runUntil(Tick when, Fire &&fire)
    {
        while (!stop_ && !entries_.empty() &&
               entries_[earliest()].when <= when) {
            step(fire);
        }
        if (!stop_)
            now_ = when;
        return now_;
    }

  private:
    struct Entry
    {
        Tick when;
        uint64_t seq;
        uint64_t id;
        uint64_t token;
    };

    size_t earliest() const
    {
        size_t best = 0;
        for (size_t i = 1; i < entries_.size(); ++i) {
            const Entry &e = entries_[i];
            const Entry &b = entries_[best];
            if (e.when < b.when || (e.when == b.when && e.seq < b.seq))
                best = i;
        }
        return best;
    }

    std::vector<Entry> entries_;
    Tick now_ = 0;
    uint64_t seq_ = 0;
    uint64_t nextId_ = 1;
    bool stop_ = false;
};

// ---------------------------------------------------------------------------
// Differential driver.
// ---------------------------------------------------------------------------

/** Marks an in-callback cancel outcome in the dispatch log. */
constexpr uint64_t kCancelMark = uint64_t{1} << 63;

/**
 * Drives EventQueue and ReferenceQueue through one identical randomized
 * operation stream. Every scheduled event carries a token (its index
 * in the per-side id table); callback behavior is a pure function of
 * the token, so the two sides can only stay in lockstep if they fire
 * the same tokens in the same order — which is what the log compare
 * asserts. Callback side effects cover the nasty cases: spawning
 * children mid-drain, cancelling other live events (including the
 * about-to-fire ones), and stopping the drain.
 */
class DifferentialDriver
{
  public:
    explicit DifferentialDriver(uint64_t seed) : rng_(seed) {}

    void runOps(size_t ops)
    {
        for (size_t op = 0; op < ops; ++op) {
            applyOneOp();
            ASSERT_EQ(ref_.now(), fast_.now()) << "op " << op;
            ASSERT_EQ(ref_.pending(), fast_.pending()) << "op " << op;
            ASSERT_EQ(ref_.stopRequested(), fast_.stopRequested())
                << "op " << op;
            if (op % 16 == 15) {
                ASSERT_EQ(refLog_, fastLog_) << "op " << op;
            }
            if (op % 512 == 511)
                fast_.checkConsistency();
        }
        // Drain both queues completely and do the final compare.
        ref_.clearStop();
        fast_.clearStop();
        while (ref_.step([this](uint64_t t) { refFired(t); })) {
        }
        while (fast_.step()) {
        }
        fast_.checkConsistency();
        ASSERT_EQ(ref_.now(), fast_.now());
        ASSERT_EQ(ref_.pending(), fast_.pending());
        ASSERT_EQ(fast_.pending(), 0u);
        ASSERT_EQ(refLog_, fastLog_);
        ASSERT_GT(fastLog_.size(), 0u);
    }

    size_t dispatched() const { return fastLog_.size(); }

  private:
    void applyOneOp()
    {
        const uint64_t choice = rng_.next(100);
        if (choice < 30) {
            scheduleBoth(fast_.now() + rng_.next(1024));
        } else if (choice < 35) {
            scheduleReservedOrReserve();
        } else if (choice < 50) {
            const Tick delay = rng_.next(1024);
            const uint64_t token = allocToken();
            refIds_[token] = ref_.scheduleAfter(delay, token);
            fastIds_[token] =
                fast_.scheduleAfter(delay, callbackFor(token));
        } else if (choice < 70) {
            // Cancel a random handle: may be live, fired, or already
            // cancelled — outcomes must agree (generation staleness on
            // the fast side vs. id lookup failure on the reference).
            if (nextToken_ > 0) {
                const uint64_t token = rng_.next(nextToken_);
                ASSERT_EQ(ref_.cancel(refIds_[token]),
                          fast_.cancel(fastIds_[token]))
                    << "cancel of token " << token;
            }
        } else if (choice < 85) {
            ASSERT_EQ(ref_.step([this](uint64_t t) { refFired(t); }),
                      fast_.step());
        } else if (choice < 95) {
            const Tick target = fast_.now() + rng_.next(4096);
            ref_.runUntil(target, [this](uint64_t t) { refFired(t); });
            fast_.runUntil(target);
        } else if (choice < 97) {
            ref_.requestStop();
            fast_.requestStop();
        } else {
            ref_.clearStop();
            fast_.clearStop();
        }
    }

    uint64_t allocToken()
    {
        const uint64_t token = nextToken_++;
        refIds_.push_back(0);
        fastIds_.push_back(0);
        return token;
    }

    void scheduleBoth(Tick when)
    {
        const uint64_t token = allocToken();
        refIds_[token] = ref_.schedule(when, token);
        fastIds_[token] = fast_.schedule(when, callbackFor(token));
    }

    /**
     * Either reserve a block of sequence numbers (both sides must hand
     * out the same ones) or schedule a random still-unused member of
     * the reserved pool, so reserved events enter the heap out of
     * sequence order and dispatches after their reservation.
     */
    void scheduleReservedOrReserve()
    {
        if (reserved_.empty() || rng_.chance(0.25)) {
            const uint64_t count = 1 + rng_.next(8);
            const uint64_t first = ref_.reserve(count);
            ASSERT_EQ(first, fast_.reserve(count));
            for (uint64_t i = 0; i < count; ++i)
                reserved_.push_back(first + i);
            return;
        }
        const size_t pick = rng_.next(reserved_.size());
        const uint64_t seq = reserved_[pick];
        reserved_[pick] = reserved_.back();
        reserved_.pop_back();
        const Tick when = fast_.now() + rng_.next(1024);
        const uint64_t token = allocToken();
        refIds_[token] = ref_.scheduleReserved(when, seq, token);
        fastIds_[token] =
            fast_.scheduleReserved(when, seq, callbackFor(token));
    }

    EventFn callbackFor(uint64_t token)
    {
        return [this, token] { fastFired(token); };
    }

    /**
     * Pure-in-token callback behavior, mirrored on both sides. The
     * spawned child gets the next token *on that side*; the allocation
     * orders can only agree while the dispatch streams agree.
     */
    void fastFired(uint64_t token)
    {
        fastLog_.push_back(token);
        if (spawnsChild(token)) {
            const uint64_t child = fastSpawn_++;
            if (child >= fastIds_.size())
                fastIds_.resize(child + 1, 0);
            fastIds_[child] = fast_.schedule(
                fast_.now() + childDelay(token), callbackFor(child));
        }
        if (cancelsOther(token)) {
            const bool hit = fast_.cancel(fastIds_[token - 11]);
            fastLog_.push_back(kCancelMark | (token << 1) | hit);
        }
        if (stopsDrain(token))
            fast_.requestStop();
    }

    void refFired(uint64_t token)
    {
        refLog_.push_back(token);
        if (spawnsChild(token)) {
            const uint64_t child = refSpawn_++;
            if (child >= refIds_.size())
                refIds_.resize(child + 1, 0);
            refIds_[child] =
                ref_.schedule(ref_.now() + childDelay(token), child);
        }
        if (cancelsOther(token)) {
            const bool hit = ref_.cancel(refIds_[token - 11]);
            refLog_.push_back(kCancelMark | (token << 1) | hit);
        }
        if (stopsDrain(token))
            ref_.requestStop();
    }

    static bool spawnsChild(uint64_t token) { return token % 5 == 0; }
    static bool cancelsOther(uint64_t token)
    {
        return token % 7 == 3 && token >= 11;
    }
    static bool stopsDrain(uint64_t token) { return token % 499 == 498; }
    static Tick childDelay(uint64_t token)
    {
        return (token * 2654435761u) % 97;
    }

    Rng rng_;
    EventQueue fast_;
    ReferenceQueue ref_;
    /// Per-side id tables indexed by token; entries stay after fire so
    /// cancels exercise stale handles.
    std::vector<uint64_t> refIds_, fastIds_;
    /// Spawn counters start past any token the top-level driver will
    /// allocate, so driver tokens and callback-spawned tokens never
    /// collide. They advance independently per side.
    uint64_t nextToken_ = 0;
    uint64_t refSpawn_ = 1u << 20;
    uint64_t fastSpawn_ = 1u << 20;
    std::vector<uint64_t> refLog_, fastLog_;
    /// Reserved sequence numbers not yet scheduled (shared: both sides
    /// reserve the same numbers).
    std::vector<uint64_t> reserved_;
};

TEST(SimDifferential, MatchesReferenceAcrossManySeeds)
{
    // >= 100k randomized operations in total, spread across seeds so
    // distinct op mixes and drain shapes all get coverage.
    constexpr uint64_t kSeeds = 10;
    constexpr size_t kOpsPerSeed = 12000;
    size_t dispatched = 0;
    for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
        const uint64_t pinned = seed * 0x9e3779b97f4a7c15ull + seed;
        SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                     wsp::testing::seedTrace(pinned));
        DifferentialDriver driver(wsp::testing::testSeed(pinned));
        driver.runOps(kOpsPerSeed);
        if (::testing::Test::HasFatalFailure())
            return;
        dispatched += driver.dispatched();
    }
    // Sanity: the streams actually carried work.
    EXPECT_GT(dispatched, kSeeds * kOpsPerSeed / 4);
}

TEST(SimDifferential, LongSingleSeedRun)
{
    // One deep run on a single seed: long-lived queues hit slot reuse,
    // heap growth/shrink cycles, and generation wraparound pressure
    // differently than many short runs.
    SCOPED_TRACE(wsp::testing::seedTrace(0x5753502177ull));
    DifferentialDriver driver(wsp::testing::testSeed(0x5753502177ull));
    driver.runOps(40000);
}

// ---------------------------------------------------------------------------
// Full-system determinism.
// ---------------------------------------------------------------------------

/**
 * Runs one crashsim schedule with every trace category enabled and
 * returns the captured record sequence, serialized without the
 * wall-clock field (the only legitimately nondeterministic bit).
 * Machine ids differ from run to run (each machine built takes a
 * fresh one), so each is serialized as its order of first appearance
 * (0 stays the host clock).
 */
std::vector<std::string>
traceSequence(const crashsim::CrashSchedule &schedule)
{
    auto &manager = trace::TraceManager::instance();
    const uint32_t savedMask = manager.enabledMask();
    manager.setCapacity(1 << 16);
    manager.clear();
    manager.enableAll();
    crashsim::CrashExplorer::runSchedule(schedule);
    manager.disableAll();
    std::vector<std::string> out;
    std::map<uint64_t, size_t> machine_order{{0, 0}};
    for (const trace::Record &r : manager.snapshot()) {
        const size_t machine =
            machine_order.emplace(r.machine, machine_order.size())
                .first->second;
        char line[96];
        std::snprintf(line, sizeof line, "%llu|%zu|%u|%u|%.17g|%s",
                      static_cast<unsigned long long>(
                          r.machine != 0 ? r.simTick : 0),
                      machine, static_cast<unsigned>(r.category),
                      static_cast<unsigned>(r.phase), r.value, r.name);
        out.emplace_back(line);
    }
    manager.clear();
    manager.enable(savedMask);
    return out;
}

crashsim::CrashSchedule
pinnedSchedule()
{
    crashsim::CrashSchedule schedule;
    schedule.seed = 20260808;
    schedule.ops = 48;
    schedule.outage = fromMillis(500.0);
    schedule.withDevices = true;
    return schedule;
}

TEST(Determinism, SameSeedRunsProduceIdenticalTraceSequences)
{
    const crashsim::CrashSchedule schedule = pinnedSchedule();
    const std::vector<std::string> first = traceSequence(schedule);
    const std::vector<std::string> second = traceSequence(schedule);
    ASSERT_FALSE(first.empty())
        << "full-system run emitted no trace records";
    ASSERT_EQ(first.size(), second.size());
    EXPECT_EQ(first, second);
}

TEST(Determinism, SameSeedRunsProduceIdenticalResults)
{
    const crashsim::CrashSchedule schedule = pinnedSchedule();
    const crashsim::CrashPointResult first =
        crashsim::CrashExplorer::runSchedule(schedule);
    const crashsim::CrashPointResult second =
        crashsim::CrashExplorer::runSchedule(schedule);
    EXPECT_EQ(first.appliedOps, second.appliedOps);
    EXPECT_EQ(first.backendRan, second.backendRan);
    EXPECT_EQ(first.violations, second.violations);
}

// ---------------------------------------------------------------------------
// Pinned crash-point enumeration.
// ---------------------------------------------------------------------------

/**
 * The crash-point sweep is built on setDispatchObserver(): the set of
 * event boundaries IS the set of distinguishable crash points. These
 * constants were recorded against the tombstone-based engine before
 * the heap rewrite; the new engine must reproduce them exactly, or
 * the rewrite changed observable dispatch boundaries.
 */
TEST(Determinism, PinnedScheduleCrashPointEnumerationUnchanged)
{
    crashsim::CrashExplorer explorer(pinnedSchedule());
    const std::vector<Tick> points = explorer.enumerateCrashPoints(400);
    ASSERT_EQ(points.size(), 38u);
    EXPECT_EQ(points.front(), 0u);
    EXPECT_EQ(points.back(), 33934348u);
    uint64_t hash = 1469598103934665603ull;
    for (const Tick point : points) {
        hash ^= static_cast<uint64_t>(point);
        hash *= 1099511628211ull;
    }
    EXPECT_EQ(hash, 1575034674797753573ull);
}

} // namespace
} // namespace wsp
