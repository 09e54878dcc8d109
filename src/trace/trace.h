/**
 * @file
 * Tick-stamped trace events over a fixed-capacity ring buffer.
 *
 * Every subsystem can emit named events into one global TraceManager:
 * begin/end span pairs, instants, and counter samples. Each record
 * carries the host steady-clock time, and a simulated-time record
 * also carries the emitting machine's id and its tick: models stamp
 * their records from their own EventQueue where they emit them
 * (TRACE_SIM_INSTANT(queue_, ...) or emitAt()), so machines that are
 * alive at the same time — a crashed and a revived chassis, the nodes
 * of a fleet — each keep their own timeline. Machine id 0 marks a
 * host-clock record (the real-code pheap paths, the debug sink, the
 * crash explorer's verdict instant). Records land in a ring; when it
 * wraps, the newest records win and the overwritten ones are counted
 * as dropped. The ring is allocated when a category is first
 * enabled, so a process that never traces never pays for it.
 *
 * Runtime control: WSP_TRACE=<cat,cat|all> enables categories from
 * the environment (applied by TraceManager::configureFromEnv(), which
 * bench_util's init() calls), or programmatically via enable().
 * Emission is a no-op costing one atomic load when a category is
 * disabled, so instrumentation can stay in hot paths.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace wsp::trace {

/** Trace categories, one per subsystem. */
enum class Category : uint8_t {
    Core = 0,
    Nvram,
    Power,
    Pheap,
    Machine,
    Devices,
    Apps,
    Crashsim,
};

/** Number of categories (mask width). */
constexpr unsigned kCategoryCount = 8;

/** Mask covering every category. */
constexpr uint32_t kAllCategories = (1u << kCategoryCount) - 1;

/** Short lowercase name ("core", "nvram", ...). */
const char *categoryName(Category category);

/**
 * Parse a WSP_TRACE-style list ("core,pheap", "all", "") into a mask.
 * @return false when an unknown category name is present.
 */
bool parseCategoryList(const char *list, uint32_t *mask_out);

/** Event kinds, mirroring the Chrome trace-event phases. */
enum class Phase : uint8_t {
    Begin,   ///< span start ("B")
    End,     ///< span end ("E")
    Instant, ///< point event ("i")
    Counter, ///< sampled value ("C")
};

namespace detail {
/**
 * Global enabled-category mask; read inline on every emit. Published
 * with release after the ring exists, so an emitter that acquires a
 * set bit also sees the ring.
 */
extern std::atomic<uint32_t> g_enabledMask;
} // namespace detail

/** True when @p category is currently traced (one acquire load). */
inline bool
enabled(Category category)
{
    const uint32_t mask =
        detail::g_enabledMask.load(std::memory_order_acquire);
    return (mask & (1u << static_cast<unsigned>(category))) != 0;
}

/** True when any category is traced. */
inline bool
anyEnabled()
{
    return detail::g_enabledMask.load(std::memory_order_relaxed) != 0;
}

/** One trace record (fixed size; the name is copied and truncated). */
struct Record
{
    static constexpr size_t kNameBytes = 46;

    uint64_t simTick = 0; ///< simulated ns on the machine's clock
    uint64_t wallNs = 0;  ///< host steady-clock ns
    uint64_t machine = 0; ///< emitting EventQueue's id; 0 = host clock
    double value = 0.0;   ///< Counter payload
    Category category = Category::Core;
    Phase phase = Phase::Instant;
    char name[kNameBytes] = {};
};

/**
 * The global trace sink: configuration, the ring, and snapshots.
 *
 * Emission is wait-free for concurrent emitters (an atomic slot
 * reservation plus a plain slot write); configuration and snapshots
 * are expected from one thread, as in the single-threaded benches.
 */
class TraceManager
{
  public:
    static TraceManager &instance();

    // Configuration ---------------------------------------------------

    /** Enable exactly the categories in @p mask. */
    void enable(uint32_t mask);

    void enableAll() { enable(kAllCategories); }
    void disableAll() { enable(0); }

    /**
     * Apply WSP_TRACE_CAPACITY and WSP_TRACE from the environment.
     * @return true when any category ended up enabled.
     */
    bool configureFromEnv();

    uint32_t enabledMask() const;

    /** Largest ring setCapacity() and WSP_TRACE_CAPACITY accept. */
    static constexpr size_t kMaxCapacity = size_t{1} << 24;

    /**
     * Size the ring in records, 1 to kMaxCapacity (default 65536;
     * WSP_TRACE_CAPACITY overrides at configureFromEnv() time).
     * Discards the content; while every category is off the ring is
     * released and comes back at the next enable().
     */
    void setCapacity(size_t records);

    /** Records the ring holds: 0 until a category is enabled. */
    size_t capacity() const { return ring_.size(); }

    // Emission --------------------------------------------------------

    /** Emit a host-clock record (machine 0). */
    void emit(Category category, Phase phase, const char *name,
              double value = 0.0);

    /**
     * Emit a record on machine @p machine's simulated clock at
     * @p sim_tick (an EventQueue's machineId(); explicit ticks serve
     * spans completed retroactively).
     */
    void emitAt(Category category, Phase phase, const char *name,
                uint64_t machine, uint64_t sim_tick, double value = 0.0);

    // Draining --------------------------------------------------------

    /** Records still in the ring, oldest first. */
    std::vector<Record> snapshot() const;

    /** Total records ever emitted (including overwritten ones). */
    uint64_t totalEmitted() const;

    /** Records lost to ring wrap-around. */
    uint64_t dropped() const;

    /** Discard all records and reset the drop count. */
    void clear();

  private:
    TraceManager();

    void store(Category category, Phase phase, const char *name,
               uint64_t machine, uint64_t sim_tick, double value);

    size_t configuredCapacity_; ///< records the ring gets when built
    std::vector<Record> ring_;  ///< empty until a category is enabled
    std::atomic<uint64_t> next_{0};
    std::atomic<bool> overflowWarned_{false};
};

/**
 * RAII begin/end span on the host clock. Emits nothing when the
 * category is disabled at construction time.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Category category, const char *name)
        : category_(category), name_(name), active_(enabled(category))
    {
        if (active_)
            TraceManager::instance().emit(category_, Phase::Begin, name_);
    }

    ~ScopedSpan()
    {
        if (active_)
            TraceManager::instance().emit(category_, Phase::End, name_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Category category_;
    const char *name_;
    bool active_;
};

/** Emit a host-clock instant when the category is enabled. */
inline void
instant(Category category, const char *name)
{
    if (enabled(category))
        TraceManager::instance().emit(category, Phase::Instant, name);
}

/**
 * Emit a record on @p clock's machine at its current tick when the
 * category is enabled. @p clock is the emitting model's EventQueue
 * (anything with machineId() and now()).
 */
template <typename Clock>
inline void
emitNow(const Clock &clock, Category category, Phase phase,
        const char *name, double value = 0.0)
{
    if (enabled(category))
        TraceManager::instance().emitAt(category, phase, name,
                                        clock.machineId(), clock.now(),
                                        value);
}

#define WSP_TRACE_CONCAT2(a, b) a##b
#define WSP_TRACE_CONCAT(a, b) WSP_TRACE_CONCAT2(a, b)

/** Host-clock scoped span: TRACE_SPAN(Pheap, "undo commit"); */
#define TRACE_SPAN(cat, name)                                         \
    ::wsp::trace::ScopedSpan WSP_TRACE_CONCAT(wsp_trace_span_,        \
                                              __LINE__)(             \
        ::wsp::trace::Category::cat, name)

/** Host-clock point event: TRACE_INSTANT(Crashsim, "..."); */
#define TRACE_INSTANT(cat, name)                                      \
    ::wsp::trace::instant(::wsp::trace::Category::cat, name)

/** Simulated-time point event on the emitting machine's queue:
 *  TRACE_SIM_INSTANT(queue_, Power, "PWR_OK drop"); */
#define TRACE_SIM_INSTANT(clock, cat, name)                           \
    ::wsp::trace::emitNow(clock, ::wsp::trace::Category::cat,         \
                          ::wsp::trace::Phase::Instant, name)

/** Simulated-time counter sample on the emitting machine's queue:
 *  TRACE_SIM_COUNTER(queue_, Power, "12V rail", volts); */
#define TRACE_SIM_COUNTER(clock, cat, name, value)                    \
    ::wsp::trace::emitNow(clock, ::wsp::trace::Category::cat,         \
                          ::wsp::trace::Phase::Counter, name, value)

} // namespace wsp::trace
