/**
 * @file
 * Registry of named monotonic counters, gauges, and probes.
 *
 * Modules register their statistics under dotted names
 * ("pheap.clflush_count", "core.saves_completed", ...); the exporters
 * dump one flat snapshot. Three kinds:
 *
 *  - Counter: monotonic relaxed-atomic count,
 *  - Gauge: last-written double (per-run timings, window sizes),
 *  - Probe: a callback polled only at snapshot time, for subsystems
 *    that already keep their own counters (zero added hot-path cost).
 *
 * Hot paths hold cached handles. A name lookup builds a std::string,
 * takes the registry's mutex and walks a map, so it is for set-up and
 * tests only. A path that updates a statistic per event resolves it
 * once per process, in a function-local
 * `static trace::Counter &c = StatRegistry::instance().counter(...)`;
 * a family of gauges named from a run-time key (one per save step)
 * resolves each distinct name once through GaugeFamily. Slots are
 * never freed, so a cached reference stays valid for the process.
 *
 * The registry is process-wide, so every statistic is a process
 * total: all machines alive in the process (a crash sweep's reference
 * and crashed runs, a fleet's nodes) count into the same handle, and
 * a gauge holds whichever machine wrote it last. Nothing but
 * resetForTest() zeroes a statistic; in particular booting a machine
 * from an image resets none, so it cannot wipe another machine's
 * counts.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace wsp::trace {

/** Monotonic counter; add() is safe from any thread. */
class Counter
{
  public:
    void add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
    uint64_t value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Last-value gauge. */
class Gauge
{
  public:
    void set(double value) { value_.store(value, std::memory_order_relaxed); }
    double value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/** The global name -> statistic registry. */
class StatRegistry
{
  public:
    static StatRegistry &instance();

    /** Create-or-get a counter; the reference stays valid forever. */
    Counter &counter(const std::string &name);

    /** Create-or-get a gauge. */
    Gauge &gauge(const std::string &name);

    /**
     * Register (or replace) a probe polled at snapshot time. Safe to
     * call repeatedly with the same name, so module constructors can
     * register unconditionally.
     */
    void registerProbe(const std::string &name,
                       std::function<double()> probe);

    /** One snapshot row. */
    struct Sample
    {
        std::string name;
        double value;
    };

    /** All statistics, sorted by name (probes polled now). */
    std::vector<Sample> snapshot() const;

    /**
     * Zero every counter and gauge (unit tests only). Registrations
     * are kept: modules cache Counter/Gauge pointers on hot paths, so
     * the slots must never be freed.
     */
    void resetForTest();

  private:
    StatRegistry() = default;

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::function<double()>> probes_;
};

/**
 * Gauges named from a run-time key: `<prefix><key><suffix>`, with every
 * key character outside [A-Za-z0-9] written as '_' ("core.save.step."
 * + "mark image as valid" + "_ns" names
 * core.save.step.mark_image_as_valid_ns). Each distinct key builds
 * its name and looks it up in the registry once; later calls find
 * the cached handle without allocating. Safe from any thread.
 */
class GaugeFamily
{
  public:
    GaugeFamily(std::string prefix, std::string suffix);

    /** The gauge of @p key, created on its first use. */
    Gauge &operator[](std::string_view key);

  private:
    struct KeyHash
    {
        using is_transparent = void;
        size_t operator()(std::string_view key) const
        {
            return std::hash<std::string_view>{}(key);
        }
    };

    const std::string prefix_;
    const std::string suffix_;
    std::mutex mutex_;
    std::unordered_map<std::string, Gauge *, KeyHash, std::equal_to<>>
        gauges_;
};

} // namespace wsp::trace
