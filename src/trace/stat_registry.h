/**
 * @file
 * Registry of named monotonic counters, gauges, and probes.
 *
 * Modules register their statistics at construction under dotted
 * names ("pheap.clflush_count", "core.saves_completed", ...); the
 * exporters dump one flat snapshot. Three kinds:
 *
 *  - Counter: monotonic relaxed-atomic count, bumped on the hot path
 *    through a cached handle (create-or-get is idempotent),
 *  - Gauge: last-written double (per-run timings, window sizes),
 *  - Probe: a callback polled only at snapshot time, for subsystems
 *    that already keep their own counters (zero added hot-path cost).
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

} // namespace wsp::trace
