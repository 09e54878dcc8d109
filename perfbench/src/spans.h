/**
 * @file
 * In-memory span recorder for the traced benchmark runs.
 *
 * Spans are recorded by the benchmark's own code around its calls into
 * each library layer (load, apps, machine, nvram, core, sim, crashsim,
 * fleet), on the driving thread only. Each span keeps its name, start,
 * end and the span that encloses it; nothing is written until the run
 * ends, when the spans are exported as a Chrome trace and summarised
 * as a self-time table (a span's duration minus the part its child
 * spans cover). With recording off, a Span costs one branch.
 */

#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Tracer
{
  public:
    static Tracer &instance();

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Open a span; returns its id, or -1 while recording is off. */
    int begin(const char *name);

    /** Close span @p id (the innermost open one). */
    void end(int id);

    /** Aggregate of every span sharing one name. */
    struct Row
    {
        std::string name;
        uint64_t calls = 0;
        double totalMs = 0.0;
        double selfMs = 0.0;
    };

    /** All span names, largest self time first. */
    std::vector<Row> rows() const;

    /** Summed duration of the spans called @p name, in ms. */
    double totalMs(const std::string &name) const;

    /** Share of the @p root spans' time covered by their children. */
    double coverage(const std::string &root) const;

    /** Print the "where the time goes" self-time table under @p root. */
    void printTable(std::FILE *out, const std::string &title,
                    const std::string &root) const;

    /** Export every span as Chrome trace JSON. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    struct Record
    {
        const char *name;
        int64_t startNs;
        int64_t endNs;
        int parent;
    };

    bool enabled_ = false;
    std::vector<Record> spans_;
    std::vector<int> open_;
};

/** RAII span on the global tracer. */
class Span
{
  public:
    explicit Span(const char *name) : id_(Tracer::instance().begin(name)) {}
    ~Span()
    {
        if (id_ >= 0)
            Tracer::instance().end(id_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    int id_;
};

} // namespace perfbench
