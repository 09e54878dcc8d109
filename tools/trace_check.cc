/**
 * @file
 * Validator for the trace/metrics exporter output, used by the ctest
 * smoke test (cmake/trace_smoke.cmake): parse the files a bench wrote
 * and check their shape, so a broken exporter fails CI instead of
 * producing a file Perfetto silently rejects.
 *
 * Usage: trace_check --trace=<trace.json> --metrics=<metrics.json>
 *                    [--min-sim-processes=N]
 * Either file flag may be omitted; at least one file must be given.
 * --min-sim-processes fails the trace unless at least N simulated-time
 * processes (one per machine that emitted records) carry timed events.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "parse_uint.h"
#include "trace/json_lite.h"

namespace {

using wsp::trace::json::Value;

int failures = 0;

void
fail(const char *fmt, const std::string &detail)
{
    std::fprintf(stderr, "trace_check: FAIL: ");
    std::fprintf(stderr, fmt, detail.c_str());
    std::fprintf(stderr, "\n");
    ++failures;
}

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path);
    if (!in) {
        fail("cannot open '%s'", path);
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    *out = buffer.str();
    return true;
}

/**
 * A Chrome trace-event document: traceEvents with sane records, and at
 * least @p min_sim_processes simulated-time processes with events.
 */
void
checkTrace(const std::string &path, uint64_t min_sim_processes)
{
    std::string text;
    if (!readFile(path, &text))
        return;

    Value doc;
    if (!wsp::trace::json::parse(text, &doc) || !doc.isObject()) {
        fail("'%s' is not a valid JSON object", path);
        return;
    }
    const Value *events = doc.find("traceEvents");
    if (events == nullptr || !events->isArray()) {
        fail("'%s' has no traceEvents array", path);
        return;
    }

    size_t begins = 0;
    size_t ends = 0;
    size_t timed = 0;
    std::set<double> sim_pids;   // named "... (simulated time ...)"
    std::set<double> timed_pids; // carrying at least one timed event
    for (const Value &event : events->array) {
        const Value *ph = event.find("ph");
        if (!event.isObject() || ph == nullptr ||
            ph->type != Value::Type::String) {
            fail("'%s' has an event without a ph phase", path);
            return;
        }
        const Value *pid = event.find("pid");
        if (ph->string == "M") { // metadata carries no timestamp
            const Value *name = event.find("name");
            const Value *args = event.find("args");
            const Value *label = args != nullptr ? args->find("name")
                                                 : nullptr;
            if (pid != nullptr && name != nullptr &&
                name->string == "process_name" && label != nullptr &&
                label->string.find("simulated time") != std::string::npos)
                sim_pids.insert(pid->number);
            continue;
        }
        if (event.find("name") == nullptr ||
            event.find("ts") == nullptr || pid == nullptr) {
            fail("'%s' has a timed event missing name/ts/pid", path);
            return;
        }
        timed_pids.insert(pid->number);
        ++timed;
        if (ph->string == "B")
            ++begins;
        if (ph->string == "E")
            ++ends;
    }
    if (timed == 0)
        fail("'%s' contains no timed events (tracing was off?)", path);
    if (begins != ends) {
        char detail[96];
        std::snprintf(detail, sizeof(detail), "%s: %zu B vs %zu E",
                      path.c_str(), begins, ends);
        fail("unbalanced spans in %s", detail);
    }
    size_t sim_processes = 0;
    for (const double pid : sim_pids)
        sim_processes += timed_pids.count(pid);
    if (sim_processes < min_sim_processes) {
        const std::string detail =
            path + ": " + std::to_string(sim_processes) + " < " +
            std::to_string(min_sim_processes);
        fail("too few simulated-time processes in %s", detail);
    }
    std::printf("trace_check: %s: %zu timed events, %zu spans, "
                "%zu simulated-time processes%s\n",
                path.c_str(), timed, begins, sim_processes,
                failures == 0 ? " OK" : "");
}

/** A flat metrics object: every member is a number. */
void
checkMetrics(const std::string &path)
{
    std::string text;
    if (!readFile(path, &text))
        return;

    Value doc;
    if (!wsp::trace::json::parse(text, &doc) || !doc.isObject()) {
        fail("'%s' is not a valid JSON object", path);
        return;
    }
    if (doc.object.empty()) {
        fail("'%s' contains no metrics", path);
        return;
    }
    for (const auto &entry : doc.object) {
        if (entry.second.type != Value::Type::Number) {
            fail("metric '%s' is not a number",
                 path + "' member '" + entry.first);
            return;
        }
    }
    std::printf("trace_check: %s: %zu metrics OK\n", path.c_str(),
                doc.object.size());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string trace_path;
    std::string metrics_path;
    uint64_t min_sim_processes = 0;
    const auto usage = [] {
        std::fprintf(stderr, "usage: trace_check [--trace=FILE] "
                             "[--metrics=FILE] [--min-sim-processes=N]\n");
        return 2;
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--trace=", 8) == 0) {
            trace_path = arg + 8;
        } else if (std::strncmp(arg, "--metrics=", 10) == 0) {
            metrics_path = arg + 10;
        } else if (std::strncmp(arg, "--min-sim-processes=", 20) == 0) {
            if (!wsp::tools::parseUint(arg + 20, &min_sim_processes))
                return usage();
        } else {
            return usage();
        }
    }
    if (trace_path.empty() && metrics_path.empty()) {
        std::fprintf(stderr, "trace_check: nothing to check\n");
        return 2;
    }

    if (!trace_path.empty())
        checkTrace(trace_path, min_sim_processes);
    if (!metrics_path.empty())
        checkMetrics(metrics_path);
    return failures == 0 ? 0 : 1;
}
