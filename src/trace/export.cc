#include "trace/export.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

#include "trace/stat_registry.h"
#include "trace/trace.h"
#include "util/logging.h"

namespace wsp::trace {

namespace {

/**
 * Chrome trace-event pid: one fake "process" per clock, so Perfetto
 * never mixes two timebases on one track. Machine m (an EventQueue
 * id, >= 1) is pid m + 1; pid 1 is the host wall clock.
 */
uint64_t
pidOf(const Record &record)
{
    return record.machine + 1;
}

const char *
phaseLetter(Phase phase)
{
    switch (phase) {
      case Phase::Begin:
        return "B";
      case Phase::End:
        return "E";
      case Phase::Instant:
        return "i";
      case Phase::Counter:
        return "C";
    }
    return "i";
}

/** Format a double as minimal JSON (no NaN/Inf, no trailing zeros). */
std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    if (value == static_cast<double>(static_cast<int64_t>(value))) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(value));
        return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

bool
writeFile(const std::string &path, const std::string &content,
          const char *what)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        warn("cannot open %s output file '%s'", what, path.c_str());
        return false;
    }
    out << content;
    out.close();
    return static_cast<bool>(out);
}

} // namespace

std::string
jsonQuote(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    out.push_back('"');
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
    return out;
}

std::string
chromeTraceJson()
{
    auto &manager = TraceManager::instance();
    const std::vector<Record> records = manager.snapshot();

    // Host timestamps are steady-clock ns since boot; rebase to the
    // earliest record so the Perfetto timeline starts near zero.
    uint64_t host_base = 0;
    bool have_host_base = false;
    for (const Record &record : records) {
        if (record.machine == 0 &&
            (!have_host_base || record.wallNs < host_base)) {
            host_base = record.wallNs;
            have_host_base = true;
        }
    }

    std::string out;
    out.reserve(records.size() * 96 + 1024);
    out += "{\"traceEvents\":[\n";

    // Metadata: name each clock "process" and each category "thread"
    // actually used, so the Perfetto tracks are labelled.
    std::set<uint64_t> seen_pids;
    std::set<std::pair<uint64_t, int>> seen_tracks;
    const char *separator = "";
    for (const Record &record : records) {
        const uint64_t pid = pidOf(record);
        const int tid = static_cast<int>(record.category);
        char buf[192];
        if (seen_pids.insert(pid).second) {
            char label[96] = "host wall clock";
            if (record.machine != 0)
                std::snprintf(label, sizeof(label),
                              "machine %llu (simulated time, 1us = "
                              "1000 ticks)",
                              static_cast<unsigned long long>(
                                  record.machine));
            std::snprintf(buf, sizeof(buf),
                          "%s{\"ph\":\"M\",\"pid\":%llu,\"tid\":0,"
                          "\"name\":\"process_name\",\"args\":{\"name\":"
                          "\"%s\"}}",
                          separator, static_cast<unsigned long long>(pid),
                          label);
            out += buf;
            separator = ",\n";
        }
        if (!seen_tracks.insert({pid, tid}).second)
            continue;
        std::snprintf(buf, sizeof(buf),
                      "%s{\"ph\":\"M\",\"pid\":%llu,\"tid\":%d,"
                      "\"name\":\"thread_name\",\"args\":{\"name\":"
                      "\"%s\"}}",
                      separator, static_cast<unsigned long long>(pid), tid,
                      categoryName(record.category));
        out += buf;
    }

    for (const Record &record : records) {
        // ts is in microseconds; ticks are simulated ns.
        const uint64_t ns = record.machine != 0
                                ? record.simTick
                                : record.wallNs - host_base;
        char ts[48];
        std::snprintf(ts, sizeof(ts), "%llu.%03u",
                      static_cast<unsigned long long>(ns / 1000),
                      static_cast<unsigned>(ns % 1000));

        out += separator;
        separator = ",\n";
        out += "{\"name\":";
        out += jsonQuote(record.name);
        out += ",\"cat\":\"";
        out += categoryName(record.category);
        out += "\",\"ph\":\"";
        out += phaseLetter(record.phase);
        out += "\",\"ts\":";
        out += ts;
        char ids[64];
        std::snprintf(ids, sizeof(ids), ",\"pid\":%llu,\"tid\":%d",
                      static_cast<unsigned long long>(pidOf(record)),
                      static_cast<int>(record.category));
        out += ids;
        if (record.phase == Phase::Counter) {
            out += ",\"args\":{\"value\":";
            out += jsonNumber(record.value);
            out += "}";
        } else if (record.phase == Phase::Instant) {
            out += ",\"s\":\"g\"";
        }
        out += "}";
    }

    out += "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{";
    out += "\"recordsEmitted\":" +
           jsonNumber(static_cast<double>(manager.totalEmitted()));
    out += ",\"recordsDropped\":" +
           jsonNumber(static_cast<double>(manager.dropped()));
    out += ",\"ringCapacity\":" +
           jsonNumber(static_cast<double>(manager.capacity()));
    out += "}}\n";
    return out;
}

std::string
metricsJson()
{
    const auto samples = StatRegistry::instance().snapshot();
    std::string out = "{\n";
    bool first = true;
    for (const auto &sample : samples) {
        if (!first)
            out += ",\n";
        first = false;
        out += "  " + jsonQuote(sample.name) + ": " +
               jsonNumber(sample.value);
    }
    out += "\n}\n";
    return out;
}

bool
writeChromeTrace(const std::string &path)
{
    return writeFile(path, chromeTraceJson(), "trace");
}

bool
writeMetrics(const std::string &path)
{
    return writeFile(path, metricsJson(), "metrics");
}

} // namespace wsp::trace
