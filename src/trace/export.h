/**
 * @file
 * Exporters for the trace ring and the stat registry.
 *
 * Two formats:
 *
 *  - Chrome trace-event JSON ({"traceEvents":[...]}), loadable in
 *    Perfetto / chrome://tracing. Each machine that emitted records
 *    gets its own process ("machine m (simulated time)", pid m + 1,
 *    1 tick = 1ns mapped to microseconds), so a crashed and a revived
 *    chassis, or the nodes of a fleet, show as separate track sets.
 *    Host-clock records (the real pheap code paths) go under pid 1
 *    ("host wall clock"), so no two timebases mix on one track.
 *
 *  - Flat metrics as JSON ({"name": value, ...}) from a StatRegistry
 *    snapshot.
 */

#pragma once

#include <string>

namespace wsp::trace {

/** Serialize the current trace ring as Chrome trace-event JSON. */
std::string chromeTraceJson();

/** Current stat snapshot as a flat JSON object. */
std::string metricsJson();

/**
 * Write chromeTraceJson() to @p path.
 * @return false (with a warning) when the file cannot be written.
 */
bool writeChromeTrace(const std::string &path);

/**
 * Write metricsJson() to @p path.
 * @return false (with a warning) when the file cannot be written.
 */
bool writeMetrics(const std::string &path);

/** Escape a string for embedding in a JSON document (adds quotes). */
std::string jsonQuote(const std::string &text);

} // namespace wsp::trace
