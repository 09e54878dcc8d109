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
 *  - Flat metrics as JSON ({"name": value, ...}) or CSV
 *    (name,value per line) from a StatRegistry snapshot.
 *
 * appendBenchRecord() writes one JSON object per line (JSON-lines)
 * so repeated bench runs accumulate into a single machine-readable
 * results file.
 */

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace wsp::trace {

/** Serialize the current trace ring as Chrome trace-event JSON. */
std::string chromeTraceJson();

/** Current stat snapshot as a flat JSON object. */
std::string metricsJson();

/** Current stat snapshot as "name,value" CSV with a header line. */
std::string metricsCsv();

/**
 * Write chromeTraceJson() to @p path.
 * @return false (with a warning) when the file cannot be written.
 */
bool writeChromeTrace(const std::string &path);

/**
 * Write the metrics snapshot to @p path; the format is CSV when the
 * path ends in ".csv", JSON otherwise.
 */
bool writeMetrics(const std::string &path);

/**
 * Append one bench-result line to @p path (JSON-lines): bench id,
 * host name, wall-clock seconds, the RNG seed the run used (0 when
 * the bench has no randomness), and the full counter snapshot.
 */
bool appendBenchRecord(const std::string &path, const std::string &bench,
                       double wall_seconds, uint64_t seed = 0);

/**
 * Extra top-level integer fields a bench can attach to its record
 * (e.g. fleet_storm's "nodes"/"replication"). Names must be plain
 * identifiers; values are emitted as JSON integers next to "seed".
 */
using BenchRecordFields = std::vector<std::pair<std::string, uint64_t>>;

/** appendBenchRecord() with extra top-level fields. */
bool appendBenchRecord(const std::string &path, const std::string &bench,
                       double wall_seconds, uint64_t seed,
                       const BenchRecordFields &fields);

/** Escape a string for embedding in a JSON document (adds quotes). */
std::string jsonQuote(const std::string &text);

} // namespace wsp::trace
