/**
 * @file
 * Unit tests for the trace module: the ring buffer, category
 * filtering, spans, the stat registry, and both exporters (whose
 * output is parsed back with the bundled JSON parser).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "trace/export.h"
#include "trace/json_lite.h"
#include "trace/stat_registry.h"
#include "trace/trace.h"
#include "util/logging.h"
#include "util/stats.h"

namespace wsp::trace {
namespace {

/** Every test starts from a quiet, empty trace state. */
class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        TraceManager::instance().disableAll();
        TraceManager::instance().clear();
        TraceManager::instance().setCapacity(1024);
        StatRegistry::instance().resetForTest();
    }

    void
    TearDown() override
    {
        TraceManager::instance().disableAll();
        TraceManager::instance().clear();
    }
};

// Category parsing ---------------------------------------------------

TEST_F(TraceTest, ParseCategoryList)
{
    uint32_t mask = 0;
    EXPECT_TRUE(parseCategoryList("core,pheap", &mask));
    EXPECT_EQ(mask, (1u << static_cast<unsigned>(Category::Core)) |
                        (1u << static_cast<unsigned>(Category::Pheap)));

    EXPECT_TRUE(parseCategoryList("all", &mask));
    EXPECT_EQ(mask, kAllCategories);

    EXPECT_TRUE(parseCategoryList("", &mask));
    EXPECT_EQ(mask, 0u);

    EXPECT_FALSE(parseCategoryList("core,bogus", &mask));
}

TEST_F(TraceTest, CategoryNamesRoundTrip)
{
    for (unsigned i = 0; i < kCategoryCount; ++i) {
        uint32_t mask = 0;
        const auto category = static_cast<Category>(i);
        ASSERT_TRUE(parseCategoryList(categoryName(category), &mask));
        EXPECT_EQ(mask, 1u << i);
    }
}

// Emission and filtering ---------------------------------------------

TEST_F(TraceTest, DisabledCategoryEmitsNothing)
{
    auto &manager = TraceManager::instance();
    manager.enable(1u << static_cast<unsigned>(Category::Core));

    instant(Category::Core, "kept");
    instant(Category::Pheap, "filtered");
    manager.emit(Category::Pheap, Phase::Instant, "also filtered");

    const auto records = manager.snapshot();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_STREQ(records[0].name, "kept");
    EXPECT_EQ(records[0].category, Category::Core);
}

TEST_F(TraceTest, RingWrapKeepsNewestAndCountsDrops)
{
    auto &manager = TraceManager::instance();
    manager.setCapacity(8);
    manager.enableAll();

    for (int i = 0; i < 20; ++i) {
        char name[16];
        std::snprintf(name, sizeof(name), "e%d", i);
        instant(Category::Core, name);
    }

    EXPECT_EQ(manager.totalEmitted(), 20u);
    EXPECT_EQ(manager.dropped(), 12u);

    const auto records = manager.snapshot();
    ASSERT_EQ(records.size(), 8u);
    // Oldest-first window of the newest 8 records.
    for (int i = 0; i < 8; ++i) {
        char expected[16];
        std::snprintf(expected, sizeof(expected), "e%d", 12 + i);
        EXPECT_STREQ(records[i].name, expected);
    }
}

TEST_F(TraceTest, LongNamesAreTruncatedNotOverrun)
{
    auto &manager = TraceManager::instance();
    manager.enableAll();
    const std::string longName(200, 'x');
    instant(Category::Core, longName.c_str());

    const auto records = manager.snapshot();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(std::string(records[0].name).size(),
              Record::kNameBytes - 1);
}

TEST_F(TraceTest, SpanNestingProducesWellFormedPairs)
{
    auto &manager = TraceManager::instance();
    manager.enableAll();

    {
        TRACE_SPAN(Core, "outer");
        {
            TRACE_SPAN(Core, "inner");
            TRACE_INSTANT(Core, "tick");
        }
    }

    const auto records = manager.snapshot();
    ASSERT_EQ(records.size(), 5u);
    EXPECT_EQ(records[0].phase, Phase::Begin);
    EXPECT_STREQ(records[0].name, "outer");
    EXPECT_EQ(records[1].phase, Phase::Begin);
    EXPECT_STREQ(records[1].name, "inner");
    EXPECT_EQ(records[2].phase, Phase::Instant);
    EXPECT_EQ(records[3].phase, Phase::End);
    EXPECT_STREQ(records[3].name, "inner");
    EXPECT_EQ(records[4].phase, Phase::End);
    EXPECT_STREQ(records[4].name, "outer");

    // Stack discipline: every End matches the most recent open Begin.
    std::vector<std::string> stack;
    for (const auto &record : records) {
        if (record.phase == Phase::Begin) {
            stack.push_back(record.name);
        } else if (record.phase == Phase::End) {
            ASSERT_FALSE(stack.empty());
            EXPECT_EQ(stack.back(), record.name);
            stack.pop_back();
        }
    }
    EXPECT_TRUE(stack.empty());
}

TEST_F(TraceTest, SpanDisabledAtConstructionStaysSilent)
{
    auto &manager = TraceManager::instance();
    {
        // Category gets enabled mid-span: the span must not emit a
        // dangling End.
        ScopedSpan span(Category::Core, "late");
        manager.enableAll();
    }
    EXPECT_EQ(manager.snapshot().size(), 0u);
}

TEST_F(TraceTest, TickSourceStampsRecords)
{
    auto &manager = TraceManager::instance();
    manager.enableAll();
    int owner = 0;
    manager.setTickSource(&owner, [] { return uint64_t{777}; });
    instant(Category::Core, "stamped");
    manager.clearTickSource(&owner);
    instant(Category::Core, "unstamped");

    const auto records = manager.snapshot();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_TRUE(records[0].hasSimTick);
    EXPECT_EQ(records[0].simTick, 777u);
    EXPECT_FALSE(records[1].hasSimTick);
    EXPECT_GT(records[1].wallNs, 0u);
}

TEST_F(TraceTest, ClearTickSourceIgnoresWrongOwner)
{
    auto &manager = TraceManager::instance();
    manager.enableAll();
    int owner = 0;
    int stranger = 0;
    manager.setTickSource(&owner, [] { return uint64_t{5}; });
    manager.clearTickSource(&stranger); // no-op: not the owner
    instant(Category::Core, "still stamped");
    manager.clearTickSource(&owner);

    const auto records = manager.snapshot();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_TRUE(records[0].hasSimTick);
}

TEST_F(TraceTest, DebugLogRoutedToTraceWhenEnabled)
{
    auto &manager = TraceManager::instance();
    manager.enableAll();
    debugLog("message for the trace %d", 42);
    manager.disableAll(); // also uninstalls the sink
    debugLog("dropped %d", 43);

    const auto records = manager.snapshot();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].category, Category::Apps);
    EXPECT_STREQ(records[0].name, "message for the trace 42");
}

// StatRegistry -------------------------------------------------------

TEST_F(TraceTest, CounterAndGaugeSnapshot)
{
    auto &registry = StatRegistry::instance();
    Counter &counter = registry.counter("test.counter");
    counter.add();
    counter.add(4);
    registry.gauge("test.gauge").set(2.5);

    bool saw_counter = false;
    bool saw_gauge = false;
    for (const auto &sample : registry.snapshot()) {
        if (sample.name == "test.counter") {
            saw_counter = true;
            EXPECT_DOUBLE_EQ(sample.value, 5.0);
        } else if (sample.name == "test.gauge") {
            saw_gauge = true;
            EXPECT_DOUBLE_EQ(sample.value, 2.5);
        }
    }
    EXPECT_TRUE(saw_counter);
    EXPECT_TRUE(saw_gauge);
}

TEST_F(TraceTest, CounterHandleIsStable)
{
    auto &registry = StatRegistry::instance();
    Counter &first = registry.counter("test.stable");
    Counter &second = registry.counter("test.stable");
    EXPECT_EQ(&first, &second);

    first.add(3);
    registry.resetForTest();
    // The handle survives a reset (slots are zeroed, never freed).
    EXPECT_EQ(first.value(), 0u);
    first.add(2);
    EXPECT_EQ(registry.counter("test.stable").value(), 2u);
}

TEST_F(TraceTest, ProbePolledAtSnapshotTime)
{
    auto &registry = StatRegistry::instance();
    double source = 1.0;
    registry.registerProbe("test.probe", [&source] { return source; });
    source = 9.0;

    bool found = false;
    for (const auto &sample : registry.snapshot()) {
        if (sample.name == "test.probe") {
            found = true;
            EXPECT_DOUBLE_EQ(sample.value, 9.0);
        }
    }
    EXPECT_TRUE(found);
    // Replacing under the same name is allowed (module re-construction).
    registry.registerProbe("test.probe", [] { return 0.0; });
}

// Exporters ----------------------------------------------------------

TEST_F(TraceTest, ChromeTraceExportIsValidJson)
{
    auto &manager = TraceManager::instance();
    manager.enableAll();
    int owner = 0;
    manager.setTickSource(&owner, [] { return uint64_t{1000}; });
    {
        TRACE_SPAN(Core, "sim span");
    }
    manager.clearTickSource(&owner);
    instant(Category::Pheap, "host \"quoted\"\nname");
    counter(Category::Power, "12V rail", 11.8);

    json::Value doc;
    ASSERT_TRUE(json::parse(chromeTraceJson(), &doc));
    ASSERT_TRUE(doc.isObject());

    const json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    size_t begins = 0;
    size_t ends = 0;
    size_t counters = 0;
    for (const auto &event : events->array) {
        ASSERT_TRUE(event.isObject());
        const json::Value *ph = event.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->string == "M")
            continue; // metadata records have no ts
        ASSERT_NE(event.find("ts"), nullptr);
        ASSERT_NE(event.find("pid"), nullptr);
        ASSERT_NE(event.find("name"), nullptr);
        if (ph->string == "B")
            ++begins;
        if (ph->string == "E")
            ++ends;
        if (ph->string == "C") {
            ++counters;
            const json::Value *args = event.find("args");
            ASSERT_NE(args, nullptr);
            const json::Value *value = args->find("value");
            ASSERT_NE(value, nullptr);
            EXPECT_DOUBLE_EQ(value->number, 11.8);
        }
    }
    EXPECT_EQ(begins, 1u);
    EXPECT_EQ(ends, 1u);
    EXPECT_EQ(counters, 1u);

    // Sim-stamped records sit in the sim-time process (pid 1), host
    // records in the wall-clock process (pid 2).
    for (const auto &event : events->array) {
        const json::Value *name = event.find("name");
        if (name == nullptr)
            continue;
        if (name->string == "sim span") {
            EXPECT_DOUBLE_EQ(event.find("pid")->number, 1.0);
        }
        if (name->string.find("quoted") != std::string::npos) {
            EXPECT_DOUBLE_EQ(event.find("pid")->number, 2.0);
        }
    }

    const json::Value *other = doc.find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_DOUBLE_EQ(other->find("recordsDropped")->number, 0.0);
}

TEST_F(TraceTest, MetricsJsonRoundTrips)
{
    auto &registry = StatRegistry::instance();
    registry.counter("test.export.counter").add(7);
    registry.gauge("test.export.gauge").set(1.5);

    json::Value doc;
    ASSERT_TRUE(json::parse(metricsJson(), &doc));
    ASSERT_TRUE(doc.isObject());
    const json::Value *counter = doc.find("test.export.counter");
    ASSERT_NE(counter, nullptr);
    EXPECT_DOUBLE_EQ(counter->number, 7.0);
    const json::Value *gauge = doc.find("test.export.gauge");
    ASSERT_NE(gauge, nullptr);
    EXPECT_DOUBLE_EQ(gauge->number, 1.5);
}

TEST_F(TraceTest, MetricsCsvHasHeaderAndRows)
{
    auto &registry = StatRegistry::instance();
    registry.counter("test.csv.counter").add(3);
    const std::string csv = metricsCsv();
    EXPECT_EQ(csv.rfind("name,value\n", 0), 0u);
    EXPECT_NE(csv.find("test.csv.counter,3\n"), std::string::npos);
}

TEST_F(TraceTest, JsonQuoteEscapesControlCharacters)
{
    EXPECT_EQ(jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(jsonQuote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    json::Value value;
    ASSERT_TRUE(json::parse(jsonQuote(std::string("\x01\x02", 2)),
                            &value));
    EXPECT_EQ(value.string.size(), 2u);
}

TEST_F(TraceTest, JsonQuoteRoundTripsUtf8)
{
    // Multi-byte UTF-8 passes through jsonQuote verbatim (raw UTF-8
    // is valid JSON) and the parser must hand back identical bytes:
    // 2-byte (é), 3-byte (✓), and 4-byte (🔥) sequences.
    const std::string text = "caf\xc3\xa9 \xe2\x9c\x93 \xf0\x9f\x94\xa5";
    json::Value value;
    ASSERT_TRUE(json::parse(jsonQuote(text), &value));
    EXPECT_EQ(value.type, json::Value::Type::String);
    EXPECT_EQ(value.string, text);
}

TEST_F(TraceTest, JsonUnicodeEscapesDecodeToUtf8)
{
    // \uXXXX escapes decode to UTF-8 bytes, including an astral-plane
    // surrogate pair (U+1F525).
    json::Value value;
    ASSERT_TRUE(json::parse("\"\\u00e9 \\u2713 \\ud83d\\udd25\"",
                            &value));
    EXPECT_EQ(value.string,
              "\xc3\xa9 \xe2\x9c\x93 \xf0\x9f\x94\xa5");

    // Malformed escapes must be rejected, not silently mangled.
    EXPECT_FALSE(json::parse("\"\\ud83d\"", &value));  // lone high
    EXPECT_FALSE(json::parse("\"\\udd25\"", &value));  // lone low
    EXPECT_FALSE(json::parse("\"\\ud83d\\u0041\"", &value));
    EXPECT_FALSE(json::parse("\"\\uZZZZ\"", &value));
}

TEST_F(TraceTest, Utf8RecordNamesSurviveChromeExport)
{
    // A record name carrying multi-byte UTF-8 must round-trip through
    // the Chrome-trace exporter and the bundled parser — the same
    // path tools/trace_check validates in the trace_smoke ctest.
    auto &manager = TraceManager::instance();
    manager.enableAll();
    const char *name = "r\xc3\xa9gion \xe2\x9c\x93";
    instant(Category::Core, name);

    json::Value doc;
    ASSERT_TRUE(json::parse(chromeTraceJson(), &doc));
    const json::Value *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    bool found = false;
    for (const auto &event : events->array) {
        const json::Value *event_name = event.find("name");
        if (event_name != nullptr && event_name->string == name)
            found = true;
    }
    EXPECT_TRUE(found);
}

TEST_F(TraceTest, DroppedRecordsExportedToStatRegistry)
{
    // Satellite: the volatile ring's overflow count is a first-class
    // stat — the probe registered by TraceManager must report the
    // live dropped() value through StatRegistry snapshots.
    auto &manager = TraceManager::instance();
    manager.setCapacity(4);
    manager.enableAll();
    for (int i = 0; i < 10; ++i)
        instant(Category::Core, "spill");
    EXPECT_EQ(manager.dropped(), 6u);

    bool found = false;
    for (const auto &sample : StatRegistry::instance().snapshot()) {
        if (sample.name == "trace.dropped") {
            found = true;
            EXPECT_DOUBLE_EQ(sample.value, 6.0);
        }
    }
    EXPECT_TRUE(found);
}

// Satellite coverage: stats helpers used by the benches --------------

TEST_F(TraceTest, HistogramPercentile)
{
    Histogram h;
    for (uint64_t i = 0; i < 100; ++i)
        h.add(i);
    EXPECT_EQ(h.percentile(50), 50.0);
    EXPECT_EQ(h.percentile(95), 95.0);
    EXPECT_EQ(h.percentile(99), 99.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), h.quantile(0.5));
}

TEST_F(TraceTest, RunningStatMergeEmptyCases)
{
    RunningStat filled;
    filled.add(1.0);
    filled.add(3.0);

    // Empty other: no change.
    RunningStat a = filled;
    a.merge(RunningStat{});
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 3.0);

    // Empty self: adopt other wholesale.
    RunningStat b;
    b.merge(filled);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
    EXPECT_DOUBLE_EQ(b.stddev(), filled.stddev());

    // Both empty: still empty, and safe to query.
    RunningStat c;
    c.merge(RunningStat{});
    EXPECT_EQ(c.count(), 0u);
    EXPECT_DOUBLE_EQ(c.mean(), 0.0);
}

// Environment configuration ------------------------------------------

TEST_F(TraceTest, ConfigureFromEnvParsesCategories)
{
    setenv("WSP_TRACE", "nvram,devices", 1);
    EXPECT_TRUE(TraceManager::instance().configureFromEnv());
    EXPECT_EQ(TraceManager::instance().enabledMask(),
              (1u << static_cast<unsigned>(Category::Nvram)) |
                  (1u << static_cast<unsigned>(Category::Devices)));
    unsetenv("WSP_TRACE");
}

TEST_F(TraceTest, LogLevelFromEnv)
{
    const LogLevel before = logLevel();
    setenv("WSP_LOG_LEVEL", "quiet", 1);
    configureLogLevelFromEnv();
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    setenv("WSP_LOG_LEVEL", "2", 1);
    configureLogLevelFromEnv();
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    unsetenv("WSP_LOG_LEVEL");
    configureLogLevelFromEnv(); // unset: level unchanged
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    setLogLevel(before);
}

} // namespace
} // namespace wsp::trace
