/**
 * @file
 * Unit tests for the trace module: the ring buffer, category
 * filtering, spans, per-machine simulated-time stamps, the stat
 * registry, and both exporters (whose output is parsed back with the
 * bundled JSON parser).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/system.h"
#include "fleet/fleet.h"
#include "sim/event_queue.h"
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

TEST_F(TraceTest, RecordsCarryTheEmittingMachinesIdAndTick)
{
    auto &manager = TraceManager::instance();
    manager.enableAll();
    EventQueue first;
    EventQueue second;
    first.runUntil(777);
    second.runUntil(5);
    ASSERT_NE(first.machineId(), 0u);
    ASSERT_NE(first.machineId(), second.machineId());

    TRACE_SIM_INSTANT(first, Core, "first");
    TRACE_SIM_INSTANT(second, Core, "second");
    manager.emitAt(Category::Core, Phase::Instant, "explicit",
                   first.machineId(), 42);
    instant(Category::Core, "host");

    const auto records = manager.snapshot();
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[0].machine, first.machineId());
    EXPECT_EQ(records[0].simTick, 777u);
    EXPECT_EQ(records[1].machine, second.machineId());
    EXPECT_EQ(records[1].simTick, 5u);
    EXPECT_EQ(records[2].machine, first.machineId());
    EXPECT_EQ(records[2].simTick, 42u);
    EXPECT_EQ(records[3].machine, 0u); // host clock
    EXPECT_GT(records[3].wallNs, 0u);
}

TEST_F(TraceTest, LaterMachinesNeverReuseAnId)
{
    std::set<uint64_t> seen;
    for (int i = 0; i < 64; ++i) {
        const auto queue = std::make_unique<EventQueue>();
        EXPECT_TRUE(seen.insert(queue->machineId()).second)
            << "machine id " << queue->machineId() << " reused";
    }
    EXPECT_EQ(seen.count(0), 0u); // 0 is the host clock
}

TEST_F(TraceTest, TwoLiveMachinesKeepTheirOwnClocks)
{
    // Machine A is up and 10 ms into its run when machine B is built
    // (at tick 0). Records A's models emit during A's failure and
    // restore must carry A's id and A's ticks, with B alive and after
    // B is gone.
    auto &manager = TraceManager::instance();
    manager.setCapacity(1 << 16);
    manager.enableAll();
    WspSystem a{SystemConfig{}};
    a.start();
    a.runFor(fromMillis(10.0));
    auto b = std::make_unique<WspSystem>(SystemConfig{});
    const uint64_t id_a = a.queue().machineId();
    const uint64_t id_b = b->queue().machineId();
    ASSERT_NE(id_a, id_b);

    const auto check_run = [&](const char *phase) {
        SCOPED_TRACE(phase);
        manager.clear();
        const Tick started = a.queue().now();
        a.powerFailAndRestore(fromMillis(1.0), fromMillis(500.0));
        const Tick finished = a.queue().now();
        std::set<std::string> names;
        size_t sim_records = 0;
        for (const Record &record : manager.snapshot()) {
            if (record.machine == 0)
                continue; // host clock
            ++sim_records;
            names.insert(record.name);
            EXPECT_EQ(record.machine, id_a) << record.name;
            EXPECT_GE(record.simTick, started) << record.name;
            EXPECT_LE(record.simTick, finished) << record.name;
        }
        EXPECT_GT(sim_records, 20u);
        for (const char *step : {"PWR_OK drop", "power-fail interrupt",
                                 "IPI", "wbinvd", "SaveRoutine start",
                                 "RestoreRoutine start"})
            EXPECT_EQ(names.count(step), 1u) << step;
    };
    check_run("machine B alive");
    b.reset();
    check_run("machine B destroyed");

    WspSystem c{SystemConfig{}};
    EXPECT_NE(c.queue().machineId(), id_a);
    EXPECT_NE(c.queue().machineId(), id_b);
}

TEST_F(TraceTest, EveryFleetNodeKeepsOneClockThroughItsStorms)
{
    // A fleet node power-cycles the one chassis it has, so a traced
    // fleet holds one simulated-time process per node: through two
    // whole-fleet storms, every simulated-time record of a 3-node fleet
    // carries one of 3 machine ids, and each id carries both kills
    // and both reboots of its node.
    auto &manager = TraceManager::instance();
    manager.setCapacity(1 << 16);
    manager.enableAll();
    fleet::FleetConfig config;
    config.nodes = 3;
    config.replication = 3;
    config.seed = 0xf1ee7c10c;
    fleet::Fleet fleet(config);
    fleet.runTraffic(30, 0.7);
    for (int storm = 0; storm < 2; ++storm) {
        const fleet::StormOutcome outcome =
            fleet.runStorm(/*mask=*/0, fromSeconds(2.0), fromMillis(80.0));
        ASSERT_EQ(outcome.victims, 3u) << "storm " << storm;
        ASSERT_EQ(outcome.wspRecoveries, 3u) << "storm " << storm;
        fleet.runTraffic(10, 0.7);
    }
    ASSERT_EQ(manager.dropped(), 0u);

    std::map<uint64_t, std::map<std::string, unsigned>> names_by_machine;
    for (const Record &record : manager.snapshot())
        if (record.machine != 0)
            ++names_by_machine[record.machine][record.name];
    EXPECT_EQ(names_by_machine.size(), 3u);
    for (const auto &[machine, names] : names_by_machine) {
        SCOPED_TRACE(::testing::Message() << "machine " << machine);
        const auto count = [&names](const char *name) {
            const auto found = names.find(name);
            return found == names.end() ? 0u : found->second;
        };
        EXPECT_EQ(count("PWR_OK drop"), 2u);
        EXPECT_EQ(count("SaveRoutine start"), 2u);
        EXPECT_EQ(count("RestoreRoutine start"), 2u);
    }
}

TEST_F(TraceTest, BootingOneMachineKeepsAnotherMachinesStats)
{
    // Statistics are process totals: machine B booting from an image
    // while machine A is alive must not zero what A's failure
    // counted.
    auto &registry = StatRegistry::instance();
    const Counter &saves_started = registry.counter("core.saves_started");
    const Counter &input_failures =
        registry.counter("power.input_failures");
    WspSystem a{SystemConfig{}};
    a.start();
    a.powerFailAndRestore(fromMillis(1.0), fromMillis(500.0));
    ASSERT_EQ(saves_started.value(), 1u);
    ASSERT_EQ(input_failures.value(), 1u);

    const WspSystem donor{SystemConfig{}};
    WspSystem b{SystemConfig{}};
    b.bootFromImage(donor.captureNvramImage());
    EXPECT_EQ(saves_started.value(), 1u);
    EXPECT_EQ(input_failures.value(), 1u);
}

TEST_F(TraceTest, NoRingWhileEveryCategoryIsOff)
{
    // The ring costs capacity x 80 bytes: nothing may allocate it
    // until a category is enabled, not even a machine that runs a
    // whole failure and restore with tracing off.
    auto &manager = TraceManager::instance();
    manager.disableAll();
    manager.setCapacity(4096); // discards any ring an earlier test built
    EXPECT_EQ(manager.capacity(), 0u);
    {
        WspSystem system{SystemConfig{}};
        system.start();
        system.powerFailAndRestore(fromMillis(1.0), fromMillis(500.0));
    }
    EXPECT_EQ(manager.capacity(), 0u);
    EXPECT_EQ(manager.totalEmitted(), 0u);

    manager.enable(1u << static_cast<unsigned>(Category::Core));
    EXPECT_EQ(manager.capacity(), 4096u);
    instant(Category::Core, "kept");
    manager.disableAll();
    // Disabling keeps the ring, so what was traced can still be read.
    EXPECT_EQ(manager.capacity(), 4096u);
    EXPECT_EQ(manager.snapshot().size(), 1u);
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
    EventQueue queue;
    queue.runUntil(1000);
    emitNow(queue, Category::Core, Phase::Begin, "sim span");
    emitNow(queue, Category::Core, Phase::End, "sim span");
    instant(Category::Pheap, "host \"quoted\"\nname");
    TRACE_SIM_COUNTER(queue, Power, "12V rail", 11.8);

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

    // Sim-stamped records sit in their machine's process (pid id + 1),
    // host records in the wall-clock process (pid 1).
    const double machine_pid = static_cast<double>(queue.machineId() + 1);
    bool machine_named = false;
    for (const auto &event : events->array) {
        const json::Value *name = event.find("name");
        if (name == nullptr)
            continue;
        if (name->string == "sim span") {
            EXPECT_DOUBLE_EQ(event.find("pid")->number, machine_pid);
            EXPECT_DOUBLE_EQ(event.find("ts")->number, 1.0);
        }
        if (name->string.find("quoted") != std::string::npos) {
            EXPECT_DOUBLE_EQ(event.find("pid")->number, 1.0);
        }
        if (name->string == "process_name" &&
            event.find("pid")->number == machine_pid) {
            const std::string label = event.find("args")->find("name")->string;
            machine_named = label.rfind(
                "machine " + std::to_string(queue.machineId()) + " ", 0) == 0;
        }
    }
    EXPECT_TRUE(machine_named);

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

/**
 * Apply WSP_TRACE_CAPACITY=@p value (WSP_TRACE unset), then enable
 * tracing and return the ring size; @p warning gets stderr.
 */
size_t
capacityFromEnv(const char *value, std::string *warning)
{
    unsetenv("WSP_TRACE");
    setenv("WSP_TRACE_CAPACITY", value, 1);
    ::testing::internal::CaptureStderr();
    TraceManager::instance().configureFromEnv();
    *warning = ::testing::internal::GetCapturedStderr();
    unsetenv("WSP_TRACE_CAPACITY");
    TraceManager::instance().enableAll();
    return TraceManager::instance().capacity();
}

TEST_F(TraceTest, CapacityFromEnvAcceptsAPlainDecimal)
{
    std::string warning;
    EXPECT_EQ(capacityFromEnv("4096", &warning), 4096u);
    EXPECT_EQ(warning, "");
}

TEST_F(TraceTest, CapacityFromEnvRejectsTrailingText)
{
    std::string warning;
    EXPECT_EQ(capacityFromEnv("12abc", &warning), 1024u);
    EXPECT_NE(warning.find("WSP_TRACE_CAPACITY=12abc"), std::string::npos);
}

TEST_F(TraceTest, CapacityFromEnvRejectsAnExponent)
{
    std::string warning;
    EXPECT_EQ(capacityFromEnv("1e6", &warning), 1024u);
    EXPECT_NE(warning.find("WSP_TRACE_CAPACITY=1e6"), std::string::npos);
}

TEST_F(TraceTest, CapacityFromEnvWarnsOnANegativeCount)
{
    std::string warning;
    EXPECT_EQ(capacityFromEnv("-5", &warning), 1024u);
    EXPECT_NE(warning.find("WSP_TRACE_CAPACITY=-5"), std::string::npos);
}

TEST_F(TraceTest, CapacityFromEnvRejectsAnOverflow)
{
    std::string warning;
    EXPECT_EQ(capacityFromEnv("99999999999999999999", &warning), 1024u);
    EXPECT_NE(warning.find("WSP_TRACE_CAPACITY=99999999999999999999"),
              std::string::npos);
    EXPECT_EQ(capacityFromEnv("16777217", &warning), 1024u);
    EXPECT_NE(warning.find("WSP_TRACE_CAPACITY=16777217"),
              std::string::npos);
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
