#include "trace/trace.h"

#include <chrono>
#include <cstdlib>
#include <cstring>

#include "trace/stat_registry.h"
#include "util/logging.h"

namespace wsp::trace {

namespace detail {
std::atomic<uint32_t> g_enabledMask{0};
} // namespace detail

namespace {

constexpr size_t kDefaultCapacity = 65536;

/**
 * WSP_TRACE_CAPACITY as a record count: a plain decimal from 1 to
 * TraceManager::kMaxCapacity, or 0 for anything else (a sign, an
 * exponent, trailing text, an overflow).
 */
size_t
parseCapacity(const char *text)
{
    size_t records = 0;
    for (const char *c = text; *c != '\0'; ++c) {
        if (*c < '0' || *c > '9')
            return 0;
        records = records * 10 + static_cast<size_t>(*c - '0');
        if (records > TraceManager::kMaxCapacity)
            return 0;
    }
    return records;
}

uint64_t
wallNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

const char *
categoryName(Category category)
{
    switch (category) {
      case Category::Core:
        return "core";
      case Category::Nvram:
        return "nvram";
      case Category::Power:
        return "power";
      case Category::Pheap:
        return "pheap";
      case Category::Machine:
        return "machine";
      case Category::Devices:
        return "devices";
      case Category::Apps:
        return "apps";
      case Category::Crashsim:
        return "crashsim";
    }
    return "unknown";
}

bool
parseCategoryList(const char *list, uint32_t *mask_out)
{
    *mask_out = 0;
    if (list == nullptr || *list == '\0')
        return true;
    const std::string text(list);
    size_t pos = 0;
    while (pos < text.size()) {
        size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string token = text.substr(pos, comma - pos);
        pos = comma + 1;
        if (token.empty())
            continue;
        if (token == "all") {
            *mask_out = kAllCategories;
            continue;
        }
        bool found = false;
        for (unsigned i = 0; i < kCategoryCount; ++i) {
            if (token == categoryName(static_cast<Category>(i))) {
                *mask_out |= 1u << i;
                found = true;
                break;
            }
        }
        if (!found)
            return false;
    }
    return true;
}

TraceManager &
TraceManager::instance()
{
    static TraceManager manager;
    return manager;
}

TraceManager::TraceManager() : configuredCapacity_(kDefaultCapacity)
{
    // Surface ring overwrites without adding hot-path cost: the
    // exporter polls this probe at snapshot time.
    StatRegistry::instance().registerProbe("trace.dropped", [this] {
        return static_cast<double>(dropped());
    });
}

void
TraceManager::enable(uint32_t mask)
{
    mask &= kAllCategories;
    // The ring exists before any emitter can see an enabled category.
    if (mask != 0 && ring_.empty())
        ring_.resize(configuredCapacity_);
    detail::g_enabledMask.store(mask, std::memory_order_release);
    // Tracing doubles as a debug-message sink: with any category
    // active, debugLog() lines become instant events on the trace.
    if (mask != 0) {
        setDebugSink([](const char *message) {
            TraceManager::instance().emit(Category::Apps, Phase::Instant,
                                          message);
        });
    } else {
        setDebugSink(nullptr);
    }
}

bool
TraceManager::configureFromEnv()
{
    const char *capacity_env = std::getenv("WSP_TRACE_CAPACITY");
    if (capacity_env != nullptr) {
        const size_t records = parseCapacity(capacity_env);
        if (records != 0)
            setCapacity(records);
        else
            warn("WSP_TRACE_CAPACITY=%s is not a record count from 1 to "
                 "%zu; keeping %zu",
                 capacity_env, kMaxCapacity, configuredCapacity_);
    }

    const char *list = std::getenv("WSP_TRACE");
    if (list == nullptr)
        return enabledMask() != 0;
    uint32_t mask = 0;
    if (!parseCategoryList(list, &mask)) {
        warn("WSP_TRACE=%s contains an unknown category; expected a "
             "comma list of core,nvram,power,pheap,machine,devices,"
             "apps,crashsim or 'all'",
             list);
        return enabledMask() != 0;
    }
    enable(mask);
    return mask != 0;
}

uint32_t
TraceManager::enabledMask() const
{
    return detail::g_enabledMask.load(std::memory_order_relaxed);
}

void
TraceManager::setCapacity(size_t records)
{
    WSP_CHECK(records >= 1 && records <= kMaxCapacity);
    configuredCapacity_ = records;
    std::vector<Record>().swap(ring_);
    if (enabledMask() != 0)
        ring_.resize(records);
    next_.store(0, std::memory_order_relaxed);
}

void
TraceManager::emit(Category category, Phase phase, const char *name,
                   double value)
{
    if (enabled(category))
        store(category, phase, name, 0, 0, value);
}

void
TraceManager::emitAt(Category category, Phase phase, const char *name,
                     uint64_t machine, uint64_t sim_tick, double value)
{
    if (enabled(category))
        store(category, phase, name, machine, sim_tick, value);
}

void
TraceManager::store(Category category, Phase phase, const char *name,
                    uint64_t machine, uint64_t sim_tick, double value)
{
    const uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
    if (seq == static_cast<uint64_t>(ring_.size()) &&
        !overflowWarned_.exchange(true, std::memory_order_relaxed)) {
        warn("trace ring full after %zu records: oldest records are "
             "being overwritten (raise WSP_TRACE_CAPACITY; drops are "
             "counted in the trace.dropped stat)",
             ring_.size());
    }
    Record &slot = ring_[seq % ring_.size()];
    slot.simTick = sim_tick;
    slot.wallNs = wallNowNs();
    slot.machine = machine;
    slot.value = value;
    slot.category = category;
    slot.phase = phase;
    std::strncpy(slot.name, name, Record::kNameBytes - 1);
    slot.name[Record::kNameBytes - 1] = '\0';
}

std::vector<Record>
TraceManager::snapshot() const
{
    const uint64_t total = next_.load(std::memory_order_relaxed);
    const uint64_t count =
        std::min<uint64_t>(total, static_cast<uint64_t>(ring_.size()));
    std::vector<Record> out;
    out.reserve(count);
    for (uint64_t i = total - count; i < total; ++i)
        out.push_back(ring_[i % ring_.size()]);
    return out;
}

uint64_t
TraceManager::totalEmitted() const
{
    return next_.load(std::memory_order_relaxed);
}

uint64_t
TraceManager::dropped() const
{
    const uint64_t total = next_.load(std::memory_order_relaxed);
    const auto cap = static_cast<uint64_t>(ring_.size());
    return total > cap ? total - cap : 0;
}

void
TraceManager::clear()
{
    next_.store(0, std::memory_order_relaxed);
}

} // namespace wsp::trace
