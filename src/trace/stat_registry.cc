#include "trace/stat_registry.h"

namespace wsp::trace {

StatRegistry &
StatRegistry::instance()
{
    static StatRegistry registry;
    return registry;
}

Counter &
StatRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
StatRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

void
StatRegistry::registerProbe(const std::string &name,
                            std::function<double()> probe)
{
    std::lock_guard<std::mutex> lock(mutex_);
    probes_[name] = std::move(probe);
}

std::vector<StatRegistry::Sample>
StatRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // The three maps are name-sorted and the namespaces rarely
    // collide; merge into one sorted list.
    std::map<std::string, double> merged;
    for (const auto &[name, counter] : counters_)
        merged[name] = static_cast<double>(counter->value());
    for (const auto &[name, gauge] : gauges_)
        merged[name] = gauge->value();
    for (const auto &[name, probe] : probes_)
        merged[name] = probe();

    std::vector<Sample> out;
    out.reserve(merged.size());
    for (const auto &[name, value] : merged)
        out.push_back(Sample{name, value});
    return out;
}

void
StatRegistry::resetForTest()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, counter] : counters_)
        counter->reset();
    for (auto &[name, gauge] : gauges_)
        gauge->set(0.0);
}

GaugeFamily::GaugeFamily(std::string prefix, std::string suffix)
    : prefix_(std::move(prefix)), suffix_(std::move(suffix))
{
}

Gauge &
GaugeFamily::operator[](std::string_view key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = gauges_.find(key); it != gauges_.end())
        return *it->second;
    std::string name = prefix_;
    for (char c : key) {
        const bool word = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9');
        name += word ? c : '_';
    }
    name += suffix_;
    Gauge &gauge = StatRegistry::instance().gauge(name);
    gauges_.emplace(key, &gauge);
    return gauge;
}

} // namespace wsp::trace
