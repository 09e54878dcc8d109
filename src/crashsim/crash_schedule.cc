#include "crashsim/crash_schedule.h"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/logging.h"

namespace wsp::crashsim {

namespace {

constexpr const char *kHeader = "wsp-crash-schedule v1";

/**
 * Read all of @p text as a base-10 value of @p out's type. A sign on
 * an unsigned field, any trailing character, or a value the field
 * cannot hold is refused, not read as a prefix or wrapped into range.
 */
template <typename T>
bool
parseValue(const std::string &text, T *out)
{
    const char *end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, *out);
    return error == std::errc() && stop == end;
}

/** A flag exactly as serialize() writes it: "0" or "1". */
bool
parseFlag(const std::string &text, bool *out)
{
    if (text != "0" && text != "1")
        return false;
    *out = text == "1";
    return true;
}

/** Shortest text that parses back to exactly @p value. */
std::string
roundTripText(double value)
{
    char buf[32];
    const auto written = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, written.ptr);
}

} // namespace

const char *
conditionModeName(ConditionMode mode)
{
    switch (mode) {
      case ConditionMode::All:
        return "all";
      case ConditionMode::DurableLin:
        return "durable-lin";
      case ConditionMode::BufferedDurableLin:
        return "buffered";
      case ConditionMode::Detectable:
        return "detectable";
    }
    return "all";
}

std::optional<ConditionMode>
conditionModeFromName(const std::string &name)
{
    if (name == "all")
        return ConditionMode::All;
    if (name == "durable-lin")
        return ConditionMode::DurableLin;
    if (name == "buffered")
        return ConditionMode::BufferedDurableLin;
    if (name == "detectable")
        return ConditionMode::Detectable;
    return std::nullopt;
}

std::string
CrashSchedule::serialize() const
{
    std::ostringstream out;
    out << kHeader << "\n";
    out << "seed=" << seed << "\n";
    out << "fail_delay_ns=" << failDelay << "\n";
    out << "window_ns=" << window << "\n";
    out << "outage_ns=" << outage << "\n";
    out << "ops=" << ops << "\n";
    out << "op_spacing_ns=" << opSpacing << "\n";
    out << "train_cycles=" << trainCycles << "\n";
    out << "train_spacing_ns=" << trainSpacing << "\n";
    out << "drain_module=" << drainModule << "\n";
    out << "drain_voltage=" << roundTripText(drainVoltage) << "\n";
    out << "undersized_caps=" << (undersizedCaps ? 1 : 0) << "\n";
    out << "with_devices=" << (withDevices ? 1 : 0) << "\n";
    out << "save_order="
        << (saveOrder == SaveOrder::MarkerBeforeFlush
                ? "marker-before-flush"
                : "marker-after-flush")
        << "\n";
    out << "shards=" << shards << "\n";
    out << "parallel_save=" << (parallelSave ? 1 : 0) << "\n";
    out << "salvage=" << (salvage ? 1 : 0) << "\n";
    out << "media_faults=" << mediaFaults << "\n";
    out << "media_fault_kind=" << mediaFaultKind << "\n";
    out << "media_fault_seed=" << mediaFaultSeed << "\n";
    out << "degrade_tier=" << degradeTier << "\n";
    out << "drop_save_cmds=" << dropSaveCommands << "\n";
    out << "trust_directory=" << (trustDirectory ? 1 : 0) << "\n";
    out << "incremental_save=" << (incrementalSave ? 1 : 0) << "\n";
    out << "lazy_restore=" << (lazyRestore ? 1 : 0) << "\n";
    out << "black_box=" << (blackBox ? 1 : 0) << "\n";
    out << "condition=" << conditionModeName(condition) << "\n";
    out << "ack_delay_ns=" << ackDelay << "\n";
    out << "ack_before_apply=" << (ackBeforeApply ? 1 : 0) << "\n";
    out << "fleet_nodes=" << fleetNodes << "\n";
    out << "fleet_replication=" << fleetReplication << "\n";
    out << "fleet_kill_mask=" << fleetKillMask << "\n";
    out << "fleet_policy=" << fleetPolicy << "\n";
    return out.str();
}

std::optional<CrashSchedule>
CrashSchedule::parse(const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line) || line != kHeader)
        return std::nullopt;

    CrashSchedule schedule;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const size_t eq = line.find('=');
        if (eq == std::string::npos)
            return std::nullopt;
        const std::string key = line.substr(0, eq);
        const std::string value = line.substr(eq + 1);
        bool ok = true;
        if (key == "seed")
            ok = parseValue(value, &schedule.seed);
        else if (key == "fail_delay_ns")
            ok = parseValue(value, &schedule.failDelay);
        else if (key == "window_ns")
            ok = parseValue(value, &schedule.window);
        else if (key == "outage_ns")
            ok = parseValue(value, &schedule.outage);
        else if (key == "ops")
            ok = parseValue(value, &schedule.ops);
        else if (key == "op_spacing_ns")
            ok = parseValue(value, &schedule.opSpacing);
        else if (key == "train_cycles")
            ok = parseValue(value, &schedule.trainCycles);
        else if (key == "train_spacing_ns")
            ok = parseValue(value, &schedule.trainSpacing);
        else if (key == "drain_module")
            ok = parseValue(value, &schedule.drainModule);
        else if (key == "drain_voltage")
            ok = parseValue(value, &schedule.drainVoltage);
        else if (key == "undersized_caps")
            ok = parseFlag(value, &schedule.undersizedCaps);
        else if (key == "with_devices")
            ok = parseFlag(value, &schedule.withDevices);
        else if (key == "save_order") {
            if (value == "marker-before-flush")
                schedule.saveOrder = SaveOrder::MarkerBeforeFlush;
            else if (value == "marker-after-flush")
                schedule.saveOrder = SaveOrder::MarkerAfterFlush;
            else
                ok = false;
        } else if (key == "shards")
            ok = parseValue(value, &schedule.shards);
        else if (key == "parallel_save")
            ok = parseFlag(value, &schedule.parallelSave);
        else if (key == "salvage")
            ok = parseFlag(value, &schedule.salvage);
        else if (key == "media_faults")
            ok = parseValue(value, &schedule.mediaFaults);
        else if (key == "media_fault_kind")
            ok = parseValue(value, &schedule.mediaFaultKind);
        else if (key == "media_fault_seed")
            ok = parseValue(value, &schedule.mediaFaultSeed);
        else if (key == "degrade_tier")
            ok = parseValue(value, &schedule.degradeTier);
        else if (key == "drop_save_cmds")
            ok = parseValue(value, &schedule.dropSaveCommands);
        else if (key == "trust_directory")
            ok = parseFlag(value, &schedule.trustDirectory);
        else if (key == "incremental_save")
            ok = parseFlag(value, &schedule.incrementalSave);
        else if (key == "lazy_restore")
            ok = parseFlag(value, &schedule.lazyRestore);
        else if (key == "black_box")
            ok = parseFlag(value, &schedule.blackBox);
        else if (key == "condition") {
            const auto mode = conditionModeFromName(value);
            ok = mode.has_value();
            if (ok)
                schedule.condition = *mode;
        } else if (key == "ack_delay_ns")
            ok = parseValue(value, &schedule.ackDelay);
        else if (key == "ack_before_apply")
            ok = parseFlag(value, &schedule.ackBeforeApply);
        else if (key == "fleet_nodes")
            ok = parseValue(value, &schedule.fleetNodes);
        else if (key == "fleet_replication")
            ok = parseValue(value, &schedule.fleetReplication);
        else if (key == "fleet_kill_mask")
            ok = parseValue(value, &schedule.fleetKillMask);
        else if (key == "fleet_policy")
            ok = parseValue(value, &schedule.fleetPolicy);
        else
            ok = false; // unknown key: refuse to guess
        if (!ok)
            return std::nullopt;
    }
    if (schedule.trainCycles == 0)
        return std::nullopt;
    if (schedule.shards == 0 ||
        (schedule.shards & (schedule.shards - 1)) != 0)
        return std::nullopt;
    if (schedule.mediaFaultKind < -1 || schedule.mediaFaultKind > 2)
        return std::nullopt;
    if (schedule.degradeTier < -1 || schedule.degradeTier > 1)
        return std::nullopt; // only Core/Metadata cuts are degraded
    if (schedule.ackDelay >= schedule.opSpacing)
        return std::nullopt; // workload must stay sequential
    if (schedule.fleetNodes > 64)
        return std::nullopt; // kill mask is a 64-bit word
    if (schedule.fleetNodes > 0 && schedule.fleetReplication == 0)
        return std::nullopt;
    if (schedule.fleetPolicy < 0 || schedule.fleetPolicy > 2)
        return std::nullopt;
    return schedule;
}

bool
CrashSchedule::writeFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        warn("cannot write crash schedule to '%s'", path.c_str());
        return false;
    }
    out << serialize();
    out.close();
    return static_cast<bool>(out);
}

std::optional<CrashSchedule>
CrashSchedule::readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        warn("cannot read crash schedule from '%s'", path.c_str());
        return std::nullopt;
    }
    std::ostringstream text;
    text << in.rdbuf();
    return parse(text.str());
}

std::string
CrashSchedule::summary() const
{
    char line[256];
    std::snprintf(
        line, sizeof(line),
        "window=%s ops=%u train=%u outage=%s%s%s%s%s%s seed=%llu",
        formatTime(window).c_str(), ops, trainCycles,
        formatTime(outage).c_str(),
        drainModule >= 0 ? " drained-cap" : "",
        undersizedCaps ? " undersized-caps" : "",
        withDevices ? " devices" : "",
        saveOrder == SaveOrder::MarkerBeforeFlush ? " BROKEN-ORDER"
                                                  : "",
        parallelSave ? " parallel-save" : "",
        static_cast<unsigned long long>(seed));
    std::string text = line;
    if (shards > 1)
        text += " shards=" + std::to_string(shards);
    if (salvage)
        text += " salvage";
    if (mediaFaults > 0)
        text += " media-faults=" + std::to_string(mediaFaults);
    if (degradeTier >= 0)
        text += " degrade-tier=" + std::to_string(degradeTier);
    if (dropSaveCommands > 0)
        text += " drop-cmds=" + std::to_string(dropSaveCommands);
    if (trustDirectory)
        text += " TRUST-DIR";
    if (!incrementalSave)
        text += " full-saves-only";
    if (lazyRestore)
        text += " lazy-restore";
    if (!blackBox)
        text += " no-black-box";
    if (condition != ConditionMode::All)
        text += std::string(" condition=") + conditionModeName(condition);
    if (ackBeforeApply)
        text += " ACK-BEFORE-APPLY";
    if (fleetNodes > 0) {
        text += " fleet=" + std::to_string(fleetNodes) + "/r" +
                std::to_string(fleetReplication);
        char mask[32];
        std::snprintf(mask, sizeof(mask), " kill=0x%llx",
                      static_cast<unsigned long long>(fleetKillMask));
        text += mask;
        text += fleetPolicy == 1   ? " refill"
                : fleetPolicy == 2 ? " degraded-tier"
                                   : " wsp-local";
    }
    return text;
}

} // namespace wsp::crashsim
