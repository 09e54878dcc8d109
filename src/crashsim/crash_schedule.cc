#include "crashsim/crash_schedule.h"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/logging.h"

namespace wsp::crashsim {

namespace {

constexpr const char *kHeader = "wsp-crash-schedule v1";

/**
 * A count for an unsigned field. Throws (as std::stoull does on
 * garbage) for a sign or a value the field cannot hold, instead of
 * wrapping it into range.
 */
unsigned
parseCount(const std::string &value)
{
    const unsigned long long n = std::stoull(value);
    if (value.find('-') != std::string::npos ||
        n > std::numeric_limits<unsigned>::max())
        throw std::out_of_range(value);
    return static_cast<unsigned>(n);
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
    out << "drain_voltage=" << drainVoltage << "\n";
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
        try {
            if (key == "seed")
                schedule.seed = std::stoull(value);
            else if (key == "fail_delay_ns")
                schedule.failDelay = std::stoull(value);
            else if (key == "window_ns")
                schedule.window = std::stoull(value);
            else if (key == "outage_ns")
                schedule.outage = std::stoull(value);
            else if (key == "ops")
                schedule.ops = parseCount(value);
            else if (key == "op_spacing_ns")
                schedule.opSpacing = std::stoull(value);
            else if (key == "train_cycles")
                schedule.trainCycles = parseCount(value);
            else if (key == "train_spacing_ns")
                schedule.trainSpacing = std::stoull(value);
            else if (key == "drain_module")
                schedule.drainModule = std::stoi(value);
            else if (key == "drain_voltage")
                schedule.drainVoltage = std::stod(value);
            else if (key == "undersized_caps")
                schedule.undersizedCaps = value == "1";
            else if (key == "with_devices")
                schedule.withDevices = value == "1";
            else if (key == "save_order")
                schedule.saveOrder = value == "marker-before-flush"
                                         ? SaveOrder::MarkerBeforeFlush
                                         : SaveOrder::MarkerAfterFlush;
            else if (key == "shards")
                schedule.shards = parseCount(value);
            else if (key == "parallel_save")
                schedule.parallelSave = value == "1";
            else if (key == "salvage")
                schedule.salvage = value == "1";
            else if (key == "media_faults")
                schedule.mediaFaults = parseCount(value);
            else if (key == "media_fault_kind")
                schedule.mediaFaultKind = std::stoi(value);
            else if (key == "media_fault_seed")
                schedule.mediaFaultSeed = std::stoull(value);
            else if (key == "degrade_tier")
                schedule.degradeTier = std::stoi(value);
            else if (key == "drop_save_cmds")
                schedule.dropSaveCommands = parseCount(value);
            else if (key == "trust_directory")
                schedule.trustDirectory = value == "1";
            else if (key == "incremental_save")
                schedule.incrementalSave = value == "1";
            else if (key == "lazy_restore")
                schedule.lazyRestore = value == "1";
            else if (key == "black_box")
                schedule.blackBox = value == "1";
            else if (key == "condition") {
                const auto mode = conditionModeFromName(value);
                if (!mode)
                    return std::nullopt;
                schedule.condition = *mode;
            } else if (key == "ack_delay_ns")
                schedule.ackDelay = std::stoull(value);
            else if (key == "ack_before_apply")
                schedule.ackBeforeApply = value == "1";
            else if (key == "fleet_nodes")
                schedule.fleetNodes = parseCount(value);
            else if (key == "fleet_replication")
                schedule.fleetReplication = parseCount(value);
            else if (key == "fleet_kill_mask")
                schedule.fleetKillMask = std::stoull(value);
            else if (key == "fleet_policy")
                schedule.fleetPolicy = std::stoi(value);
            else
                return std::nullopt; // unknown key: refuse to guess
        } catch (const std::exception &) {
            return std::nullopt;
        }
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
