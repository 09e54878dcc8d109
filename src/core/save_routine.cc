#include "core/save_routine.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "trace/flight_recorder.h"
#include "trace/stat_registry.h"
#include "trace/trace.h"
#include "util/logging.h"

namespace wsp {

std::string
restoreModeName(RestoreMode mode)
{
    switch (mode) {
      case RestoreMode::WholeSystem:
        return "whole-system";
      case RestoreMode::ProcessOnly:
        return "process-only";
    }
    return "unknown";
}

std::string
saveTierName(SaveTier tier)
{
    switch (tier) {
      case SaveTier::Core:
        return "core";
      case SaveTier::Metadata:
        return "metadata";
      case SaveTier::Bulk:
        return "bulk";
    }
    return "unknown";
}

bool
SaveRoutine::stepReached(const SaveReport &report, const char *step)
{
    for (const auto &timing : report.steps) {
        if (timing.step == step)
            return true;
    }
    return false;
}

SaveRoutine::SaveRoutine(MachineModel &machine, PowerMonitor &monitor,
                         ValidMarker &marker, ResumeBlock &resume_block,
                         DeviceManager *devices, const WspConfig &config,
                         NvdimmController *nvdimms,
                         SalvageDirectory *directory,
                         trace::FlightRecorder *recorder)
    : machine_(machine), monitor_(monitor), marker_(marker),
      resumeBlock_(resume_block), devices_(devices), config_(config),
      nvdimms_(nvdimms), directory_(directory), recorder_(recorder),
      queue_(machine.queue())
{
}

Tick
SaveRoutine::flushCost(unsigned socket) const
{
    CacheModel &cache = machine_.socketCache(socket);
    switch (config_.flushMethod) {
      case FlushMethod::Wbinvd:
        return cache.wbinvdCost();
      case FlushMethod::ClflushLoop:
        // Software cannot know which lines are dirty (the paper's
        // observation), so the loop walks the entire cache.
        return cache.clflushLoopCost(cache.capacity() /
                                     CacheModel::kLineSize);
    }
    return 0;
}

void
SaveRoutine::record(const char *step, Tick start, Tick end)
{
    report_.steps.push_back(StepTiming{step, start, end});
    // Steps complete inside event callbacks with explicit (start, end)
    // ticks, so emit the span retroactively rather than via RAII.
    if (trace::enabled(trace::Category::Core)) {
        auto &manager = trace::TraceManager::instance();
        manager.emitAt(trace::Category::Core, trace::Phase::Begin, step,
                       queue_.machineId(), start);
        manager.emitAt(trace::Category::Core, trace::Phase::End, step,
                       queue_.machineId(), end);
    }
    // Gauge names derive from the step name, not its position in the
    // report: under the parallel flush the per-core steps land in
    // completion order, so a positional name would bind a different
    // step from run to run.
    static trace::GaugeFamily gauges("core.save.step.", "_ns");
    gauges[step].set(static_cast<double>(end - start));
}

void
SaveRoutine::run(uint64_t boot_sequence,
                 std::function<void(const SaveReport &)> done)
{
    run(boot_sequence, false, std::move(done));
}

void
SaveRoutine::run(uint64_t boot_sequence, bool degraded_hint,
                 std::function<void(const SaveReport &)> done)
{
    bootSequence_ = boot_sequence;
    done_ = std::move(done);
    report_ = SaveReport{};
    report_.steps.reserve(16); // every step but the per-core flushes
    report_.started = queue_.now();
    static trace::Counter &saves_started =
        trace::StatRegistry::instance().counter("core.saves_started");
    saves_started.add();
    TRACE_SIM_INSTANT(queue_, Core, "SaveRoutine start");
    report_.dirtyBytesFlushed = machine_.totalDirtyBytes();

    // Degraded-mode decision: a forced config or the platform's
    // health verdict.
    degraded_ = config_.forceDegradedSave || degraded_hint;
    tierCut_ = degraded_ ? config_.degradedTierCut : SaveTier::Bulk;
    report_.degraded = degraded_;
    report_.tierCut = tierCut_;
    if (directory_ != nullptr) {
        for (const SalvageRegionSpec &region : directory_->regions()) {
            if (region.tier > tierCut_)
                ++report_.regionsDropped;
        }
    }
    if (degraded_) {
        static trace::Counter &saves_degraded =
            trace::StatRegistry::instance().counter("core.saves_degraded");
        saves_degraded.add();
        warn("save routine: DEGRADED save, tier cut '%s', %u regions "
             "dropped",
             saveTierName(tierCut_).c_str(), report_.regionsDropped);
    }
    // Black box: the save's opening records go in write-ahead, while
    // the recorder's backing module is still Active and accepting
    // host writes.
    trace::frEmit(recorder_, trace::FrEvent::SaveBegin,
                  trace::Category::Core, bootSequence_, degraded_ ? 1 : 0);
    if (degraded_) {
        trace::frEmit(recorder_, trace::FrEvent::SaveTierCut,
                      trace::Category::Core, static_cast<uint64_t>(tierCut_),
                      report_.regionsDropped);
    }
    record("interrupt control processor", queue_.now(), queue_.now());

    // A degraded save never spends its window on device suspend: the
    // strawman policy's cost is exactly what the remaining energy
    // cannot afford.
    if (!degraded_ &&
        config_.devicePolicy == DevicePolicy::AcpiSuspendOnSave &&
        devices_ != nullptr) {
        // Strawman: quiesce every device before touching CPU state.
        // Fig. 9 shows why this is infeasible within the residual
        // window.
        const Tick start = queue_.now();
        devices_->suspendAll([this, start](Tick total) {
            if (!machine_.powerOn())
                return;
            report_.deviceSuspendTime = total;
            record("acpi device suspend", start, queue_.now());
            stepIpis();
        });
        return;
    }
    stepIpis();
}

void
SaveRoutine::stepIpis()
{
    const Tick start = queue_.now();
    // Account the IPI fan-out in the controller's statistics.
    for (unsigned i = 1; i < machine_.coreCount(); ++i)
        machine_.interrupts().sendIpi(i, [](unsigned) {});

    queue_.scheduleAfter(machine_.interrupts().ipiLatency(), [this, start] {
        if (!machine_.powerOn())
            return;
        record("IPI all processors", start, queue_.now());
        stepContextsAndFlush();
    });
}

void
SaveRoutine::stepContextsAndFlush()
{
    // Every processor saves its own context into the resume block;
    // they run in parallel, so the step costs one context save plus
    // the slot flushes. The functional writes land when the step
    // completes, so a power loss mid-step loses them, as on hardware.
    const Tick start = queue_.now();
    const uint64_t slot_lines =
        (CpuContext::serializedSize() + CacheModel::kLineSize - 1) /
        CacheModel::kLineSize;
    const Tick ctx_cost =
        machine_.spec().contextSaveLatency +
        machine_.socketCache(0).clflushLoopCost(slot_lines);
    report_.contextSaveTime = ctx_cost;

    queue_.scheduleAfter(ctx_cost, [this, start] {
        if (!machine_.powerOn())
            return;
        for (unsigned i = 0; i < machine_.coreCount(); ++i)
            resumeBlock_.saveContext(i, machine_.core(i).context);
        record("save processor contexts", start, queue_.now());
        // The broken ordering stamps the marker first and flushes
        // afterwards — the bug the crashsim sweep exists to catch.
        if (config_.saveOrder == SaveOrder::MarkerBeforeFlush)
            stepMarkerPrepare();
        else if (degraded_)
            stepDegradedFlush();
        else
            stepFinishFlush();
    });
}

unsigned
SaveRoutine::flushWorkers(unsigned socket) const
{
    (void)socket; // all presets are symmetric across sockets
    return std::max(1u, machine_.spec().logicalCpusPerSocket());
}

void
SaveRoutine::stepFinishFlush()
{
    if (config_.parallelFlush) {
        stepParallelFlush(queue_.now());
        return;
    }
    // One designated processor per socket flushes that socket's
    // cache; sockets proceed in parallel, so the barrier is the
    // slowest socket.
    const Tick start = queue_.now();
    Tick worst = 0;
    for (unsigned socket = 0; socket < machine_.socketCount(); ++socket)
        worst = std::max(worst, flushCost(socket));
    report_.cacheFlushTime = worst;

    queue_.scheduleAfter(worst, [this, start] {
        if (!machine_.powerOn())
            return;
        // Functionally, both flush methods write back every dirty
        // line of every socket cache.
        for (unsigned socket = 0; socket < machine_.socketCount();
             ++socket) {
            CacheModel &cache = machine_.socketCache(socket);
            const uint64_t bytes = cache.dirtyBytes();
            TRACE_SIM_INSTANT(queue_, Machine, "wbinvd");
            cache.wbinvd();
            trace::frEmit(recorder_, trace::FrEvent::SaveFlushWave,
                          trace::Category::Machine,
                          static_cast<uint64_t>(socket) << 32, bytes);
        }
        record("flush caches (all sockets)", start, queue_.now());
        afterFlush();
    });
}

void
SaveRoutine::stepParallelFlush(Tick start)
{
    // Every logical CPU of a socket flushes its own partition of that
    // socket's dirty lines; partitions proceed concurrently across the
    // whole machine, so the residual-energy window is charged the
    // slowest worker (the barrier), never the sum. Each worker's
    // completion is its own event: a power loss mid-step leaves
    // exactly the partitions that finished written back, and each
    // worker records its own progress step, so the post-failure report
    // stays readable without any cross-core ordering assumption.
    Tick worst = 0;
    auto remaining = std::make_shared<unsigned>(0);
    for (unsigned socket = 0; socket < machine_.socketCount(); ++socket) {
        const unsigned workers = flushWorkers(socket);
        CacheModel &cache = machine_.socketCache(socket);
        *remaining += workers;
        for (unsigned w = 0; w < workers; ++w) {
            const Tick cost = cache.partitionFlushCost(w, workers);
            worst = std::max(worst, cost);
            queue_.scheduleAfter(
                cost, [this, start, socket, w, workers, remaining] {
                    if (!machine_.powerOn())
                        return;
                    CacheModel &cache = machine_.socketCache(socket);
                    const uint64_t bytes =
                        cache.partitionDirtyLines(w, workers) *
                        CacheModel::kLineSize;
                    cache.flushPartition(w, workers);
                    trace::frEmit(recorder_, trace::FrEvent::SaveFlushWave,
                                  trace::Category::Machine,
                                  (static_cast<uint64_t>(socket) << 32) | w,
                                  bytes);
                    char step[64];
                    std::snprintf(step, sizeof(step),
                                  "flush partition socket%u core%u", socket,
                                  w);
                    record(step, start, queue_.now());
                    WSP_CHECK(*remaining > 0);
                    if (--*remaining > 0)
                        return;
                    // Barrier: the canonical step name is recorded
                    // only when every partition is in NVRAM, so the
                    // marker-ordering invariants hold unchanged.
                    record("flush caches (all sockets)", start,
                           queue_.now());
                    afterFlush();
                });
        }
    }
    report_.cacheFlushTime = worst;
}

void
SaveRoutine::stepDegradedFlush()
{
    // Degraded mode cannot afford the whole-cache walk, so one
    // designated processor clflushes exactly the lines of the
    // registered regions at or above the tier cut. Everything else
    // dirty in the caches is deliberately sacrificed: those lines
    // never reach NVRAM and the image can only be salvaged, never
    // whole-resumed (the marker records the cut).
    const Tick start = queue_.now();
    const uint64_t lines =
        directory_ != nullptr ? directory_->regionLines(tierCut_) : 0;
    const Tick cost = machine_.socketCache(0).clflushLoopCost(lines);
    report_.cacheFlushTime = cost;

    queue_.scheduleAfter(cost, [this, start] {
        if (!machine_.powerOn())
            return;
        if (directory_ != nullptr) {
            for (const SalvageRegionSpec &region : directory_->regions()) {
                if (region.tier > tierCut_)
                    continue;
                const uint64_t first =
                    region.base & ~(CacheModel::kLineSize - 1);
                for (uint64_t addr = first;
                     addr < region.base + region.size;
                     addr += CacheModel::kLineSize) {
                    // A line may be dirty in any socket's cache.
                    for (unsigned socket = 0;
                         socket < machine_.socketCount(); ++socket)
                        machine_.socketCache(socket).flushLine(addr);
                }
            }
        }
        trace::frEmit(recorder_, trace::FrEvent::SaveFlushWave,
                      trace::Category::Machine, 0,
                      (directory_ != nullptr
                           ? directory_->regionLines(tierCut_)
                           : 0) *
                          CacheModel::kLineSize);
        record("flush tier regions (degraded)", start, queue_.now());
        afterFlush();
    });
}

void
SaveRoutine::afterFlush()
{
    // Step 4: halt the N-1 non-control processors.
    for (unsigned i = 1; i < machine_.coreCount(); ++i)
        machine_.core(i).halted = true;
    record("halt N-1 processors", queue_.now(), queue_.now());
    if (config_.saveOrder == SaveOrder::MarkerBeforeFlush)
        stepInitiateNvdimmSave(); // marker was stamped already
    else if (directory_ != nullptr && !directory_->empty())
        stepPersistDirectory();
    else
        stepMarkerPrepare();
}

void
SaveRoutine::stepPersistDirectory()
{
    // Between the flush and the marker: every region at or above the
    // cut is now in NVRAM, so checksum it there and persist the
    // salvage directory. The marker then binds the directory's
    // checksum — a restore can trust the table exactly as far as it
    // trusts the marker.
    const Tick start = queue_.now();
    const Tick cost = directoryCost(tierCut_);
    queue_.scheduleAfter(cost, [this, start] {
        if (!machine_.powerOn())
            return;
        report_.directoryChecksum =
            directory_->persist(machine_.memory(), bootSequence_, tierCut_);
        record("checksum and persist salvage directory", start,
               queue_.now());
        stepMarkerPrepare();
    });
}

Tick
SaveRoutine::directoryCost(SaveTier cut) const
{
    if (directory_ == nullptr || directory_->empty())
        return 0;
    const double crc_seconds =
        static_cast<double>(directory_->savedBytes(cut)) /
        config_.salvageCrcBandwidth;
    return fromSeconds(crc_seconds) +
           machine_.socketCache(0).clflushLoopCost(
               SalvageDirectory::directoryLines());
}

void
SaveRoutine::stepMarkerPrepare()
{
    const Tick start = queue_.now();
    // Header line + marker field line: two line flushes.
    const Tick cost = machine_.socketCache(0).clflushLoopCost(2);
    queue_.scheduleAfter(cost, [this, start] {
        if (!machine_.powerOn())
            return;
        resumeBlock_.writeHeader(bootSequence_);
        marker_.prepare(bootSequence_,
                        resumeBlock_.checksum(machine_.memory()),
                        report_.directoryChecksum,
                        static_cast<uint64_t>(tierCut_));
        record("set up resume block", start, queue_.now());
        stepMarkerStamp();
    });
}

void
SaveRoutine::stepMarkerStamp()
{
    const Tick start = queue_.now();
    const Tick cost = machine_.socketCache(0).clflushLoopCost(1);
    report_.markerTime = cost;
    queue_.scheduleAfter(cost, [this, start] {
        if (!machine_.powerOn())
            return;
        marker_.stamp();
        trace::frEmit(recorder_, trace::FrEvent::SaveMarkerStamp,
                      trace::Category::Core, bootSequence_,
                      static_cast<uint64_t>(tierCut_));
        record("mark image as valid", start, queue_.now());
        if (config_.saveOrder != SaveOrder::MarkerBeforeFlush)
            stepInitiateNvdimmSave();
        else if (degraded_)
            stepDegradedFlush();
        else
            stepFinishFlush();
    });
}

void
SaveRoutine::stepInitiateNvdimmSave()
{
    const Tick start = queue_.now();
    queue_.scheduleAfter(config_.commandIssueLatency, [this, start] {
        if (!machine_.powerOn())
            return;
        // The command rides the I2C bus; the NVDIMMs take it from
        // here on their own power. The black-box record goes in
        // write-ahead: once a module starts saving it stops accepting
        // host writes, so this is the last record guaranteed to reach
        // the ring before the machine goes dark.
        trace::frEmit(recorder_, trace::FrEvent::SaveNvdimmInitiate,
                      trace::Category::Nvram,
                      nvdimms_ != nullptr ? nvdimms_->modules().size() : 0,
                      degraded_ ? 1 : 0);
        monitor_.sendCommand(PowerMonitor::Command::Save);
        record("initiate NVDIMM save", start, queue_.now());

        if (degraded_ && nvdimms_ != nullptr) {
            // Degraded saves assume the worst of the I2C path too:
            // stay awake one backoff, and if no module acknowledged
            // the command by starting its save, issue it once more
            // before halting.
            const uint64_t saves_before = nvdimms_->totalSavesCompleted();
            queue_.scheduleAfter(
                config_.saveCommandRetryBackoff, [this, saves_before] {
                    if (!machine_.powerOn())
                        return;
                    if (!nvdimms_->anySaving() &&
                        nvdimms_->totalSavesCompleted() == saves_before) {
                        const Tick retry_start = queue_.now();
                        ++report_.saveCommandRetries;
                        static trace::Counter &retries =
                            trace::StatRegistry::instance().counter(
                                "core.save_command_retries");
                        retries.add();
                        trace::frEmit(recorder_,
                                      trace::FrEvent::SaveCommandRetry,
                                      trace::Category::Nvram,
                                      report_.saveCommandRetries, 0);
                        monitor_.sendCommand(PowerMonitor::Command::Save);
                        record("retry NVDIMM save command", retry_start,
                               queue_.now());
                    }
                    stepHalt();
                });
            return;
        }
        stepHalt();
    });
}

void
SaveRoutine::stepHalt()
{
    // Step 8: the control processor halts.
    machine_.core(0).halted = true;
    trace::frEmit(recorder_, trace::FrEvent::SaveHalt,
                  trace::Category::Core, machine_.coreCount(), 0);
    record("halt control processor", queue_.now(), queue_.now());
    report_.halted = queue_.now();
    report_.completed = true;
    static trace::Counter &saves_completed =
        trace::StatRegistry::instance().counter("core.saves_completed");
    static trace::Gauge &total_ns =
        trace::StatRegistry::instance().gauge("core.save.total_ns");
    saves_completed.add();
    total_ns.set(static_cast<double>(report_.halted - report_.started));
    if (done_)
        done_(report_);
}

Tick
SaveRoutine::predictDuration() const
{
    Tick total = machine_.interrupts().ipiLatency();
    total += machine_.spec().contextSaveLatency;
    // Slot flushes: one context's worth of clflushes.
    const uint64_t slot_lines =
        (CpuContext::serializedSize() + CacheModel::kLineSize - 1) /
        CacheModel::kLineSize;
    total += machine_.socketCache(0).clflushLoopCost(slot_lines);

    Tick worst = 0;
    for (unsigned socket = 0; socket < machine_.socketCount(); ++socket) {
        const Tick cost =
            config_.parallelFlush
                ? machine_.socketCache(socket).parallelFlushCost(
                      flushWorkers(socket))
                : flushCost(socket);
        worst = std::max(worst, cost);
    }
    total += worst;

    total += directoryCost(SaveTier::Bulk);
    // Header + marker lines + command issue.
    total += machine_.socketCache(0).clflushLoopCost(3);
    total += config_.commandIssueLatency;
    return total;
}

} // namespace wsp
