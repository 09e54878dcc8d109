#include "nvram/controller.h"

#include <algorithm>

#include "util/logging.h"

namespace wsp {

NvdimmController::NvdimmController(EventQueue &queue)
    : SimObject(queue, "nvdimm-controller")
{
}

void
NvdimmController::attach(NvdimmModule &module)
{
    modules_.push_back(&module);
}

void
NvdimmController::armAll()
{
    for (auto *module : modules_)
        module->arm();
}

void
NvdimmController::disarmAll()
{
    for (auto *module : modules_)
        module->disarm();
}

void
NvdimmController::saveAll()
{
    WSP_CHECKF(!modules_.empty(), "saveAll with no modules attached");
    for (auto *module : modules_) {
        // A module without host power cannot process bus commands: it
        // either already ran its hardware-triggered save (flash holds
        // the image, DRAM is powered down and decayed) or is saving
        // from its ultracap right now. Programming decayed DRAM over
        // a good image would destroy it — the real hardware simply
        // never sees the command.
        if (!module->hostPowered())
            continue;
        if (module->state() == NvdimmState::Active)
            module->enterSelfRefresh();
        if (module->state() == NvdimmState::SelfRefresh)
            module->startSave();
    }
}

void
NvdimmController::restoreAll(std::function<void()> done)
{
    WSP_CHECKF(!modules_.empty(), "restoreAll with no modules attached");
    WSP_CHECKF(allFlashValid(),
               "restoreAll with an invalid flash image present");
    for (auto *module : modules_) {
        if (module->state() == NvdimmState::Active)
            module->enterSelfRefresh();
        module->startRestore();
    }
    // Modules restore in parallel; the slowest bounds the barrier.
    queue_.scheduleAfter(maxRestoreDuration() + 1,
                         [this, done = std::move(done)] {
        for (auto *module : modules_) {
            WSP_CHECKF(module->state() == NvdimmState::SelfRefresh,
                       "%s: unexpected state %s after restore barrier",
                       module->name().c_str(),
                       nvdimmStateName(module->state()).c_str());
            module->exitSelfRefresh();
        }
        if (done)
            done();
    });
}

void
NvdimmController::restoreAvailable(std::function<void()> done)
{
    WSP_CHECKF(!modules_.empty(),
               "restoreAvailable with no modules attached");
    WSP_CHECKF(anyRestorable(),
               "restoreAvailable with no flash content anywhere");
    Tick worst = 0;
    for (auto *module : modules_) {
        if (!module->flashRestorable())
            continue;
        if (module->state() == NvdimmState::Active)
            module->enterSelfRefresh();
        module->startRestore();
        worst = std::max(worst, module->restoreDuration());
    }
    queue_.scheduleAfter(worst + 1, [this, done = std::move(done)] {
        for (auto *module : modules_) {
            if (module->state() == NvdimmState::SelfRefresh)
                module->exitSelfRefresh();
        }
        if (done)
            done();
    });
}

bool
NvdimmController::anyRestorable() const
{
    return std::any_of(modules_.begin(), modules_.end(),
                       [](const NvdimmModule *m) {
        return m->flashRestorable();
    });
}

bool
NvdimmController::anySaving() const
{
    return std::any_of(modules_.begin(), modules_.end(),
                       [](const NvdimmModule *m) {
        return m->state() == NvdimmState::Saving;
    });
}

uint64_t
NvdimmController::totalSavesCompleted() const
{
    uint64_t total = 0;
    for (const auto *module : modules_)
        total += module->savesCompleted();
    return total;
}

void
NvdimmController::publishEpoch(uint64_t epoch)
{
    for (auto *module : modules_)
        module->setEpoch(epoch);
}

uint64_t
NvdimmController::currentEpoch() const
{
    uint64_t epoch = 0;
    for (const auto *module : modules_)
        epoch = std::max(epoch, module->epoch());
    return epoch;
}

bool
NvdimmController::allFlashValid() const
{
    return std::all_of(modules_.begin(), modules_.end(),
                       [](const NvdimmModule *m) { return m->flashValid(); });
}

bool
NvdimmController::allIdle() const
{
    return std::none_of(modules_.begin(), modules_.end(),
                        [](const NvdimmModule *m) { return m->busy(); });
}

bool
NvdimmController::anySaveFailed() const
{
    return std::any_of(modules_.begin(), modules_.end(),
                       [](const NvdimmModule *m) {
        return m->state() == NvdimmState::SaveFailed;
    });
}

Tick
NvdimmController::maxRestoreDuration() const
{
    Tick worst = 0;
    for (const auto *module : modules_)
        worst = std::max(worst, module->restoreDuration());
    return worst;
}

void
NvdimmController::resetToActive()
{
    for (auto *module : modules_) {
        WSP_CHECKF(!module->busy(), "%s: resetToActive while busy",
                   module->name().c_str());
        if (module->state() == NvdimmState::SelfRefresh)
            module->exitSelfRefresh();
    }
}

void
NvdimmController::hostPowerLost()
{
    for (auto *module : modules_)
        module->hostPowerLost();
}

void
NvdimmController::hostPowerRestored()
{
    for (auto *module : modules_)
        module->hostPowerRestored();
}

PowerMonitor::CommandSink
NvdimmController::commandSink()
{
    return [this](PowerMonitor::Command command) {
        switch (command) {
          case PowerMonitor::Command::Save:
            saveAll();
            break;
          case PowerMonitor::Command::Restore:
            restoreAll(nullptr);
            break;
          case PowerMonitor::Command::Arm:
            armAll();
            break;
          case PowerMonitor::Command::Disarm:
            disarmAll();
            break;
        }
    };
}

} // namespace wsp
