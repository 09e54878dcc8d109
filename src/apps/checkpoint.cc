#include "apps/checkpoint.h"

namespace wsp::apps {

CheckpointScheduler::CheckpointScheduler(EventQueue &queue, KvStore &store,
                                         BackendStore &backend,
                                         CheckpointConfig config)
    : SimObject(queue, "checkpoint-scheduler"), store_(store),
      backend_(backend), config_(config)
{
}

void
CheckpointScheduler::start()
{
    if (running_)
        return;
    running_ = true;
    checkpointTick();
    queue_.scheduleAfter(config_.shipInterval, [this] { shipTick(); });
}

void
CheckpointScheduler::stop()
{
    running_ = false;
}

void
CheckpointScheduler::noteUpdate(const BackendLogEntry &entry)
{
    pending_.push_back(entry);
}

void
CheckpointScheduler::shipNow()
{
    for (const BackendLogEntry &entry : pending_)
        backend_.logUpdate(entry);
    pending_.clear();
}

void
CheckpointScheduler::checkpointTick()
{
    if (!running_)
        return;
    // A checkpoint subsumes the shipped log and any pending batch.
    shipNow();
    backend_.checkpoint(store_);
    ++checkpointsTaken_;
    queue_.scheduleAfter(config_.checkpointPeriod,
                         [this] { checkpointTick(); });
}

void
CheckpointScheduler::shipTick()
{
    if (!running_)
        return;
    shipNow();
    queue_.scheduleAfter(config_.shipInterval, [this] { shipTick(); });
}

} // namespace wsp::apps
