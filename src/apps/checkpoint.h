/**
 * @file
 * Periodic checkpointing to the storage back end.
 *
 * Paper section 3.2: WSP is combined with a block-based back end —
 * "applications can periodically checkpoint their state to a file" —
 * so NVRAM handles power failures instantly while severe failures
 * (dead server, corrupted state) fall back to checkpoint + log
 * recovery. CheckpointScheduler drives that tier for a KvStore on the
 * simulated event queue: full checkpoints every period, updates
 * shipped to the back-end log in small batches with a bounded
 * shipping lag (the tail that a destroyed server loses).
 */

#pragma once

#include <vector>

#include "apps/backend_store.h"
#include "sim/sim_object.h"

namespace wsp::apps {

/** Checkpoint/shipping cadence. */
struct CheckpointConfig
{
    Tick checkpointPeriod = fromSeconds(60.0);
    Tick shipInterval = fromMillis(100.0);
};

/** Event-driven checkpoint + log-shipping driver. */
class CheckpointScheduler : public SimObject
{
  public:
    CheckpointScheduler(EventQueue &queue, KvStore &store,
                        BackendStore &backend,
                        CheckpointConfig config = {});

    const CheckpointConfig &config() const { return config_; }

    /** Begin the periodic cycle (takes an immediate checkpoint). */
    void start();

    /** Stop scheduling further work (e.g. power failed). */
    void stop();

    /**
     * Record an application update; it reaches the back-end log at
     * the next shipping tick.
     */
    void noteUpdate(const BackendLogEntry &entry);

    /** Force the pending batch out now (synchronous ship). */
    void shipNow();

    /** Updates recorded but not yet shipped (lost if the server
     *  vanishes right now). */
    size_t unshippedUpdates() const { return pending_.size(); }

    uint64_t checkpointsTaken() const { return checkpointsTaken_; }

  private:
    void checkpointTick();
    void shipTick();

    KvStore &store_;
    BackendStore &backend_;
    CheckpointConfig config_;
    std::vector<BackendLogEntry> pending_;
    bool running_ = false;
    uint64_t checkpointsTaken_ = 0;
};

} // namespace wsp::apps
