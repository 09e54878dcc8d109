/**
 * @file
 * The crash workload's op-stream driver: one pending event per stream.
 *
 * The conditions battery's KV workload is a pre-drawn stream of
 * operations, each with two dispatch slots: slot 2i fires at
 * t0 + (i+1) * opSpacing and slot 2i+1 ackDelay later, where t0 is the
 * tick the stream started. Apply-then-ack fills them with (apply,
 * respond); the planted ack-before-apply bug with (respond, apply).
 *
 * Rather than scheduling all 2 x ops slot events up front, the driver
 * keeps exactly one pending: each slot fires its action and re-arms
 * the next slot at that slot's absolute tick. Every slot fires under a
 * sequence number reserved when the stream started
 * (EventQueue::reserve), so each equal-tick tie with the rest of the
 * simulation — the PSU failure that lands on an op slot, a save step,
 * a train cycle's restore — resolves exactly as the up-front schedule
 * resolved it: same dispatch instants, same enumerated crash windows,
 * same verdicts and surviving images. Slots keep dispatching (as
 * no-ops) while the machine is dark, so the enumeration is unchanged.
 *
 * Lifetime rule: the pending event holds raw pointers to the driver,
 * its checker and the system, so no dispatch may happen on the system
 * after the checker that owns the driver is destroyed. runSchedule,
 * enumerateCrashPoints and perfbench's replay all destroy the checkers
 * before the systems and dispatch nothing in between; destroying the
 * system's queue just drops the pending closure unfired.
 */

#pragma once

#include <cstdint>

#include "core/system.h"
#include "crashsim/crash_schedule.h"

namespace wsp::crashsim {

namespace conditions {
class KvConditionsChecker;
} // namespace conditions

/** Fires a KV checker's operation stream, one pending event at a time. */
class OpStreamDriver
{
  public:
    OpStreamDriver() = default;
    OpStreamDriver(const OpStreamDriver &) = delete;
    OpStreamDriver &operator=(const OpStreamDriver &) = delete;

    /**
     * Reserve the stream's 2 x schedule.ops slots on @p system's queue,
     * starting now, and arm the first. Call once per system.
     */
    void start(conditions::KvConditionsChecker &checker, WspSystem &system,
               const CrashSchedule &schedule);

  private:
    /** Absolute dispatch tick of @p slot. */
    Tick slotTick(uint64_t slot) const;

    /** Schedule slot next_ under its reserved sequence number. */
    void armNext();

    /** Run slot next_'s action, then re-arm the following slot. */
    void fire();

    conditions::KvConditionsChecker *checker_ = nullptr;
    WspSystem *system_ = nullptr;
    Tick t0_ = 0;
    Tick opSpacing_ = 0;
    Tick ackDelay_ = 0;
    bool ackBeforeApply_ = false;
    uint64_t firstSeq_ = 0; ///< sequence number reserved for slot 0
    uint64_t next_ = 0;     ///< cursor: the slot armed or firing
    uint64_t slots_ = 0;    ///< 2 x ops
};

} // namespace wsp::crashsim
