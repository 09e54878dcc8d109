#include "crashsim/op_stream_driver.h"

#include "crashsim/conditions/kv_conditions.h"
#include "util/logging.h"

namespace wsp::crashsim {

void
OpStreamDriver::start(conditions::KvConditionsChecker &checker,
                      WspSystem &system, const CrashSchedule &schedule)
{
    checker_ = &checker;
    system_ = &system;
    EventQueue &queue = system.queue();
    t0_ = queue.now();
    opSpacing_ = schedule.opSpacing;
    ackDelay_ = schedule.ackDelay;
    ackBeforeApply_ = schedule.ackBeforeApply;
    next_ = 0;
    slots_ = uint64_t{2} * schedule.ops;
    // Reserve every slot's place in the dispatch order now, exactly
    // where the up-front schedule's events used to be numbered.
    firstSeq_ = queue.reserve(slots_);
    if (slots_ == 0)
        return;
    const Tick horizon = kTickNever - t0_;
    WSP_CHECKF(ackDelay_ <= horizon &&
                   opSpacing_ <= (horizon - ackDelay_) / schedule.ops,
               "op stream runs past the end of simulated time");
    armNext();
}

Tick
OpStreamDriver::slotTick(uint64_t slot) const
{
    const Tick invoke = t0_ + (slot / 2 + 1) * opSpacing_;
    return slot % 2 == 0 ? invoke : invoke + ackDelay_;
}

void
OpStreamDriver::armNext()
{
    system_->queue().scheduleReserved(slotTick(next_), firstSeq_ + next_,
                                      [this]() { fire(); });
}

void
OpStreamDriver::fire()
{
    const uint64_t slot = next_;
    const auto op = static_cast<unsigned>(slot / 2);
    // The first slot of an op applies it, unless the planted bug
    // acknowledges first and mutates later.
    if ((slot % 2 == 0) != ackBeforeApply_)
        checker_->applyOp(*system_, op);
    else
        checker_->respondOp(*system_, op);
    if (++next_ < slots_)
        armNext();
}

} // namespace wsp::crashsim
