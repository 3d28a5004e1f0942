#include "sim/engine.h"

#include <algorithm>

#include "common/logging.h"

namespace codic {

void
TickEngine::add(TickProducer *producer)
{
    CODIC_ASSERT(producer != nullptr);
    producers_.push_back(producer);
}

void
TickEngine::setEpoch(Cycle epoch_cycles,
                     std::function<void(Cycle)> hook)
{
    CODIC_ASSERT(epoch_cycles >= 0);
    epoch_cycles_ = epoch_cycles;
    next_epoch_ = epoch_cycles;
    epoch_hook_ = std::move(hook);
}

Cycle
TickEngine::run()
{
    stepEarliestFirst(
        producers_.size(),
        [&](size_t i) { return !producers_[i]->done(); },
        [&](size_t i) { return producers_[i]->nextNs(); },
        [&](size_t i) {
            TickProducer &p = *producers_[i];
            const Cycle at = p.nextCycle();
            // Cross every epoch boundary at or before the next
            // action: poll the service to the boundary (services
            // arrived work, fires completion callbacks), then sample
            // via the hook.
            while (epoch_cycles_ > 0 && next_epoch_ <= at) {
                mem_.poll(next_epoch_);
                if (epoch_hook_)
                    epoch_hook_(next_epoch_);
                ++epochs_fired_;
                next_epoch_ += epoch_cycles_;
            }
            now_ = std::max(now_, at);
            p.tick();
        });
    const Cycle quiescent = mem_.drainAll();
    now_ = std::max(now_, quiescent);
    if (epoch_cycles_ > 0) {
        // Closing boundary: the partial tail epoch is sampled at the
        // quiescent cycle so no activity escapes the accounting.
        if (epoch_hook_)
            epoch_hook_(now_);
        ++epochs_fired_;
        next_epoch_ = now_ + epoch_cycles_;
    }
    return now_;
}

void
CallbackReadSource::tick()
{
    CODIC_ASSERT(!done());
    const Ticket t = mem_.submit(
        MemTransaction::makeRead(addr_, next_, /*origin=*/addr_));
    const Cycle arrival = next_;
    // The callback only records; re-entering the service from a
    // callback is forbidden (onComplete contract).
    mem_.onComplete(t, [this, arrival](Ticket, Cycle done) {
        ++completed_;
        last_completion_ = std::max(last_completion_, done);
        total_latency_ += done - arrival;
    });
    addr_ += stride_;
    ++issued_;
    next_ += gap_;
}

void
StormSource::tick()
{
    CODIC_ASSERT(!done());
    const Ticket t = mem_.submit(
        MemTransaction::makeWrite(base_ + offset_, next_,
                                  /*origin=*/base_));
    mem_.onComplete(t, [this](Ticket, Cycle done) {
        ++completed_;
        last_completion_ = std::max(last_completion_, done);
    });
    offset_ += 64;
    if (offset_ >= bytes_)
        offset_ = 0;
    ++issued_;
    next_ += gap_ * gap_multiplier_;
}

} // namespace codic
