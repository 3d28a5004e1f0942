#include "dram/system.h"

#include <algorithm>

#include "common/logging.h"

namespace codic {

DramSystem::DramSystem(const DramConfig &config,
                       const ControllerConfig &controller_config)
    : config_(config), map_(config, controller_config.map_scheme)
{
    config_.validate();
    while ((1 << channel_bits_) < config_.channels)
        ++channel_bits_;
    channels_.reserve(static_cast<size_t>(config_.channels));
    controllers_.reserve(static_cast<size_t>(config_.channels));
    for (int c = 0; c < config_.channels; ++c) {
        channels_.push_back(
            std::make_unique<DramChannel>(config_, c));
        controllers_.push_back(std::make_unique<MemoryController>(
            *channels_.back(), controller_config));
    }
}

DramChannel &
DramSystem::channel(int i)
{
    CODIC_ASSERT(i >= 0 && i < channelCount());
    return *channels_[static_cast<size_t>(i)];
}

const DramChannel &
DramSystem::channel(int i) const
{
    CODIC_ASSERT(i >= 0 && i < channelCount());
    return *channels_[static_cast<size_t>(i)];
}

MemoryController &
DramSystem::controller(int i)
{
    CODIC_ASSERT(i >= 0 && i < channelCount());
    return *controllers_[static_cast<size_t>(i)];
}

void
DramSystem::onComplete(Ticket ticket, CompletionCallback fn)
{
    // The consumer registered against the system ticket, so the
    // channel-local firing re-translates before invoking.
    controllers_[ticketChannel(ticket)]->onComplete(
        ticketLocal(ticket),
        [fn = std::move(fn), ticket](Ticket, Cycle done) {
            fn(ticket, done);
        });
}

size_t
DramSystem::poll(Cycle now)
{
    size_t serviced = 0;
    for (auto &mc : controllers_)
        serviced += mc->poll(now);
    return serviced;
}

Cycle
DramSystem::drainAll()
{
    Cycle last = 0;
    for (auto &mc : controllers_)
        last = std::max(last, mc->drainAll());
    return last;
}

size_t
DramSystem::inFlightCount() const
{
    size_t n = 0;
    for (const auto &mc : controllers_)
        n += mc->inFlightCount();
    return n;
}

size_t
DramSystem::pendingWriteCount() const
{
    size_t n = 0;
    for (const auto &mc : controllers_)
        n += mc->pendingWriteCount();
    return n;
}

int
DramSystem::registerVariantAll(const SignalSchedule &sched)
{
    int id = -1;
    for (auto &ch : channels_) {
        const int got = ch->registerVariant(sched);
        if (id < 0)
            id = got;
        else
            CODIC_ASSERT(got == id);
    }
    return id;
}

std::vector<CommandCounts>
DramSystem::perChannelCounts() const
{
    std::vector<CommandCounts> out;
    out.reserve(channels_.size());
    for (const auto &ch : channels_)
        out.push_back(ch->counts());
    return out;
}

std::vector<BankCounts>
DramSystem::perBankCounts() const
{
    std::vector<BankCounts> out;
    out.reserve(channels_.size() *
                static_cast<size_t>(config_.ranks * config_.banks));
    for (const auto &ch : channels_)
        for (const BankCounts &b : ch->counts().per_bank)
            out.push_back(b);
    return out;
}

CommandCounts
DramSystem::totalCounts() const
{
    CommandCounts total;
    for (const auto &ch : channels_)
        total += ch->counts();
    return total;
}

std::vector<OriginCounts>
DramSystem::perOriginCounts() const
{
    // Every channel's roll-ups, sorted by origin tag, then each run of
    // one origin summed into its first entry. The sums and maxima do
    // not depend on order, so neither does the result on how
    // submissions interleaved across channels.
    std::vector<OriginCounts> all;
    for (const auto &ctl : controllers_) {
        const std::vector<OriginCounts> counts = ctl->originCounts();
        all.insert(all.end(), counts.begin(), counts.end());
    }
    std::sort(all.begin(), all.end(),
              [](const OriginCounts &a, const OriginCounts &b) {
                  return a.origin < b.origin;
              });
    std::vector<OriginCounts> out;
    for (const OriginCounts &oc : all) {
        if (out.empty() || out.back().origin != oc.origin)
            out.push_back(oc);
        else
            out.back() += oc;
    }
    return out;
}

Cycle
DramSystem::lastIssueCycle() const
{
    Cycle last = 0;
    for (const auto &ch : channels_)
        last = std::max(last, ch->lastIssueCycle());
    return last;
}

void
DramSystem::fillAllRows(RowDataState s)
{
    for (auto &ch : channels_)
        ch->fillAllRows(s);
}

int64_t
DramSystem::countRowsInState(RowDataState s) const
{
    int64_t n = 0;
    for (const auto &ch : channels_)
        n += ch->countRowsInState(s);
    return n;
}

} // namespace codic
