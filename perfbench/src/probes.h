/**
 * @file
 * Forwarding decorators over the library's public layer interfaces,
 * used by traced runs only. Each forwards every call unchanged and
 * adds the call to a count plus summed ticks (never one record per
 * call), so a traced pass produces the same modeled output as an
 * untraced one. Not thread-safe: traced runs use one engine thread.
 */

#ifndef PERFBENCH_PROBES_H
#define PERFBENCH_PROBES_H

#include <memory>
#include <utility>

#include "fleet/enrollment_store.h"
#include "harness.h"
#include "mem/service.h"
#include "puf/puf.h"

namespace perfbench {

/**
 * Counts every call of the transaction API between the cores and
 * DramSystem and times a random sample of them. A tick read costs
 * ~20 ns on a virtualized host and a secdealloc_mix pass crosses this
 * boundary ~19M times; timing every call slowed the pass by ~40%.
 * Each sampled call's ticks are weighted by the inverse sampling rate,
 * so span ticks estimate the full totals while call counts stay exact.
 */
class TracedMemory : public codic::MemoryService
{
  public:
    /** @param sample_every Time one call in this many (>= 1). */
    TracedMemory(codic::MemoryService &inner, uint64_t sample_every)
        : inner_(inner), every_(sample_every)
    {
    }

    Span submit_span; //!< submit()
    /** completionOf(), acceptedAt() and drainAll(): the calls a caller
     * blocks on until queued work has been scheduled. */
    mutable Span completion_span;
    Span retire_span; //!< retire()

    /** Estimated ticks of every call so far. */
    uint64_t
    totalTicks() const
    {
        return submit_span.ticks + completion_span.ticks +
               retire_span.ticks;
    }

    codic::Ticket
    submit(const codic::MemTransaction &txn) override
    {
        return measure(submit_span, every_,
                       [&] { return inner_.submit(txn); });
    }

    codic::Cycle
    acceptedAt(codic::Ticket ticket) const override
    {
        return measure(completion_span, every_,
                       [&] { return inner_.acceptedAt(ticket); });
    }

    codic::Cycle
    completionOf(codic::Ticket ticket) override
    {
        return measure(completion_span, every_,
                       [&] { return inner_.completionOf(ticket); });
    }

    void
    retire(codic::Ticket ticket) override
    {
        measure(retire_span, every_, [&] {
            inner_.retire(ticket);
            return 0;
        });
    }

    /** Timed on every call: it runs once per simulation. */
    codic::Cycle
    drainAll() override
    {
        return measure(completion_span, 1,
                       [&] { return inner_.drainAll(); });
    }

    void
    onComplete(codic::Ticket ticket, codic::CompletionCallback fn) override
    {
        inner_.onComplete(ticket, std::move(fn));
    }

    size_t poll(codic::Cycle now) override { return inner_.poll(now); }

    size_t inFlightCount() const override { return inner_.inFlightCount(); }

    const codic::AddressMap &map() const override { return inner_.map(); }

    const codic::DramConfig &
    dramConfig() const override
    {
        return inner_.dramConfig();
    }

  private:
    template <typename Call>
    auto
    measure(Span &span, uint64_t every, Call &&call) const
        -> decltype(call())
    {
        ++span.calls;
        sampler_ ^= sampler_ << 13; // xorshift64
        sampler_ ^= sampler_ >> 7;
        sampler_ ^= sampler_ << 17;
        if (every > 1 && sampler_ % every != 0)
            return call();
        const uint64_t t0 = ticks();
        auto result = call();
        span.ticks += elapsedTicks(t0) * every;
        return result;
    }

    codic::MemoryService &inner_;
    uint64_t every_;
    mutable uint64_t sampler_ = 0x9E3779B97F4A7C15ull;
};

/** Times production-filtered evaluations of one PUF. */
class TracedPuf : public codic::DramPuf
{
  public:
    explicit TracedPuf(const codic::DramPuf &inner) : inner_(inner) {}

    mutable Span eval_span; //!< evaluate() and evaluateFiltered()

    const char *name() const override { return inner_.name(); }

    codic::Response
    evaluate(const codic::SimulatedChip &chip,
             const codic::Challenge &challenge,
             const codic::QueryEnv &env) const override
    {
        const uint64_t t0 = ticks();
        codic::Response r = inner_.evaluate(chip, challenge, env);
        record(t0);
        return r;
    }

    codic::Response
    evaluateFiltered(const codic::SimulatedChip &chip,
                     const codic::Challenge &challenge,
                     const codic::QueryEnv &env) const override
    {
        const uint64_t t0 = ticks();
        codic::Response r = inner_.evaluateFiltered(chip, challenge, env);
        record(t0);
        return r;
    }

    int
    passesPerEvaluation(bool filtered) const override
    {
        return inner_.passesPerEvaluation(filtered);
    }

  private:
    void
    record(uint64_t t0) const
    {
        ++eval_span.calls;
        eval_span.ticks += elapsedTicks(t0);
    }

    const codic::DramPuf &inner_;
};

/** Times the enrollment-store calls AuthService makes. */
class TracedStore : public codic::EnrollmentBackend
{
  public:
    explicit TracedStore(codic::EnrollmentBackend &inner) : inner_(inner) {}

    mutable Span lookup_span;   //!< lookup()
    Span put_span;              //!< put()
    mutable Span contains_span; //!< contains()

    uint64_t populationSeed() const override
    {
        return inner_.populationSeed();
    }

    size_t size() const override { return inner_.size(); }

    void
    put(uint64_t device_id, const codic::Challenge &challenge,
        const codic::Response &signature) override
    {
        const uint64_t t0 = ticks();
        inner_.put(device_id, challenge, signature);
        record(put_span, t0);
    }

    bool
    contains(uint64_t device_id) const override
    {
        const uint64_t t0 = ticks();
        const bool known = inner_.contains(device_id);
        record(contains_span, t0);
        return known;
    }

    std::shared_ptr<const codic::Response>
    lookup(uint64_t device_id) const override
    {
        const uint64_t t0 = ticks();
        auto r = inner_.lookup(device_id);
        record(lookup_span, t0);
        return r;
    }

    size_t cacheCapacity() const override { return inner_.cacheCapacity(); }
    uint64_t cacheHits() const override { return inner_.cacheHits(); }
    uint64_t cacheMisses() const override { return inner_.cacheMisses(); }

  private:
    static void
    record(Span &span, uint64_t t0)
    {
        ++span.calls;
        span.ticks += elapsedTicks(t0);
    }

    codic::EnrollmentBackend &inner_;
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_H
