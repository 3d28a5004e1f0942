/**
 * @file
 * Tick-driven co-simulation core: one discrete-event loop advancing
 * any number of request producers against a shared MemoryService, in
 * the dramsim3 frontend style (submit without blocking, learn
 * completions through callbacks, tick in global-time order).
 *
 * Every interleave in the simulator follows one rule, written once
 * in stepEarliestFirst(): step the live producer with the smallest
 * key, ties to the lower index, so the interleave - and every byte
 * of downstream output - is a pure function of the producer set,
 * never of the host's thread count. The TickEngine runs it over
 * TickProducers and adds epoch boundaries that fire a hook for the
 * thermal feedback loop (thermal/thermal_model.h); the secure-dealloc
 * cores (secdealloc/evaluate.cc) and the fleet's replay slices
 * (fleet/auth_service.cc) run it directly over their own cores and
 * cursors.
 *
 * Producers come in two styles:
 *  - blocking consumers wrapped as producers (CoreProducer): the
 *    wrapped InOrderCore still blocks inside one step, but steps of
 *    different cores interleave in exact local-time order, as the
 *    secure-dealloc multi-core runs step them;
 *  - callback consumers (CallbackReadSource, StormSource): submit at
 *    their own pace and observe completions via
 *    MemoryService::onComplete, never blocking. Callbacks must not
 *    re-enter the service (see onComplete contract): they record the
 *    event, and the producer acts on its next tick.
 */

#ifndef CODIC_SIM_ENGINE_H
#define CODIC_SIM_ENGINE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "mem/service.h"
#include "sim/core.h"

namespace codic {

/**
 * The earliest-first rule: while any of the `n` entries is live,
 * step the live entry with the smallest key; equal keys go to the
 * lower index. `live(i)`, `key(i)` and `step(i)` are inline
 * callables, and every live key is re-read before each step.
 */
template <typename Live, typename Key, typename Step>
void
stepEarliestFirst(size_t n, Live &&live, Key &&key, Step &&step)
{
    while (true) {
        size_t pick = n;
        decltype(key(pick)) best{};
        for (size_t i = 0; i < n; ++i) {
            if (!live(i))
                continue;
            const auto k = key(i);
            if (pick == n || k < best) {
                pick = i;
                best = k;
            }
        }
        if (pick == n)
            return;
        step(pick);
    }
}

/** One request producer advanced by the TickEngine. */
class TickProducer
{
  public:
    virtual ~TickProducer() = default;

    /** True when the producer has no further work. */
    virtual bool done() const = 0;

    /** Local time of the next action in ns: the ordering key. */
    virtual double nextNs() const = 0;

    /** DRAM cycle of the next action (epochs cross up to it). */
    virtual Cycle nextCycle() const = 0;

    /** Perform the next action (may submit transactions). */
    virtual void tick() = 0;
};

/**
 * Discrete-event loop over N producers and one MemoryService.
 *
 * run() ticks producers by stepEarliestFirst() over nextNs()
 * (registration order breaks ties), polls the service at every epoch
 * boundary, fires the epoch hook, and finishes with a drainAll().
 * Fully serial: byte-determinism at any --threads value is
 * structural, not a property to re-verify per scenario.
 */
class TickEngine
{
  public:
    explicit TickEngine(MemoryService &mem) : mem_(mem) {}

    /** Register a producer (not owned; must outlive run()). */
    void add(TickProducer *producer);

    /**
     * Fire `hook(epoch_end_cycle)` every `epoch_cycles`, after the
     * service has been polled to the boundary - the thermal loop's
     * sampling point. Must be set before run(); 0 disables.
     */
    void setEpoch(Cycle epoch_cycles, std::function<void(Cycle)> hook);

    /**
     * Run until every producer is done, then drain the service.
     * When an epoch hook is set, one final boundary fires after the
     * drain so the tail activity is never lost.
     * @return The quiescent cycle.
     */
    Cycle run();

    /** Current global time (last ticked producer's cycle). */
    Cycle now() const { return now_; }

    /** Epochs fired so far. */
    uint64_t epochsFired() const { return epochs_fired_; }

  private:
    MemoryService &mem_;
    std::vector<TickProducer *> producers_;
    Cycle now_ = 0;
    Cycle epoch_cycles_ = 0;
    Cycle next_epoch_ = 0;
    uint64_t epochs_fired_ = 0;
    std::function<void(Cycle)> epoch_hook_;
};

/**
 * An InOrderCore stepped as a TickEngine producer, keyed by its exact
 * local time, so cores interleave as runMultiCore steps them.
 */
class CoreProducer : public TickProducer
{
  public:
    explicit CoreProducer(InOrderCore &core) : core_(core) {}

    bool done() const override { return core_.done(); }
    double nextNs() const override { return core_.timeNs(); }
    Cycle nextCycle() const override { return core_.nowCycles(); }
    void tick() override { core_.step(); }

  private:
    InOrderCore &core_;
};

/**
 * Callback-based read stream: submits one read every `gap` cycles
 * over a strided address pattern and observes completions through
 * MemoryService::onComplete - the non-blocking consumer pattern the
 * equivalence tests compare against the blocking shim.
 */
class CallbackReadSource : public TickProducer
{
  public:
    CallbackReadSource(MemoryService &mem, uint64_t base_addr,
                       uint64_t stride, uint64_t count, Cycle gap,
                       Cycle start = 0)
        : mem_(mem), addr_(base_addr), stride_(stride), count_(count),
          gap_(gap), next_(start)
    {
    }

    bool done() const override { return issued_ >= count_; }
    double nextNs() const override
    {
        return mem_.dramConfig().cyclesToNs(next_);
    }
    Cycle nextCycle() const override { return next_; }
    void tick() override;

    /** Completions observed so far (callbacks fired). */
    uint64_t completed() const { return completed_; }

    /** Largest completion cycle observed. */
    Cycle lastCompletion() const { return last_completion_; }

    /** Sum of (completion - arrival) over observed completions. */
    Cycle totalLatency() const { return total_latency_; }

  private:
    MemoryService &mem_;
    uint64_t addr_;
    uint64_t stride_;
    uint64_t count_;
    Cycle gap_;
    Cycle next_;
    uint64_t issued_ = 0;
    uint64_t completed_ = 0;
    Cycle last_completion_ = 0;
    Cycle total_latency_ = 0;
};

/**
 * Write-storm source for the thermal scenarios: hammers rows of one
 * bank with fire-and-forget writes (completions observed via
 * onComplete, so nothing blocks), with a duty cycle the thermal
 * throttle can modulate between epochs.
 */
class StormSource : public TickProducer
{
  public:
    /**
     * @param mem Target service.
     * @param base_addr First storm address (pick it to land on the
     *        bank under study; RowBankColumn keeps a row-sequential
     *        stream in one bank until the row wraps).
     * @param bytes Storm footprint (wraps around, row-sequential).
     * @param count Total writes to issue.
     * @param gap Cycles between writes at full rate.
     * @param start First issue cycle.
     */
    StormSource(MemoryService &mem, uint64_t base_addr, uint64_t bytes,
                uint64_t count, Cycle gap, Cycle start = 0)
        : mem_(mem), base_(base_addr), bytes_(bytes), count_(count),
          gap_(gap), next_(start)
    {
    }

    bool done() const override { return issued_ >= count_; }
    double nextNs() const override
    {
        return mem_.dramConfig().cyclesToNs(next_);
    }
    Cycle nextCycle() const override { return next_; }
    void tick() override;

    /**
     * Throttle multiplier on the issue gap (1 = full rate). The
     * thermal_throttling scenario raises it when a bank crosses the
     * temperature ceiling and restores it below the floor.
     */
    void setGapMultiplier(Cycle m) { gap_multiplier_ = m < 1 ? 1 : m; }

    uint64_t issuedWrites() const { return issued_; }
    uint64_t completed() const { return completed_; }
    Cycle lastCompletion() const { return last_completion_; }

  private:
    MemoryService &mem_;
    uint64_t base_;
    uint64_t bytes_;
    uint64_t count_;
    Cycle gap_;
    Cycle next_;
    Cycle gap_multiplier_ = 1;
    uint64_t offset_ = 0;
    uint64_t issued_ = 0;
    uint64_t completed_ = 0;
    Cycle last_completion_ = 0;
};

} // namespace codic

#endif // CODIC_SIM_ENGINE_H
