/**
 * @file
 * Tests of the tick-driven co-simulation core (sim/engine.h) and the
 * MemoryService::onComplete callback path: callback-vs-blocking
 * equivalence (byte-identical command streams and completion
 * cycles), per-channel arrival-order callback firing, the
 * ticket-ownership contract (auto-retire, immediate fire on
 * completed tickets, completionOf exclusion), the one earliest-first
 * rule, and TickEngine determinism for the multi-producer scenarios,
 * whose cores interleave exactly as runMultiCore's do.
 */

#include <algorithm>
#include <bit>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "dram/system.h"
#include "mem/controller.h"
#include "secdealloc/evaluate.h"
#include "sim/engine.h"
#include "sim/workloads.h"

namespace codic {
namespace {

DramConfig
cfg()
{
    return DramConfig::ddr3_1600(256);
}

void
expectSameCounts(const CommandCounts &a, const CommandCounts &b)
{
    EXPECT_EQ(a.act, b.act);
    EXPECT_EQ(a.pre, b.pre);
    EXPECT_EQ(a.rd, b.rd);
    EXPECT_EQ(a.wr, b.wr);
    EXPECT_EQ(a.ref, b.ref);
    EXPECT_EQ(a.codic, b.codic);
    EXPECT_EQ(a.rowclone, b.rowclone);
    EXPECT_EQ(a.lisa_rbm, b.lisa_rbm);
    EXPECT_EQ(a.rd_wr_turnarounds, b.rd_wr_turnarounds);
    EXPECT_EQ(a.wr_rd_turnarounds, b.wr_rd_turnarounds);
    EXPECT_EQ(a.total(), b.total());
    ASSERT_EQ(a.per_bank.size(), b.per_bank.size());
    for (size_t i = 0; i < a.per_bank.size(); ++i) {
        EXPECT_EQ(a.per_bank[i].act, b.per_bank[i].act);
        EXPECT_EQ(a.per_bank[i].rd, b.per_bank[i].rd);
        EXPECT_EQ(a.per_bank[i].wr, b.per_bank[i].wr);
        EXPECT_EQ(a.per_bank[i].ref, b.per_bank[i].ref);
    }
}

// --- Callback vs blocking equivalence. ---

TEST(Cosim, CallbackPathMatchesBlockingPathByteForByte)
{
    // Same strided read stream through both consumer styles: the
    // blocking owner resolves each ticket with completionOf; the
    // callback owner registers onComplete and drains. The command
    // stream, the per-bank breakdown, and every completion cycle
    // must be identical.
    const uint64_t kReads = 64;
    const uint64_t kStride = 4096;
    const Cycle kGap = 12;

    DramChannel ch_blocking(cfg());
    MemoryController blocking(ch_blocking);
    std::vector<Cycle> blocking_done;
    for (uint64_t i = 0; i < kReads; ++i) {
        const Ticket t = blocking.submit(MemTransaction::makeRead(
            i * kStride, static_cast<Cycle>(i) * kGap));
        blocking_done.push_back(blocking.completionOf(t));
    }

    DramChannel ch_callback(cfg());
    MemoryController callback(ch_callback);
    std::vector<Cycle> callback_done;
    for (uint64_t i = 0; i < kReads; ++i) {
        const Ticket t = callback.submit(MemTransaction::makeRead(
            i * kStride, static_cast<Cycle>(i) * kGap));
        callback.onComplete(t, [&](Ticket, Cycle done) {
            callback_done.push_back(done);
        });
    }
    callback.drainAll();

    ASSERT_EQ(callback_done.size(), blocking_done.size());
    for (size_t i = 0; i < blocking_done.size(); ++i)
        EXPECT_EQ(callback_done[i], blocking_done[i]) << "read " << i;
    expectSameCounts(ch_callback.counts(), ch_blocking.counts());
}

TEST(Cosim, CallbackReadSourceMatchesBlockingLatencies)
{
    // The TickEngine-driven CallbackReadSource observes the same
    // total latency as a blocking consumer of the same stream.
    const uint64_t kReads = 48;
    const uint64_t kStride = 256;
    const Cycle kGap = 20;

    DramChannel ch_blocking(cfg());
    MemoryController blocking(ch_blocking);
    Cycle blocking_latency = 0;
    for (uint64_t i = 0; i < kReads; ++i) {
        const Cycle arrival = static_cast<Cycle>(i) * kGap;
        const Ticket t = blocking.submit(
            MemTransaction::makeRead(i * kStride, arrival));
        blocking_latency += blocking.completionOf(t) - arrival;
    }

    DramChannel ch_engine(cfg());
    MemoryController mc(ch_engine);
    CallbackReadSource source(mc, 0, kStride, kReads, kGap);
    TickEngine engine(mc);
    engine.add(&source);
    engine.run();

    EXPECT_EQ(source.completed(), kReads);
    EXPECT_EQ(source.totalLatency(), blocking_latency);
    expectSameCounts(ch_engine.counts(), ch_blocking.counts());
}

TEST(Cosim, CallbacksFireInArrivalOrderPerChannel)
{
    // FCFS service (read_window = 1) completes in arrival order, so
    // callbacks must fire in submission order even when later
    // requests were registered first.
    DramConfig c = cfg();
    c.scheduler = SchedulerPolicy::parse("eager:read_window=1");
    DramChannel ch(c);
    MemoryController mc(ch);

    std::vector<Ticket> tickets;
    for (uint64_t i = 0; i < 16; ++i)
        tickets.push_back(mc.submit(MemTransaction::makeRead(
            i * 8192, static_cast<Cycle>(i) * 4)));

    std::vector<Ticket> fired;
    // Register in reverse: firing order must still be arrival order.
    for (size_t i = tickets.size(); i-- > 0;)
        mc.onComplete(tickets[i],
                      [&fired](Ticket t, Cycle) { fired.push_back(t); });
    mc.drainAll();

    ASSERT_EQ(fired.size(), tickets.size());
    for (size_t i = 0; i < tickets.size(); ++i)
        EXPECT_EQ(fired[i], tickets[i]) << "position " << i;
}

TEST(Cosim, OnCompleteFiresImmediatelyForCompletedTicket)
{
    DramChannel ch(cfg());
    MemoryController mc(ch);
    const Ticket t = mc.submit(MemTransaction::makeRead(64, 0));
    mc.drainAll(); // Completes the transaction; ticket still live.

    Cycle done = 0;
    int fires = 0;
    mc.onComplete(t, [&](Ticket fired, Cycle completion) {
        EXPECT_EQ(fired, t);
        done = completion;
        ++fires;
    });
    EXPECT_EQ(fires, 1); // Fired inside onComplete, not queued.
    EXPECT_GT(done, 0u);
    // The callback consumed (auto-retired) the ticket.
    EXPECT_THROW(mc.completionOf(t), PanicError);
}

TEST(Cosim, CallbackOwnedTicketRejectsBlockingResolution)
{
    DramChannel ch(cfg());
    MemoryController mc(ch);
    const Ticket t = mc.submit(MemTransaction::makeRead(64, 0));
    mc.onComplete(t, [](Ticket, Cycle) {});
    // Ownership moved to the callback: the blocking API may not
    // also resolve it.
    EXPECT_THROW(mc.completionOf(t), PanicError);
}

TEST(Cosim, CallbackTicketAutoRetiresThroughDramSystem)
{
    DramSystem sys(DramConfig::ddr3_1600(256, 2));
    std::vector<Ticket> fired;
    std::vector<Ticket> submitted;
    for (uint64_t i = 0; i < 8; ++i) {
        const Ticket t = sys.submit(MemTransaction::makeRead(
            i * 64, static_cast<Cycle>(i)));
        submitted.push_back(t);
        // The system-level ticket (not the channel-local one) must
        // be what the callback observes.
        sys.onComplete(t, [&fired](Ticket done, Cycle) {
            fired.push_back(done);
        });
    }
    sys.drainAll();
    ASSERT_EQ(fired.size(), submitted.size());
    std::sort(fired.begin(), fired.end());
    std::sort(submitted.begin(), submitted.end());
    EXPECT_EQ(fired, submitted);
}

// --- The earliest-first rule. ---

TEST(EarliestFirst, SmallestLiveKeyFirstTiesToTheLowerIndex)
{
    // Entry 3 holds the smallest key but is dead from the start;
    // entries 1 and 2 tie below entry 0, which was registered first.
    std::vector<int> key = {5, 3, 3, 1};
    std::vector<int> steps_left = {2, 1, 1, 0};
    std::vector<size_t> order;
    stepEarliestFirst(
        key.size(), [&](size_t i) { return steps_left[i] > 0; },
        [&](size_t i) { return key[i]; },
        [&](size_t i) {
            order.push_back(i);
            --steps_left[i];
            key[i] += 4;
        });
    EXPECT_EQ(order, (std::vector<size_t>{1, 2, 0, 0}));
}

// --- TickEngine semantics. ---

TEST(Cosim, TickEngineInterleavesByLocalClock)
{
    // Two sources with offset start cycles: the engine must always
    // tick the earlier one, so both finish and the engine's clock
    // ends at the later producer's last action.
    DramChannel ch(cfg());
    MemoryController mc(ch);
    CallbackReadSource fast(mc, 0, 64, 10, 5, 0);
    CallbackReadSource slow(mc, 1 << 20, 64, 10, 50, 3);
    TickEngine engine(mc);
    engine.add(&fast);
    engine.add(&slow);
    engine.run();
    EXPECT_EQ(fast.completed(), 10u);
    EXPECT_EQ(slow.completed(), 10u);
    EXPECT_GE(engine.now(), Cycle{3 + 9 * 50});
}

TEST(Cosim, TickEngineFiresEpochHooksInOrder)
{
    DramChannel ch(cfg());
    MemoryController mc(ch);
    CallbackReadSource source(mc, 0, 64, 40, 25); // Last issue: 975.
    TickEngine engine(mc);
    engine.add(&source);
    std::vector<Cycle> boundaries;
    engine.setEpoch(200, [&](Cycle b) { boundaries.push_back(b); });
    engine.run();
    // Four boundaries inside the run (200..800) plus the closing
    // boundary after the drain.
    ASSERT_GE(boundaries.size(), 5u);
    for (size_t i = 1; i < boundaries.size(); ++i)
        EXPECT_GT(boundaries[i], boundaries[i - 1]);
    EXPECT_EQ(engine.epochsFired(), boundaries.size());
    EXPECT_EQ(source.completed(), 40u);
}

TEST(Cosim, StormSourceStaysOnTargetBank)
{
    // A row-sized storm footprint at base 0 must confine every ACT
    // and WR to channel 0 / rank 0 / bank 0 under RowBankColumn.
    DramConfig c = cfg();
    DramSystem sys(c);
    StormSource storm(
        sys, 0, static_cast<uint64_t>(sys.map().rowBytes()), 200, 4);
    TickEngine engine(sys);
    engine.add(&storm);
    engine.run();
    EXPECT_EQ(storm.completed(), 200u);

    const auto per_bank = sys.perBankCounts();
    ASSERT_FALSE(per_bank.empty());
    EXPECT_EQ(per_bank[0].wr, 200u);
    for (size_t i = 1; i < per_bank.size(); ++i) {
        EXPECT_EQ(per_bank[i].wr, 0u) << "bank " << i;
        EXPECT_EQ(per_bank[i].act, 0u) << "bank " << i;
    }
}

TEST(Cosim, MulticoreRunIsDeterministic)
{
    // The engine is serial with registration-order tie-breaks: two
    // identical multi-core runs must agree on every statistic.
    const auto once = [] {
        DramConfig c = cfg();
        DramSystem sys(c);
        WorkloadParams wa = benchmarkParams("mysql", 7);
        wa.phases = 30;
        WorkloadParams wb = benchmarkParams("stream", 8);
        wb.phases = 30;
        const Workload trace_a = generateWorkload(wa);
        const Workload trace_b = generateWorkload(wb);
        InOrderCore core_a(sys, CoreConfig{}, 0);
        InOrderCore core_b(sys, CoreConfig{}, 64 << 20);
        core_a.bind(&trace_a);
        core_b.bind(&trace_b);
        CoreProducer pa(core_a), pb(core_b);
        TickEngine engine(sys);
        engine.add(&pa);
        engine.add(&pb);
        const Cycle quiescent = engine.run();
        return std::make_tuple(quiescent, core_a.timeNs(),
                               core_b.timeNs(),
                               sys.totalCounts().total());
    };
    EXPECT_EQ(once(), once());
}

TEST(Cosim, CoreProducersInterleaveLikeRunMultiCore)
{
    // A Fig. 9 mix on the TickEngine, over a module built as
    // runMultiCore builds it: both key cores by exact local time, so
    // the end time, every counter and the per-core roll-ups agree.
    const WorkloadMix mix = representativeMixes(77)[0];
    const DeallocEvalConfig config;
    for (const DeallocMode mode :
         {DeallocMode::SoftwareZero, DeallocMode::CodicDet}) {
        SCOPED_TRACE(deallocModeName(mode));
        const DeallocRunResult ref = runMultiCore(mix, mode, config);

        DramSystem sys(DramConfig::ddr3_1600(config.dram_capacity_mb,
                                             config.dram_channels));
        CoreConfig core_cfg = config.core;
        core_cfg.dealloc = mode;
        const uint64_t region =
            static_cast<uint64_t>(sys.config().capacityBytes()) /
            mix.traces.size();
        std::vector<std::unique_ptr<InOrderCore>> cores;
        std::vector<std::unique_ptr<CoreProducer>> producers;
        TickEngine engine(sys);
        for (size_t i = 0; i < mix.traces.size(); ++i) {
            cores.push_back(std::make_unique<InOrderCore>(
                sys, core_cfg, region * i));
            cores.back()->bind(&mix.traces[i]);
            producers.push_back(
                std::make_unique<CoreProducer>(*cores.back()));
            engine.add(producers.back().get());
        }
        double end_ns = sys.config().cyclesToNs(engine.run());
        for (const auto &core : cores)
            end_ns = std::max(end_ns, core->timeNs());

        EXPECT_EQ(std::bit_cast<uint64_t>(end_ns),
                  std::bit_cast<uint64_t>(ref.time_ns));
        expectSameCounts(sys.totalCounts(), ref.commands);
        const std::vector<OriginCounts> origins = sys.perOriginCounts();
        ASSERT_EQ(origins.size(), ref.origins.size());
        for (size_t i = 0; i < origins.size(); ++i) {
            EXPECT_EQ(origins[i].origin, ref.origins[i].origin);
            EXPECT_EQ(origins[i].reads, ref.origins[i].reads);
            EXPECT_EQ(origins[i].writes, ref.origins[i].writes);
            EXPECT_EQ(origins[i].rowops, ref.origins[i].rowops);
            EXPECT_EQ(origins[i].read_latency_cycles,
                      ref.origins[i].read_latency_cycles);
            EXPECT_EQ(origins[i].rowop_latency_cycles,
                      ref.origins[i].rowop_latency_cycles);
            EXPECT_EQ(origins[i].max_read_latency,
                      ref.origins[i].max_read_latency);
        }
    }
}

TEST(Cosim, SharedRunIsSlowerThanSolo)
{
    // Contention sanity: a core sharing the channel with a second
    // core can never finish earlier than the same trace run solo.
    DramConfig c = cfg();
    WorkloadParams wp = benchmarkParams("memcached", 5);
    wp.phases = 40;
    const Workload trace = generateWorkload(wp);
    WorkloadParams other = benchmarkParams("malloc", 6);
    other.phases = 40;
    const Workload rival = generateWorkload(other);

    DramSystem solo_sys(c);
    InOrderCore solo(solo_sys, CoreConfig{}, 0);
    solo.bind(&trace);
    const double solo_ns = solo.run();

    DramSystem shared_sys(c);
    InOrderCore core_a(shared_sys, CoreConfig{}, 0);
    InOrderCore core_b(shared_sys, CoreConfig{}, 64 << 20);
    core_a.bind(&trace);
    core_b.bind(&rival);
    CoreProducer pa(core_a), pb(core_b);
    TickEngine engine(shared_sys);
    engine.add(&pa);
    engine.add(&pb);
    engine.run();

    EXPECT_GE(core_a.timeNs(), solo_ns);
}

} // namespace
} // namespace codic
