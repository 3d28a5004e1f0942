/**
 * @file
 * Tests of the multi-channel DramSystem layer: channel-aware address
 * mapping (round-trip property over every scheme x channel x rank
 * combination), request routing, per-channel counter roll-up against
 * single-channel totals, channel-level timing parallelism, and the
 * system-facing safe interface. The JEDEC timing checker stays armed
 * on every channel in all of these (any violation panics).
 */

#include <gtest/gtest.h>

#include <limits>
#include <thread>

#include "common/logging.h"
#include "common/rng.h"
#include "dram/system.h"
#include "mem/safe_interface.h"
#include "scenario/scheduler_workloads.h"
#include "sim/core.h"
#include "power/energy_model.h"

namespace codic {
namespace {

// --- Address map: channel + rank interleaving schemes. ---

struct MapCase
{
    MapScheme scheme;
    int channels;
    int ranks;
};

class ChannelMapTest : public ::testing::TestWithParam<MapCase>
{
};

TEST_P(ChannelMapTest, DecodeEncodeRoundTripAndInRange)
{
    const auto [scheme, channels, ranks] = GetParam();
    const DramConfig cfg = DramConfig::ddr3_1600(256, channels, ranks);
    AddressMap map(cfg, scheme);
    Rng rng(17);
    for (int i = 0; i < 2000; ++i) {
        const uint64_t addr =
            rng.below(static_cast<uint64_t>(map.capacityBytes()) / 64) *
            64;
        const Address a = map.decode(addr);
        EXPECT_GE(a.channel, 0);
        EXPECT_LT(a.channel, channels);
        EXPECT_GE(a.rank, 0);
        EXPECT_LT(a.rank, ranks);
        EXPECT_EQ(map.encode(a), addr);
    }
    // The map is a bijection onto the capacity: the extreme coordinate
    // encodes to the last burst.
    Address top;
    top.channel = channels - 1;
    top.rank = ranks - 1;
    top.bank = cfg.banks - 1;
    top.row = cfg.rows - 1;
    top.column = cfg.columns - 1;
    EXPECT_EQ(map.encode(top),
              static_cast<uint64_t>(map.capacityBytes()) -
                  static_cast<uint64_t>(cfg.burst_bytes));
}

/**
 * Reference decode written from the field orders MapScheme documents
 * (most- to least-significant above the burst offset), by the
 * div/mod chain: independent of AddressMap's per-field shift/mask
 * path, which every power-of-two geometry takes, and of its own
 * chain, which the others take.
 */
Address
referenceDecode(const DramConfig &cfg, MapScheme scheme, uint64_t addr)
{
    enum Field { Ch, Rank, Row, Bank, Col };
    std::vector<Field> msb_first;
    switch (scheme) {
      case MapScheme::RowBankColumn:
        msb_first = {Ch, Rank, Row, Bank, Col};
        break;
      case MapScheme::BankRowColumn:
        msb_first = {Ch, Rank, Bank, Row, Col};
        break;
      case MapScheme::RowBankColumnChannel:
        msb_first = {Rank, Row, Bank, Col, Ch};
        break;
      case MapScheme::RowChannelBankColumn:
        msb_first = {Rank, Row, Ch, Bank, Col};
        break;
      case MapScheme::RowBankRankColumn:
        msb_first = {Ch, Row, Bank, Rank, Col};
        break;
    }
    const int64_t sizes[] = {cfg.channels, cfg.ranks, cfg.rows, cfg.banks,
                             cfg.columns};
    uint64_t x = addr / static_cast<uint64_t>(cfg.burst_bytes);
    Address a;
    for (auto it = msb_first.rbegin(); it != msb_first.rend(); ++it) {
        const uint64_t size = static_cast<uint64_t>(sizes[*it]);
        const uint64_t v = x % size;
        x /= size;
        switch (*it) {
          case Ch: a.channel = static_cast<int>(v); break;
          case Rank: a.rank = static_cast<int>(v); break;
          case Row: a.row = static_cast<int64_t>(v); break;
          case Bank: a.bank = static_cast<int>(v); break;
          case Col: a.column = static_cast<int>(v); break;
        }
    }
    EXPECT_EQ(x, 0u) << "address past the module";
    return a;
}

TEST_P(ChannelMapTest, DecodeMatchesDocumentedFieldOrder)
{
    const auto [scheme, channels, ranks] = GetParam();
    const DramConfig cfg = DramConfig::ddr3_1600(256, channels, ranks);
    AddressMap map(cfg, scheme);
    const uint64_t capacity = static_cast<uint64_t>(map.capacityBytes());
    const uint64_t burst = static_cast<uint64_t>(cfg.burst_bytes);
    Rng rng(29);
    std::vector<uint64_t> addrs = {0, burst - 1, burst, capacity - burst,
                                   capacity - 1};
    for (int i = 0; i < 2000; ++i)
        addrs.push_back(rng.below(capacity)); // Unaligned too.
    for (uint64_t addr : addrs) {
        const Address a = map.decode(addr);
        ASSERT_EQ(a, referenceDecode(cfg, scheme, addr)) << addr;
        EXPECT_EQ(map.channelOf(addr), a.channel);
        EXPECT_EQ(map.encode(a), addr / burst * burst);
    }
}

std::vector<MapCase>
allMapCases()
{
    // Channel and rank counts of 3 make rows a non-power of two as
    // well, so both decode paths run for every scheme.
    std::vector<MapCase> cases;
    for (MapScheme s : allMapSchemes())
        for (int channels : {1, 2, 3, 4})
            for (int ranks : {1, 2, 3})
                cases.push_back({s, channels, ranks});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ChannelMapTest,
                         ::testing::ValuesIn(allMapCases()));

TEST(ChannelMap, LineInterleaveAlternatesChannelsPerBurst)
{
    const DramConfig cfg = DramConfig::ddr3_1600(256, 4);
    AddressMap map(cfg, MapScheme::RowBankColumnChannel);
    for (uint64_t line = 0; line < 64; ++line)
        EXPECT_EQ(map.decode(line * 64).channel,
                  static_cast<int>(line % 4));
}

TEST(ChannelMap, RowBlockInterleaveKeepsRowsWhole)
{
    // RowChannelBankColumn: one row-sized phys block = exactly one
    // DRAM row, and consecutive blocks walk banks then channels (the
    // property the secure-dealloc row ops rely on).
    const DramConfig cfg = DramConfig::ddr3_1600(256, 4);
    AddressMap map(cfg, MapScheme::RowChannelBankColumn);
    const uint64_t row_bytes = static_cast<uint64_t>(cfg.row_bytes);
    for (uint64_t block = 0; block < 64; ++block) {
        const Address first = map.decode(block * row_bytes);
        const Address last =
            map.decode((block + 1) * row_bytes - 64);
        EXPECT_EQ(first.channel, last.channel);
        EXPECT_EQ(first.bank, last.bank);
        EXPECT_EQ(first.row, last.row);
        EXPECT_EQ(first.column, 0);
        EXPECT_EQ(last.column, cfg.columns - 1);
    }
    // 8 banks x 4 channels of row blocks before the row advances.
    EXPECT_EQ(map.decode(8 * row_bytes).channel, 1);
    EXPECT_EQ(map.decode(32 * row_bytes).row, 1);
}

TEST(ChannelMap, SchemeNamesAreDistinct)
{
    for (MapScheme a : allMapSchemes())
        for (MapScheme b : allMapSchemes())
            if (a != b) {
                EXPECT_STRNE(mapSchemeName(a), mapSchemeName(b));
            }
}

// --- Config validation: channels/ranks are honored or rejected. ---

TEST(DramConfigValidation, RejectsNonPositiveChannelsOrRanks)
{
    DramConfig cfg = DramConfig::ddr3_1600(64);
    cfg.channels = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
    EXPECT_THROW(DramSystem{cfg}, FatalError);
    EXPECT_THROW(DramChannel{cfg}, FatalError);

    cfg.channels = 1;
    cfg.ranks = -1;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(DramConfigValidation, PresetSpreadsCapacityOverChannels)
{
    const DramConfig one = DramConfig::ddr3_1600(512);
    const DramConfig four = DramConfig::ddr3_1600(512, 4);
    EXPECT_EQ(four.channels, 4);
    EXPECT_EQ(four.rows * 4, one.rows);
    EXPECT_EQ(four.capacityBytes(), one.capacityBytes());
    EXPECT_EQ(four.totalRows(), one.totalRows());
}

TEST(DramChannelId, CommandsForAnotherChannelPanic)
{
    const DramConfig cfg = DramConfig::ddr3_1600(256, 2);
    DramChannel ch(cfg, 0);
    Command act;
    act.type = CommandType::Act;
    act.addr.channel = 1; // Belongs to channel 1 of the module.
    EXPECT_THROW(ch.issue(act, 0), PanicError);
    EXPECT_THROW(ch.earliest(act), PanicError);
}

// --- DramSystem routing and counter roll-up. ---

TEST(DramSystem, RoutesRequestsToOwningChannel)
{
    ControllerConfig cc;
    cc.map_scheme = MapScheme::RowBankColumnChannel;
    DramSystem sys(DramConfig::ddr3_1600(256, 4), cc);

    // Four consecutive lines land on four different channels.
    for (uint64_t line = 0; line < 4; ++line)
        sys.read(line * 64, 0);
    for (int c = 0; c < 4; ++c) {
        EXPECT_EQ(sys.channel(c).counts().rd, 1u) << "channel " << c;
        EXPECT_EQ(sys.channel(c).counts().act, 1u) << "channel " << c;
    }
    const CommandCounts total = sys.totalCounts();
    EXPECT_EQ(total.rd, 4u);
    EXPECT_EQ(total.act, 4u);

    // Roll-up equals the sum of the per-channel counters.
    CommandCounts sum;
    for (const CommandCounts &c : sys.perChannelCounts())
        sum += c;
    EXPECT_EQ(sum.total(), total.total());
}

TEST(DramSystem, FourChannelCountsSumToSingleChannelTotals)
{
    // A channel-independent workload: every line of a 4 MB region
    // read exactly once, in address order. Whatever the mapping, each
    // DRAM row the region touches is opened exactly once and read
    // column by column, so ACT/RD totals must match between a
    // 1-channel and a 4-channel module of the same capacity.
    constexpr uint64_t kLines = 65536;
    auto sweep = [](DramSystem &sys) {
        Cycle t = 0;
        for (uint64_t line = 0; line < kLines; ++line)
            t = sys.read(line * 64, t);
    };

    DramSystem one(DramConfig::ddr3_1600(256, 1));
    sweep(one);

    ControllerConfig cc4;
    cc4.map_scheme = MapScheme::RowChannelBankColumn;
    DramSystem four(DramConfig::ddr3_1600(256, 4), cc4);
    sweep(four);

    const CommandCounts t1 = one.totalCounts();
    const CommandCounts t4 = four.totalCounts();
    EXPECT_EQ(t4.rd, t1.rd);
    EXPECT_EQ(t4.rd, kLines);
    EXPECT_EQ(t4.act, t1.act);
    // Every channel took a share and its checker stayed armed.
    for (int c = 0; c < 4; ++c)
        EXPECT_GT(four.channel(c).counts().rd, 0u) << "channel " << c;
    // Precharges differ only by rows left open at the end (<= banks
    // per channel x channels).
    EXPECT_NEAR(static_cast<double>(t4.pre),
                static_cast<double>(t1.pre), 4.0 * 8.0);
}

TEST(DramSystem, RowOpSweepZeroesWholeModuleOnAnyChannelCount)
{
    for (int channels : {1, 4}) {
        ControllerConfig cc;
        if (channels > 1)
            cc.map_scheme = MapScheme::RowChannelBankColumn;
        DramSystem sys(DramConfig::ddr3_1600(64, channels), cc);
        sys.fillAllRows(RowDataState::Data);
        const int64_t rows = sys.config().totalRows();
        const uint64_t row_bytes =
            static_cast<uint64_t>(sys.config().row_bytes);
        Cycle t = 0;
        for (int64_t r = 0; r < rows; ++r)
            t = sys.rowOp(static_cast<uint64_t>(r) * row_bytes, t,
                          RowOpMechanism::CodicDet);
        EXPECT_EQ(sys.totalCounts().codic,
                  static_cast<uint64_t>(rows))
            << channels << " channels";
        EXPECT_EQ(sys.countRowsInState(RowDataState::Zeroes), rows)
            << channels << " channels";
        EXPECT_EQ(sys.countRowsInState(RowDataState::Data), 0)
            << channels << " channels";
    }
}

TEST(DramSystem, ChannelParallelismShortensIndependentReadMakespan)
{
    // Independent line reads arriving back to back: a single channel
    // serializes bursts on its data bus, four channels overlap them.
    constexpr uint64_t kLines = 4096;
    auto makespan = [](DramSystem &sys) {
        Cycle last = 0;
        for (uint64_t line = 0; line < kLines; ++line)
            last = std::max(
                last, sys.read(line * 64, static_cast<Cycle>(line)));
        return last;
    };

    DramSystem one(DramConfig::ddr3_1600(256, 1));
    ControllerConfig cc4;
    cc4.map_scheme = MapScheme::RowBankColumnChannel;
    DramSystem four(DramConfig::ddr3_1600(256, 4), cc4);

    const Cycle t1 = makespan(one);
    const Cycle t4 = makespan(four);
    EXPECT_LT(t4 * 2, t1); // At least 2x from 4 channels.
}

TEST(DramSystem, DrainWritesCoversEveryChannel)
{
    ControllerConfig cc;
    cc.map_scheme = MapScheme::RowBankColumnChannel;
    DramSystem sys(DramConfig::ddr3_1600(256, 2), cc);
    for (uint64_t line = 0; line < 16; ++line)
        sys.write(line * 64, 0);
    const Cycle drained = sys.drainAll();
    EXPECT_GE(drained, sys.lastIssueCycle());
    EXPECT_EQ(sys.totalCounts().wr, 16u);
    EXPECT_EQ(sys.pendingWriteCount(), 0u);
    EXPECT_GT(sys.channel(0).counts().wr, 0u);
    EXPECT_GT(sys.channel(1).counts().wr, 0u);
}

// --- Scheduler policy: write-drain batching and its invariants. ---

TEST(SchedulerPolicy, ValidateRejectsInconsistentKnobs)
{
    SchedulerPolicy p;
    p.drain_high_pct = 101;
    EXPECT_THROW(p.validate(), FatalError);
    p = SchedulerPolicy{};
    p.drain_low_pct = p.drain_high_pct + 1;
    EXPECT_THROW(p.validate(), FatalError);
    p = SchedulerPolicy{};
    p.max_drain_batch = 0;
    EXPECT_THROW(p.validate(), FatalError);
    p = SchedulerPolicy{};
    p.replay_batch = 0;
    EXPECT_THROW(p.validate(), FatalError);

    DramConfig cfg = DramConfig::ddr3_1600(64);
    cfg.scheduler.max_drain_batch = -3;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(SchedulerPolicy, PresetsResolveAndUnknownNameIsFatal)
{
    for (const auto &name : SchedulerPolicy::presetNames())
        EXPECT_NO_THROW(SchedulerPolicy::preset(name).validate())
            << name;
    EXPECT_EQ(SchedulerPolicy::preset("eager").max_drain_batch, 1);
    EXPECT_EQ(SchedulerPolicy::preset("eager").replay_batch, 1);
    // The bare DramConfig default is the eager legacy policy: the
    // paper campaigns (Fig. 8 software-zeroing baselines) depend on
    // it.
    EXPECT_EQ(DramConfig{}.scheduler.drain_high_pct,
              SchedulerPolicy::preset("eager").drain_high_pct);
    EXPECT_EQ(DramConfig{}.scheduler.max_drain_batch, 1);
    EXPECT_EQ(SchedulerPolicy::preset("batched").replay_batch, 8);
    EXPECT_THROW(SchedulerPolicy::preset("no_such_policy"),
                 FatalError);
}

TEST(SchedulerPolicy, DrainedWritesEqualAcceptedWrites)
{
    for (const auto &name : SchedulerPolicy::presetNames()) {
        DramConfig cfg = DramConfig::ddr3_1600(256);
        cfg.scheduler = SchedulerPolicy::preset(name);
        DramSystem sys(cfg);
        runTurnaroundWorkload(sys, 500);
        EXPECT_EQ(sys.totalCounts().wr, 500u) << name;
        EXPECT_EQ(sys.pendingWriteCount(), 0u) << name;
        EXPECT_EQ(sys.controller(0).acceptedWrites(), 500u) << name;
    }
}

TEST(SchedulerPolicy, TurnaroundsMonotoneInDrainBurstSize)
{
    // Larger drain episodes (high - low watermark window) batch more
    // writes per bus-direction switch: the turnaround counters must
    // be non-increasing as the burst size grows.
    struct Point { int high, low; };
    const Point sweep[] = {{0, 0}, {25, 10}, {50, 20}, {90, 10}};
    uint64_t prev = std::numeric_limits<uint64_t>::max();
    for (const Point p : sweep) {
        DramConfig cfg = DramConfig::ddr3_1600(256);
        cfg.scheduler = SchedulerPolicy::preset("batched");
        cfg.scheduler.drain_high_pct = p.high;
        cfg.scheduler.drain_low_pct = p.low;
        DramSystem sys(cfg);
        runTurnaroundWorkload(sys, 1000);
        const CommandCounts counts = sys.totalCounts();
        const uint64_t turns =
            counts.wr_rd_turnarounds + counts.rd_wr_turnarounds;
        EXPECT_LE(turns, prev)
            << "high=" << p.high << " low=" << p.low;
        prev = turns;
    }
    // The eager policy switches direction around every write; the
    // largest burst amortizes it by well over an order of magnitude.
    DramConfig eager_cfg = DramConfig::ddr3_1600(256);
    eager_cfg.scheduler = SchedulerPolicy::preset("eager");
    DramSystem eager_sys(eager_cfg);
    runTurnaroundWorkload(eager_sys, 1000);
    EXPECT_GT(eager_sys.totalCounts().wr_rd_turnarounds, 10 * prev);
}

TEST(SchedulerPolicy, ActivationsMonotoneInRowHitBatchSize)
{
    // Writes alternating between two rows of one bank: a FIFO drain
    // row-conflicts on every write, a row-hit batch drain coalesces
    // same-row writes from anywhere in the queue.
    auto actsFor = [](int batch) {
        DramConfig cfg = DramConfig::ddr3_1600(256);
        cfg.scheduler = SchedulerPolicy::preset("batched");
        cfg.scheduler.max_drain_batch = batch;
        DramSystem sys(cfg);
        runRowHitWorkload(sys, 1000);
        EXPECT_EQ(sys.totalCounts().wr, 1000u);
        return sys.totalCounts().act;
    };
    uint64_t prev = std::numeric_limits<uint64_t>::max();
    for (const int batch : {1, 2, 4, 8, 16, 32}) {
        const uint64_t acts = actsFor(batch);
        EXPECT_LE(acts, prev) << "batch " << batch;
        prev = acts;
    }
    // Batch 32 coalesces ~16x better than FIFO on this pattern.
    EXPECT_LT(actsFor(32) * 10, actsFor(1));
}

TEST(SchedulerPolicy, ReadsObserveBufferedWritesToTheirRow)
{
    // A read to a row with buffered writes must flush them first
    // (write forwarding): the write lands on the channel before the
    // read, and the row state reflects it.
    DramConfig cfg = DramConfig::ddr3_1600(256);
    cfg.scheduler = SchedulerPolicy::preset("batched");
    DramSystem sys(cfg);
    sys.write(0, 0);
    ASSERT_EQ(sys.pendingWriteCount(), 1u); // Buffered, not issued.
    ASSERT_EQ(sys.totalCounts().wr, 0u);
    sys.read(64, 100); // Same row, different column.
    EXPECT_EQ(sys.totalCounts().wr, 1u);
    EXPECT_EQ(sys.pendingWriteCount(), 0u);
    const Address a = sys.map().decode(0);
    EXPECT_EQ(sys.channel(a.channel).rowState(a.rank, a.bank, a.row),
              RowDataState::Data);
}

TEST(SchedulerPolicy, RowOpsDestroyBufferedWritesToTheirRow)
{
    // Writes accepted before a destructive row op must land before
    // the row is zeroized - never resurrect data afterwards.
    DramConfig cfg = DramConfig::ddr3_1600(256);
    cfg.scheduler = SchedulerPolicy::preset("batched");
    DramSystem sys(cfg);
    sys.write(0, 0);
    ASSERT_EQ(sys.pendingWriteCount(), 1u);
    sys.rowOp(0, 100, RowOpMechanism::CodicDet);
    EXPECT_EQ(sys.pendingWriteCount(), 0u);
    const Address a = sys.map().decode(0);
    EXPECT_EQ(sys.channel(a.channel).rowState(a.rank, a.bank, a.row),
              RowDataState::Zeroes);
}

TEST(SchedulerPolicy, WriteStallIsChannelLocal)
{
    // Regression (PR 4 satellite): with one channel's write queue
    // full, acceptance must stall only for writes routed to that
    // channel - another channel with free slots accepts immediately.
    ControllerConfig cc;
    cc.map_scheme = MapScheme::RowBankColumnChannel;
    cc.write_queue_entries = 4;
    DramSystem sys(DramConfig::ddr3_1600(256, 2), cc);

    // Row-conflicting writes all routed to channel 0 (even lines
    // under line interleave) until acceptance stalls.
    const uint64_t stride = 2 * 64 *
                            static_cast<uint64_t>(sys.config().columns) *
                            static_cast<uint64_t>(sys.config().banks);
    Cycle accepted = 0;
    for (uint64_t i = 0; i < 64; ++i) {
        const uint64_t addr = i * stride;
        ASSERT_EQ(sys.channelOf(addr), 0);
        accepted = sys.write(addr, 0);
    }
    EXPECT_GT(accepted, 0) << "channel 0 never back-pressured";

    // A write owned by channel 1 is accepted with zero stall.
    ASSERT_EQ(sys.channelOf(64), 1);
    EXPECT_EQ(sys.write(64, 0), 0);
}

// --- Trace-driven core over a multi-channel system. ---

TEST(DramSystemCore, TraceWorkloadRunsOnFourChannels)
{
    auto trace = [] {
        std::vector<TraceOp> ops;
        for (uint64_t a = 0; a < 1u << 20; a += 64)
            ops.push_back({OpType::Load, a, 0});
        return Workload{"scan", ops};
    }();

    auto run = [&trace](DramSystem &sys) {
        CoreConfig cfg;
        cfg.l1_bytes = 4096; // Tiny caches: almost every load misses.
        cfg.l2_bytes = 16384;
        InOrderCore core(sys, cfg);
        core.bind(&trace);
        return core.run();
    };

    DramSystem one(DramConfig::ddr3_1600(256, 1));
    ControllerConfig cc4;
    cc4.map_scheme = MapScheme::RowChannelBankColumn;
    DramSystem four(DramConfig::ddr3_1600(256, 4), cc4);

    const double t1 = run(one);
    const double t4 = run(four);
    EXPECT_GT(t1, 0.0);
    EXPECT_GT(t4, 0.0);
    // Same memory traffic overall (the channel-independent totals of
    // the acceptance criterion)...
    EXPECT_EQ(four.totalCounts().rd, one.totalCounts().rd);
    EXPECT_EQ(four.totalCounts().act, one.totalCounts().act);
    // ...spread over all four channels.
    for (int c = 0; c < 4; ++c)
        EXPECT_GT(four.channel(c).counts().rd, 0u) << "channel " << c;
}

TEST(DramSystemCore, MultiChannelSecureDeallocKeepsCommandTotals)
{
    // A dealloc-heavy trace issues one CODIC row op per row
    // regardless of the channel count.
    std::vector<TraceOp> ops;
    ops.push_back({OpType::DeallocRegion, 0, 1u << 20});
    Workload w{"dealloc", ops};

    auto codicCount = [&w](int channels) {
        ControllerConfig cc;
        if (channels > 1)
            cc.map_scheme = MapScheme::RowChannelBankColumn;
        DramSystem sys(DramConfig::ddr3_1600(256, channels), cc);
        CoreConfig cfg;
        cfg.dealloc = DeallocMode::CodicDet;
        InOrderCore core(sys, cfg);
        core.bind(&w);
        core.run();
        return sys.totalCounts().codic;
    };
    EXPECT_EQ(codicCount(1), codicCount(4));
    EXPECT_EQ(codicCount(1), (1u << 20) / 8192);
}

// --- Safe interface over a multi-channel system. ---

TEST(SafeInterfaceSystem, RoutesPufAndZeroRequestsAcrossChannels)
{
    // Default map: channel is the top bit, so the two halves of the
    // address space live on different channels.
    DramSystem sys(DramConfig::ddr3_1600(256, 2));
    const uint64_t half =
        static_cast<uint64_t>(sys.config().capacityBytes()) / 2;
    const uint64_t row = static_cast<uint64_t>(sys.config().row_bytes);

    SafeCodicInterface iface(sys, 0, 64 * row);
    Cycle done = 0;
    EXPECT_EQ(iface.pufResponse(0, 0, &done), SafeRequestStatus::Ok);
    EXPECT_EQ(sys.channel(0).counts().codic, 1u);
    EXPECT_EQ(sys.channel(1).counts().codic, 0u);

    // Zero one row on each channel.
    iface.declareFreed(100 * row, row);
    iface.declareFreed(half + 100 * row, row);
    EXPECT_EQ(iface.zeroRange(100 * row, row, 0, nullptr),
              SafeRequestStatus::Ok);
    EXPECT_EQ(iface.zeroRange(half + 100 * row, row, 0, nullptr),
              SafeRequestStatus::Ok);
    EXPECT_EQ(sys.channel(0).counts().codic, 2u);
    EXPECT_EQ(sys.channel(1).counts().codic, 1u);
}

// --- Energy roll-up. ---

TEST(SystemEnergy, RollsUpCommandsAndBackgroundPerChannel)
{
    ControllerConfig cc;
    cc.map_scheme = MapScheme::RowBankColumnChannel;
    DramSystem sys(DramConfig::ddr3_1600(256, 4), cc);
    for (uint64_t line = 0; line < 64; ++line)
        sys.read(line * 64, 0);

    const double elapsed_ns = 1000.0;
    const EnergyParams params;
    double expected = 0.0;
    for (int c = 0; c < 4; ++c)
        expected += campaignEnergyNj(sys.channel(c).counts(),
                                     elapsed_ns, params);
    EXPECT_DOUBLE_EQ(systemEnergyNj(sys, elapsed_ns, params), expected);
    // Four idle channels burn 4x the background power of one.
    DramSystem idle1(DramConfig::ddr3_1600(256, 1));
    DramSystem idle4(DramConfig::ddr3_1600(256, 4));
    EXPECT_DOUBLE_EQ(systemEnergyNj(idle4, elapsed_ns, params),
                     4.0 * systemEnergyNj(idle1, elapsed_ns, params));
}

#ifndef NDEBUG
// --- Debug-mode thread-ownership check (DramChannel contract). ---

TEST(ChannelOwnership, CrossThreadIssueWithoutHandoffPanics)
{
    DramChannel ch(DramConfig::ddr3_1600(64));
    Command act;
    act.type = CommandType::Act;
    ch.issue(act, 0); // Binds ownership to this thread.

    bool panicked = false;
    std::thread other([&] {
        Command pre;
        pre.type = CommandType::Pre;
        try {
            ch.issue(pre, 1000);
        } catch (const PanicError &) {
            panicked = true;
        }
    });
    other.join();
    EXPECT_TRUE(panicked);
}
#endif

} // namespace
} // namespace codic
