/**
 * @file
 * Tests of the trace-driven CPU model: cache behaviour, core timing,
 * deallocation paths, recorded cache passes, and the workload
 * generators.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>
#include <memory>

#include "common/logging.h"
#include "common/rng.h"
#include "dram/system.h"
#include "mem/controller.h"
#include "power/energy_model.h"
#include "sim/cache.h"
#include "sim/core.h"
#include "sim/workloads.h"

namespace codic {
namespace {

// --- Cache. ---

TEST(Cache, MissThenHit)
{
    Cache c(4096, 2);
    EXPECT_FALSE(c.access(0, false).hit);
    EXPECT_TRUE(c.access(0, false).hit);
    EXPECT_TRUE(c.access(63, false).hit); // Same line.
    EXPECT_FALSE(c.access(64, false).hit); // Next line.
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // 2-way, 2 sets, 64 B lines: addresses 0, 128, 256 share set 0.
    Cache c(256, 2);
    c.access(0, false);
    c.access(128, false);
    c.access(0, false);   // Refresh line 0.
    c.access(256, false); // Evicts 128 (LRU).
    EXPECT_TRUE(c.access(0, false).hit);
    EXPECT_FALSE(c.access(128, false).hit);
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache c(256, 2);
    c.access(0, true); // Dirty.
    c.access(128, false);
    const auto r = c.access(256, false); // Evicts dirty line 0.
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victim_addr, 0u);
}

TEST(Cache, CleanEvictionHasNoWriteback)
{
    Cache c(256, 2);
    c.access(0, false);
    c.access(128, false);
    EXPECT_FALSE(c.access(256, false).writeback);
}

TEST(Cache, FlushLineReportsDirtiness)
{
    Cache c(4096, 2);
    c.access(0, true);
    EXPECT_TRUE(c.flushLine(0));
    EXPECT_FALSE(c.access(0, false).hit); // Invalidated.
    c.access(64, false);
    EXPECT_FALSE(c.flushLine(64)); // Clean.
    EXPECT_FALSE(c.flushLine(8192)); // Absent.
}

TEST(Cache, InvalidateRangeDropsAllLines)
{
    Cache c(8192, 4);
    for (uint64_t a = 0; a < 1024; a += 64)
        c.access(a, true);
    c.invalidateRange(0, 1024);
    for (uint64_t a = 0; a < 1024; a += 64)
        EXPECT_FALSE(c.flushLine(a));
}

TEST(Cache, WritePropagatesDirtyOnHit)
{
    Cache c(256, 2);
    c.access(0, false);
    c.access(0, true); // Hit, now dirty.
    c.access(128, false);
    EXPECT_TRUE(c.access(256, false).writeback);
}

// --- Core. ---

struct CoreHarness
{
    DramChannel channel{DramConfig::ddr3_1600(256)};
    MemoryController controller{channel};
    CoreConfig config;
    InOrderCore core{controller, config};
};

TEST(Core, ComputeTimeMatchesClock)
{
    CoreHarness h;
    Workload w{"t", {{OpType::Compute, 0, 3200}}};
    h.core.bind(&w);
    const double end = h.core.run();
    EXPECT_NEAR(end, 1000.0, 1.0); // 3200 instr at 3.2 GHz = 1 us.
    EXPECT_EQ(h.core.stats().instructions, 3200u);
}

TEST(Core, CacheHitLoadIsFasterThanMiss)
{
    CoreHarness h1;
    Workload miss{"m", {{OpType::Load, 0, 0}}};
    h1.core.bind(&miss);
    const double t_miss = h1.core.run();

    CoreHarness h2;
    Workload hit{"h",
                 {{OpType::Load, 0, 0}, {OpType::Load, 0, 0}}};
    h2.core.bind(&hit);
    const double t_two = h2.core.run();
    // The second (hit) load adds only ~one CPU cycle.
    EXPECT_LT(t_two - t_miss, 5.0);
    EXPECT_GT(t_miss, 20.0); // DRAM access dominates the miss.
}

TEST(Core, StoreMissFetchesLine)
{
    CoreHarness h;
    Workload w{"s", {{OpType::Store, 0, 0}}};
    h.core.bind(&w);
    h.core.run();
    EXPECT_EQ(h.channel.counts().rd, 1u); // Read-for-ownership.
}

TEST(Core, SoftwareDeallocZeroesEveryLine)
{
    CoreHarness h;
    Workload w{"d", {{OpType::DeallocRegion, 0, 8192}}};
    h.core.bind(&w);
    h.core.run();
    EXPECT_EQ(h.core.stats().dealloc_lines_zeroed, 128u);
    EXPECT_EQ(h.core.stats().dealloc_rows, 0u);
}

TEST(Core, HardwareDeallocIssuesRowOps)
{
    CoreHarness h;
    h.config.dealloc = DeallocMode::CodicDet;
    InOrderCore core(h.controller, h.config);
    Workload w{"d", {{OpType::DeallocRegion, 0, 16384}}};
    core.bind(&w);
    core.run();
    EXPECT_EQ(core.stats().dealloc_rows, 2u);
    EXPECT_EQ(core.stats().dealloc_lines_zeroed, 0u);
    EXPECT_EQ(h.channel.counts().codic, 2u);
}

TEST(Core, HardwareDeallocInvalidatesCachedCopies)
{
    CoreHarness h;
    h.config.dealloc = DeallocMode::RowClone;
    InOrderCore core(h.controller, h.config);
    // Touch the region (dirty lines), then dealloc; the dirty lines
    // must not be written back afterwards (they are dead).
    std::vector<TraceOp> ops;
    for (uint64_t a = 8192; a < 16384; a += 64)
        ops.push_back({OpType::Store, a, 0});
    ops.push_back({OpType::DeallocRegion, 8192, 8192});
    Workload w{"d", ops};
    core.bind(&w);
    core.run();
    const uint64_t writes_before = h.channel.counts().wr;
    h.controller.drainAll();
    EXPECT_EQ(h.channel.counts().wr, writes_before);
}

TEST(Core, SoftwareDeallocSlowerThanHardware)
{
    Workload w{"d", {{OpType::DeallocRegion, 0, 65536}}};
    CoreHarness hw;
    hw.config.dealloc = DeallocMode::CodicDet;
    InOrderCore fast(hw.controller, hw.config);
    fast.bind(&w);
    const double t_hw = fast.run();

    CoreHarness sw;
    InOrderCore slow(sw.controller, sw.config);
    slow.bind(&w);
    const double t_sw = slow.run();
    EXPECT_GT(t_sw, 10.0 * t_hw);
}

TEST(Core, FlushWritesBackDirtyLine)
{
    CoreHarness h;
    Workload w{"f", {{OpType::Store, 0, 0}, {OpType::Flush, 0, 0}}};
    h.core.bind(&w);
    h.core.run();
    h.controller.drainAll();
    EXPECT_GE(h.channel.counts().wr, 1u);
}

// --- Recorded cache passes. ---

/**
 * The core before its cache/timing split, verbatim but for names:
 * each op walks the caches and adds the cycles in one pass. The live
 * and the replayed InOrderCore must both match it call for call.
 */
class MonolithicCore
{
  public:
    MonolithicCore(MemoryService &mem, const CoreConfig &config,
                   uint64_t addr_base)
        : controller_(mem), config_(config), addr_base_(addr_base),
          l1_(config.l1_bytes, config.l1_ways),
          l2_(config.l2_bytes, config.l2_ways),
          cpu_cycle_ns_(1.0 / config.cpu_ghz),
          dram_tck_ns_(mem.dramConfig().tck_ns)
    {
    }

    void bind(const Workload *workload)
    {
        workload_ = workload;
        cursor_ = 0;
        now_ns_ = 0.0;
        stats_ = {};
    }

    bool done() const { return cursor_ >= workload_->ops.size(); }
    double timeNs() const { return now_ns_; }
    const CoreStats &stats() const { return stats_; }

    void step()
    {
        const TraceOp &op = workload_->ops[cursor_++];
        switch (op.type) {
          case OpType::Compute:
            stats_.instructions += op.count;
            cpuCycles(static_cast<double>(op.count));
            break;
          case OpType::Load:
            doLoad(addr_base_ + op.addr);
            break;
          case OpType::Store:
            doStore(addr_base_ + op.addr);
            break;
          case OpType::Flush:
            doFlush(addr_base_ + op.addr);
            break;
          case OpType::DeallocRegion:
            doDealloc(addr_base_ + op.addr, op.count);
            break;
        }
    }

  private:
    Cycle nowCycles() const
    {
        return static_cast<Cycle>(std::ceil(now_ns_ / dram_tck_ns_));
    }
    void advanceTo(Cycle dram_cycle)
    {
        now_ns_ = std::max(now_ns_, static_cast<double>(dram_cycle) *
                                        dram_tck_ns_);
    }
    void cpuCycles(double n) { now_ns_ += n * cpu_cycle_ns_; }
    void submitWriteback(uint64_t victim_addr)
    {
        controller_.retire(controller_.submit(MemTransaction::makeWrite(
            victim_addr, nowCycles(), addr_base_)));
    }
    void writebackThroughL2(uint64_t victim_addr)
    {
        const auto wb = l2_.access(victim_addr, true);
        if (wb.writeback)
            submitWriteback(wb.victim_addr);
    }
    void doLoad(uint64_t addr)
    {
        stats_.instructions += 1;
        ++stats_.loads;
        cpuCycles(config_.l1_hit_cycles);
        const auto r1 = l1_.access(addr, false);
        if (r1.hit)
            return;
        if (r1.writeback)
            writebackThroughL2(r1.victim_addr);
        cpuCycles(config_.l2_hit_cycles);
        const auto r2 = l2_.access(addr, false);
        if (r2.hit)
            return;
        if (r2.writeback)
            submitWriteback(r2.victim_addr);
        advanceTo(controller_.complete(
            MemTransaction::makeRead(addr, nowCycles(), addr_base_)));
    }
    void doStore(uint64_t addr)
    {
        stats_.instructions += 8;
        ++stats_.stores;
        cpuCycles(8);
        const auto r1 = l1_.access(addr, true);
        if (r1.hit)
            return;
        if (r1.writeback)
            writebackThroughL2(r1.victim_addr);
        cpuCycles(config_.l2_hit_cycles);
        const auto r2 = l2_.access(addr, true);
        if (r2.hit)
            return;
        if (r2.writeback)
            submitWriteback(r2.victim_addr);
        advanceTo(controller_.complete(
            MemTransaction::makeRead(addr, nowCycles(), addr_base_)));
    }
    void doFlush(uint64_t addr)
    {
        stats_.instructions += 1;
        cpuCycles(2);
        bool dirty = l1_.flushLine(addr);
        dirty = l2_.flushLine(addr) || dirty;
        if (dirty) {
            const Ticket t = controller_.submit(MemTransaction::makeWrite(
                addr, nowCycles(), addr_base_));
            advanceTo(controller_.acceptedAt(t));
            controller_.retire(t);
        }
    }
    void doDealloc(uint64_t addr, uint64_t bytes)
    {
        stats_.instructions += 1;
        const int64_t row_bytes = controller_.map().rowBytes();
        if (config_.dealloc == DeallocMode::SoftwareZero) {
            for (uint64_t a = addr; a < addr + bytes; a += 64) {
                doStore(a);
                ++stats_.dealloc_lines_zeroed;
            }
            return;
        }
        RowOpMechanism mech = RowOpMechanism::CodicDet;
        if (config_.dealloc == DeallocMode::RowClone)
            mech = RowOpMechanism::RowClone;
        else if (config_.dealloc == DeallocMode::LisaClone)
            mech = RowOpMechanism::LisaClone;
        for (uint64_t a = addr; a < addr + bytes;
             a += static_cast<uint64_t>(row_bytes)) {
            cpuCycles(config_.dealloc_cmd_cycles);
            l1_.invalidateRange(a, static_cast<uint64_t>(row_bytes));
            l2_.invalidateRange(a, static_cast<uint64_t>(row_bytes));
            controller_.complete(MemTransaction::makeRowOp(
                a, nowCycles(), mech, 0, addr_base_));
            ++stats_.dealloc_rows;
        }
    }

    MemoryService &controller_;
    CoreConfig config_;
    uint64_t addr_base_;
    Cache l1_;
    Cache l2_;
    const Workload *workload_ = nullptr;
    size_t cursor_ = 0;
    double now_ns_ = 0.0;
    double cpu_cycle_ns_;
    double dram_tck_ns_;
    CoreStats stats_;
};

/** One memory call a core made, with its arguments and result. */
struct MemCall
{
    char what = 0; //!< 's'ubmit, 'c'omplete, 'a'cceptedAt, 'r'etire.
    TxnKind kind = TxnKind::Read;
    uint64_t addr = 0;
    Cycle arrival = 0;
    uint64_t origin = 0;
    RowOpMechanism mech = RowOpMechanism::CodicDet;
    Cycle result = 0;

    bool operator==(const MemCall &) const = default;
};

/** Forwards every call to a DramSystem, logging what the core asks. */
class LoggedMemory : public MemoryService
{
  public:
    explicit LoggedMemory(DramSystem &inner) : inner_(inner) {}

    Ticket submit(const MemTransaction &txn) override
    {
        log_.push_back(entry('s', txn, 0));
        return inner_.submit(txn);
    }
    Cycle acceptedAt(Ticket ticket) const override
    {
        const Cycle c = inner_.acceptedAt(ticket);
        log_.push_back({'a', TxnKind::Write, 0, 0, 0, {}, c});
        return c;
    }
    Cycle completionOf(Ticket ticket) override
    {
        return inner_.completionOf(ticket);
    }
    void retire(Ticket ticket) override
    {
        log_.push_back({'r', TxnKind::Write, 0, 0, 0, {}, 0});
        inner_.retire(ticket);
    }
    Cycle complete(const MemTransaction &txn) override
    {
        const Cycle c = inner_.complete(txn);
        log_.push_back(entry('c', txn, c));
        return c;
    }
    void onComplete(Ticket ticket, CompletionCallback fn) override
    {
        inner_.onComplete(ticket, std::move(fn));
    }
    size_t poll(Cycle now) override { return inner_.poll(now); }
    Cycle drainAll() override { return inner_.drainAll(); }
    size_t inFlightCount() const override
    {
        return inner_.inFlightCount();
    }
    const AddressMap &map() const override { return inner_.map(); }
    const DramConfig &dramConfig() const override
    {
        return inner_.dramConfig();
    }

    const std::vector<MemCall> &log() const { return log_; }

  private:
    static MemCall entry(char what, const MemTransaction &txn, Cycle c)
    {
        return {what, txn.kind, txn.addr, txn.arrival, txn.origin,
                txn.mech, c};
    }

    DramSystem &inner_;
    mutable std::vector<MemCall> log_;
};

/** Everything a multi-core run reports, for bitwise comparison. */
struct RunRecord
{
    uint64_t time_bits = 0; //!< The end time's bit pattern.
    std::vector<CoreStats> stats;
    CommandCounts counts;
    std::vector<OriginCounts> origins;
    uint64_t energy_bits = 0;
    Cycle last_issue = 0;
    std::vector<MemCall> calls;
};

/**
 * Step one core per trace (region = capacity / traces) smallest
 * local time first over a shared DramSystem, as the secure-dealloc
 * harness does, and drain. `make(mem, i)` builds and binds core i.
 */
template <typename Core>
RunRecord
runCores(const std::vector<Workload> &traces, int channels,
         const std::function<std::unique_ptr<Core>(MemoryService &,
                                                   size_t)> &make)
{
    ControllerConfig cc;
    if (channels > 1)
        cc.map_scheme = MapScheme::RowChannelBankColumn;
    DramSystem sys(DramConfig::ddr3_1600(256, channels), cc);
    LoggedMemory mem(sys);
    std::vector<std::unique_ptr<Core>> cores;
    for (size_t i = 0; i < traces.size(); ++i)
        cores.push_back(make(mem, i));
    while (true) {
        Core *next = nullptr;
        for (auto &core : cores)
            if (!core->done() &&
                (!next || core->timeNs() < next->timeNs()))
                next = core.get();
        if (!next)
            break;
        next->step();
    }
    double end_ns = 0.0;
    for (auto &core : cores)
        end_ns = std::max(end_ns, core->timeNs());
    end_ns = std::max(end_ns, static_cast<double>(sys.drainAll()) *
                                  sys.config().tck_ns);
    RunRecord r;
    r.time_bits = std::bit_cast<uint64_t>(end_ns);
    for (auto &core : cores)
        r.stats.push_back(core->stats());
    r.counts = sys.totalCounts();
    r.origins = sys.perOriginCounts();
    r.energy_bits =
        std::bit_cast<uint64_t>(systemEnergyNj(sys, end_ns, {}));
    r.last_issue = sys.lastIssueCycle();
    r.calls = mem.log();
    return r;
}

void
expectSameRuns(const RunRecord &a, const RunRecord &b,
               const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.time_bits, b.time_bits);
    ASSERT_EQ(a.stats.size(), b.stats.size());
    for (size_t i = 0; i < a.stats.size(); ++i) {
        EXPECT_EQ(a.stats[i].instructions, b.stats[i].instructions);
        EXPECT_EQ(a.stats[i].loads, b.stats[i].loads);
        EXPECT_EQ(a.stats[i].stores, b.stats[i].stores);
        EXPECT_EQ(a.stats[i].dealloc_rows, b.stats[i].dealloc_rows);
        EXPECT_EQ(a.stats[i].dealloc_lines_zeroed,
                  b.stats[i].dealloc_lines_zeroed);
    }
    const CommandCounts &x = a.counts;
    const CommandCounts &y = b.counts;
    EXPECT_EQ(x.act, y.act);
    EXPECT_EQ(x.pre, y.pre);
    EXPECT_EQ(x.rd, y.rd);
    EXPECT_EQ(x.wr, y.wr);
    EXPECT_EQ(x.ref, y.ref);
    EXPECT_EQ(x.refpb, y.refpb);
    EXPECT_EQ(x.mrs, y.mrs);
    EXPECT_EQ(x.codic, y.codic);
    EXPECT_EQ(x.rowclone, y.rowclone);
    EXPECT_EQ(x.lisa_rbm, y.lisa_rbm);
    EXPECT_EQ(x.rd_wr_turnarounds, y.rd_wr_turnarounds);
    EXPECT_EQ(x.wr_rd_turnarounds, y.wr_rd_turnarounds);
    EXPECT_EQ(x.refresh_overlap_cycles, y.refresh_overlap_cycles);
    ASSERT_EQ(x.per_bank.size(), y.per_bank.size());
    for (size_t i = 0; i < x.per_bank.size(); ++i) {
        EXPECT_EQ(x.per_bank[i].act, y.per_bank[i].act);
        EXPECT_EQ(x.per_bank[i].rd, y.per_bank[i].rd);
        EXPECT_EQ(x.per_bank[i].wr, y.per_bank[i].wr);
        EXPECT_EQ(x.per_bank[i].ref, y.per_bank[i].ref);
        EXPECT_EQ(x.per_bank[i].refpb, y.per_bank[i].refpb);
        EXPECT_EQ(x.per_bank[i].refresh_cycles,
                  y.per_bank[i].refresh_cycles);
    }
    ASSERT_EQ(a.origins.size(), b.origins.size());
    for (size_t i = 0; i < a.origins.size(); ++i) {
        const OriginCounts &p = a.origins[i];
        const OriginCounts &q = b.origins[i];
        EXPECT_EQ(p.origin, q.origin);
        EXPECT_EQ(p.reads, q.reads);
        EXPECT_EQ(p.writes, q.writes);
        EXPECT_EQ(p.rowops, q.rowops);
        EXPECT_EQ(p.read_latency_cycles, q.read_latency_cycles);
        EXPECT_EQ(p.rowop_latency_cycles, q.rowop_latency_cycles);
        EXPECT_EQ(p.max_read_latency, q.max_read_latency);
    }
    EXPECT_EQ(a.energy_bits, b.energy_bits);
    EXPECT_EQ(a.last_issue, b.last_issue);
    ASSERT_EQ(a.calls.size(), b.calls.size());
    for (size_t i = 0; i < a.calls.size(); ++i)
        ASSERT_TRUE(a.calls[i] == b.calls[i]) << "memory call " << i;
}

/**
 * Random traces over a 64 KB footprint for tiny caches: every kind
 * of outcome (hits, dirty L1 victims through L2 to memory, L2
 * victims, dirty and clean flushes) and row-aligned deallocations.
 * Most accesses go to a 32-line hot set, so both levels also hit.
 */
Workload
craftedTrace(uint64_t seed, int ops = 6000)
{
    Rng rng(seed);
    Workload w;
    w.name = "crafted";
    constexpr uint64_t kLines = 1024;
    for (int i = 0; i < ops; ++i) {
        const uint64_t pick = rng.below(100);
        const uint64_t line =
            rng.below(10) < 7 ? rng.below(32) * 7 : rng.below(kLines);
        const uint64_t addr = line * 64 + rng.below(64);
        if (pick < 15)
            w.ops.push_back({OpType::Compute, 0, 1 + rng.below(200)});
        else if (pick < 48)
            w.ops.push_back({OpType::Load, addr, 0});
        else if (pick < 83)
            w.ops.push_back({OpType::Store, addr, 0});
        else if (pick < 98)
            w.ops.push_back({OpType::Flush, addr, 0});
        else
            w.ops.push_back({OpType::DeallocRegion,
                             rng.below(kLines * 64 / 8192) * 8192,
                             8192 * (1 + rng.below(2))});
    }
    return w;
}

/**
 * Tiny L1/L2 (8 and 16 lines, 2-way) so the crafted traces evict
 * often, and L2 often drops a line L1 still holds dirty.
 */
CoreConfig
tinyCaches()
{
    CoreConfig c;
    c.l1_bytes = 512;
    c.l1_ways = 2;
    c.l2_bytes = 1024;
    c.l2_ways = 2;
    return c;
}

/**
 * Live and replayed runs of `traces` under every deallocation mode,
 * both against the monolithic core.
 */
void
checkReplayEqualsLive(const std::vector<Workload> &traces,
                      const CoreConfig &base, int channels)
{
    const uint64_t region =
        DramConfig::ddr3_1600(256, channels).capacityBytes() /
        traces.size();
    const int64_t row_bytes = DramConfig::ddr3_1600(256).row_bytes;
    for (DeallocMode mode :
         {DeallocMode::SoftwareZero, DeallocMode::LisaClone,
          DeallocMode::RowClone, DeallocMode::CodicDet}) {
        CoreConfig cfg = base;
        cfg.dealloc = mode;
        std::vector<CacheRecording> recordings;
        for (size_t i = 0; i < traces.size(); ++i)
            recordings.push_back(
                recordCachePass(traces[i], cfg, row_bytes, region * i));
        const RunRecord reference = runCores<MonolithicCore>(
            traces, channels, [&](MemoryService &mem, size_t i) {
                auto core = std::make_unique<MonolithicCore>(
                    mem, cfg, region * i);
                core->bind(&traces[i]);
                return core;
            });
        const RunRecord live = runCores<InOrderCore>(
            traces, channels, [&](MemoryService &mem, size_t i) {
                auto core =
                    std::make_unique<InOrderCore>(mem, cfg, region * i);
                core->bind(&traces[i]);
                return core;
            });
        const RunRecord replay = runCores<InOrderCore>(
            traces, channels, [&](MemoryService &mem, size_t i) {
                auto core =
                    std::make_unique<InOrderCore>(mem, cfg, region * i);
                core->bind(&traces[i], recordings[i]);
                return core;
            });
        const std::string what =
            std::string(deallocModeName(mode)) + ", " +
            std::to_string(traces.size()) + " core(s), " +
            std::to_string(channels) + " channel(s)";
        EXPECT_GT(reference.calls.size(), 100u) << what;
        expectSameRuns(reference, live, "live, " + what);
        expectSameRuns(reference, replay, "replay, " + what);
    }
}

TEST(CacheRecording, CraftedTracesCoverEveryOutcome)
{
    using namespace cache_outcome;
    CoreConfig cfg = tinyCaches();
    cfg.dealloc = DeallocMode::CodicDet;
    const Workload w = craftedTrace(1);
    const CacheRecording rec = recordCachePass(w, cfg, 8192);
    // L1 hit, L2 hit, miss, L1 victim out, L2 victim out, dirty and
    // clean flush.
    int seen[7] = {};
    size_t k = 0;
    for (const TraceOp &op : w.ops) {
        if (op.type == OpType::Flush) {
            ++seen[rec.outcomes[k++] == kFlushDirty ? 5 : 6];
        } else if (op.type == OpType::Load || op.type == OpType::Store) {
            const uint8_t code = rec.outcomes[k++];
            ++seen[code & kLevelMask];
            seen[3] += (code & kL1VictimOut) != 0;
            seen[4] += (code & kL2VictimOut) != 0;
        }
    }
    ASSERT_EQ(k, rec.outcomes.size());
    EXPECT_EQ(rec.victims.size(), static_cast<size_t>(seen[3] + seen[4]));
    for (int i = 0; i < 7; ++i)
        EXPECT_GT(seen[i], 50) << "outcome class " << i;
}

TEST(CacheRecording, ReplayEqualsLiveOnCraftedTraces)
{
    std::vector<Workload> four;
    for (uint64_t seed = 1; seed <= 4; ++seed)
        four.push_back(craftedTrace(seed));
    for (int channels : {1, 2}) {
        checkReplayEqualsLive({four[0]}, tinyCaches(), channels);
        checkReplayEqualsLive(four, tinyCaches(), channels);
    }
}

TEST(CacheRecording, ReplayEqualsLiveOnGeneratedMixes)
{
    // Short, 16 MB versions of a Table 9 style mix at the paper's
    // cache sizes: two allocation-intensive and two background cores.
    std::vector<Workload> mix;
    for (const char *name : {"malloc", "bootup", "stream", "tpch"}) {
        WorkloadParams p = benchmarkParams(name, 3);
        p.phases = 12;
        p.footprint_bytes = 16ull << 20;
        mix.push_back(generateWorkload(p));
    }
    for (int channels : {1, 2}) {
        checkReplayEqualsLive({mix[0]}, CoreConfig{}, channels);
        checkReplayEqualsLive(mix, CoreConfig{}, channels);
    }
}

TEST(CacheRecording, BindRejectsAForeignRecording)
{
    CoreHarness h;
    h.config.dealloc = DeallocMode::CodicDet;
    const Workload w = craftedTrace(1);
    const Workload other = craftedTrace(1, 5999);
    const CacheRecording rec = recordCachePass(w, h.config, 8192);
    InOrderCore core(h.controller, h.config);
    EXPECT_NO_THROW(core.bind(&w, rec));
    EXPECT_THROW(core.bind(&other, rec), PanicError); // Another length.
    InOrderCore moved(h.controller, h.config, 1 << 20);
    EXPECT_THROW(moved.bind(&w, rec), PanicError); // Another region.
    InOrderCore software(h.controller, CoreConfig{});
    EXPECT_THROW(software.bind(&w, rec), PanicError); // Another mode.
}

// --- Workloads. ---

TEST(Workloads, DeallocRegionsAreRowAligned)
{
    const Workload w =
        generateWorkload(benchmarkParams("malloc", 1));
    for (const auto &op : w.ops) {
        if (op.type != OpType::DeallocRegion)
            continue;
        EXPECT_EQ(op.addr % 8192, 0u);
        EXPECT_EQ(op.count % 8192, 0u);
        EXPECT_GT(op.count, 0u);
    }
}

TEST(Workloads, IntensiveBenchmarksDeallocate)
{
    for (const auto &name : allocationIntensiveBenchmarks()) {
        const Workload w = generateWorkload(benchmarkParams(name, 2));
        EXPECT_GT(w.deallocBytes(), 0u) << name;
        EXPECT_GT(w.instructionCount(), 0u) << name;
    }
}

TEST(Workloads, BackgroundBenchmarksDoNot)
{
    for (const auto &name : backgroundBenchmarks()) {
        const Workload w = generateWorkload(benchmarkParams(name, 2));
        EXPECT_EQ(w.deallocBytes(), 0u) << name;
    }
}

TEST(Workloads, UnknownBenchmarkIsFatal)
{
    EXPECT_THROW(benchmarkParams("nonsense", 1), FatalError);
}

TEST(Workloads, GenerationIsDeterministicPerSeed)
{
    const Workload a = generateWorkload(benchmarkParams("shell", 9));
    const Workload b = generateWorkload(benchmarkParams("shell", 9));
    ASSERT_EQ(a.ops.size(), b.ops.size());
    for (size_t i = 0; i < a.ops.size(); ++i)
        EXPECT_EQ(a.ops[i].addr, b.ops[i].addr);
}

TEST(Workloads, RepresentativeMixesMatchTable9)
{
    const auto mixes = representativeMixes(1);
    ASSERT_EQ(mixes.size(), 5u);
    for (const auto &mix : mixes)
        EXPECT_EQ(mix.traces.size(), 4u);
    EXPECT_EQ(mixes[0].traces[0].name, "malloc");
    EXPECT_EQ(mixes[2].traces[2].name, "pagerank");
}

TEST(Workloads, RandomMixesPairIntensiveWithBackground)
{
    const auto mixes = randomMixes(10, 3);
    ASSERT_EQ(mixes.size(), 10u);
    for (const auto &mix : mixes) {
        ASSERT_EQ(mix.traces.size(), 4u);
        EXPECT_GT(mix.traces[0].deallocBytes(), 0u);
        EXPECT_GT(mix.traces[1].deallocBytes(), 0u);
        EXPECT_EQ(mix.traces[2].deallocBytes(), 0u);
        EXPECT_EQ(mix.traces[3].deallocBytes(), 0u);
    }
}

TEST(Workloads, TraceStatsHelpers)
{
    Workload w{"t",
               {{OpType::Compute, 0, 100},
                {OpType::Store, 0, 0},
                {OpType::Load, 64, 0},
                {OpType::DeallocRegion, 8192, 16384}}};
    EXPECT_EQ(w.deallocBytes(), 16384u);
    EXPECT_EQ(w.instructionCount(), 100u + 8u + 1u + 1u);
    EXPECT_EQ(w.extentBytes(), 8192u + 16384u);
    const Workload line{"l", {{OpType::Flush, 100000, 0}}};
    EXPECT_EQ(line.extentBytes(), 100032u); // End of the 64 B line.
    EXPECT_EQ(Workload{}.extentBytes(), 0u);
}

} // namespace
} // namespace codic
