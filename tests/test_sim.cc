/**
 * @file
 * Tests of the trace-driven CPU model: cache behaviour, core timing,
 * deallocation paths, and the workload generators.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "mem/controller.h"
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
}

} // namespace
} // namespace codic
