/**
 * @file
 * Tests of the secure-deallocation evaluation (paper Appendix A,
 * Figs. 8 and 9): hardware mechanisms beat the software baseline on
 * time and energy for every allocation-intensive benchmark, single-
 * and multi-core; the comparisons' shared cache pass reproduces the
 * live runs; and a trace that does not fit its core's region is
 * rejected.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/logging.h"
#include "secdealloc/evaluate.h"

namespace codic {
namespace {

TEST(Metrics, SpeedupAndSavingsMath)
{
    DeallocRunResult base;
    base.time_ns = 200.0;
    base.energy_nj = 100.0;
    DeallocRunResult fast;
    fast.time_ns = 100.0;
    fast.energy_nj = 80.0;
    EXPECT_DOUBLE_EQ(speedupOver(base, fast), 1.0);
    EXPECT_DOUBLE_EQ(energySavings(base, fast), 0.2);
}

class SingleCoreBenchTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SingleCoreBenchTest, HardwareBeatsSoftwareOnTimeAndEnergy)
{
    const auto c = compareSingleCore(GetParam());
    // Paper Fig. 8: all hardware approaches improve performance (up
    // to 21 %) and energy (up to 34 %) over software zeroing.
    EXPECT_GT(c.codic_speedup, 0.02);
    EXPECT_LT(c.codic_speedup, 0.25);
    EXPECT_GT(c.rowclone_speedup, 0.02);
    EXPECT_GT(c.lisa_speedup, 0.02);
    EXPECT_GT(c.codic_energy, 0.05);
    EXPECT_LT(c.codic_energy, 0.45);
    // CODIC never loses to the clone mechanisms.
    EXPECT_GE(c.codic_energy + 1e-9, c.rowclone_energy);
    EXPECT_GE(c.rowclone_energy + 1e-9, c.lisa_energy);
    EXPECT_GE(c.codic_speedup + 0.002, c.rowclone_speedup);
    EXPECT_GE(c.codic_speedup + 0.002, c.lisa_speedup);
}

INSTANTIATE_TEST_SUITE_P(
    Table8, SingleCoreBenchTest,
    ::testing::Values("mysql", "memcached", "compiler", "bootup",
                      "shell", "malloc"));

TEST(SingleCore, MallocIsTheMostAllocationBound)
{
    const auto stress = compareSingleCore("malloc");
    const auto gcc = compareSingleCore("compiler");
    EXPECT_GT(stress.codic_speedup, gcc.codic_speedup);
}

TEST(SingleCore, RunReportsConsistentStats)
{
    const Workload w =
        generateWorkload(benchmarkParams("shell", 11));
    const auto sw = runSingleCore(w, DeallocMode::SoftwareZero);
    const auto hw = runSingleCore(w, DeallocMode::CodicDet);
    EXPECT_GT(sw.core_stats.dealloc_lines_zeroed, 0u);
    EXPECT_EQ(hw.core_stats.dealloc_lines_zeroed, 0u);
    EXPECT_GT(hw.core_stats.dealloc_rows, 0u);
    EXPECT_EQ(hw.commands.codic, hw.core_stats.dealloc_rows);
    EXPECT_GT(sw.time_ns, hw.time_ns);
}

TEST(MultiCore, MixesImproveUnderHardwareDealloc)
{
    const auto mixes = representativeMixes(77);
    const auto c = compareMultiCore(mixes[0]);
    // Paper Fig. 9: positive but smaller than single-core (only two
    // of four cores deallocate).
    EXPECT_GT(c.codic_speedup, 0.01);
    EXPECT_LT(c.codic_speedup, 0.20);
    EXPECT_GT(c.codic_energy, 0.03);
}

TEST(MultiCore, AllRepresentativeMixesImprove)
{
    for (const auto &mix : representativeMixes(42)) {
        const auto c = compareMultiCore(mix);
        EXPECT_GT(c.codic_speedup, 0.0) << mix.name;
        EXPECT_GT(c.rowclone_speedup, 0.0) << mix.name;
        EXPECT_GT(c.lisa_speedup, 0.0) << mix.name;
        EXPECT_GT(c.codic_energy, 0.0) << mix.name;
    }
}

TEST(MultiCore, SharedChannelSlowsIndividualCores)
{
    // The same trace takes longer per core when three other cores
    // contend for the channel.
    const auto mixes = representativeMixes(5);
    const auto mc =
        runMultiCore(mixes[0], DeallocMode::SoftwareZero);
    const auto sc =
        runSingleCore(mixes[0].traces[0], DeallocMode::SoftwareZero);
    EXPECT_GT(mc.time_ns, sc.time_ns);
}

/** The row compare* must report for four live runs. */
void
expectRowFromLiveRuns(const BenchmarkComparison &c,
                      const DeallocRunResult &base,
                      const DeallocRunResult &lisa,
                      const DeallocRunResult &rowclone,
                      const DeallocRunResult &codic)
{
    EXPECT_EQ(c.lisa_speedup, speedupOver(base, lisa));
    EXPECT_EQ(c.rowclone_speedup, speedupOver(base, rowclone));
    EXPECT_EQ(c.codic_speedup, speedupOver(base, codic));
    EXPECT_EQ(c.lisa_energy, energySavings(base, lisa));
    EXPECT_EQ(c.rowclone_energy, energySavings(base, rowclone));
    EXPECT_EQ(c.codic_energy, energySavings(base, codic));
}

TEST(SharedCachePass, MultiCoreComparisonMatchesLiveRuns)
{
    // compareMultiCore replays one recorded cache pass for its three
    // hardware runs; runMultiCore walks the caches live.
    const auto mixes = representativeMixes(77);
    DeallocEvalConfig cfg;
    cfg.run.threads = 2;
    const auto &mix = mixes[1];
    expectRowFromLiveRuns(
        compareMultiCore(mix, cfg),
        runMultiCore(mix, DeallocMode::SoftwareZero, cfg),
        runMultiCore(mix, DeallocMode::LisaClone, cfg),
        runMultiCore(mix, DeallocMode::RowClone, cfg),
        runMultiCore(mix, DeallocMode::CodicDet, cfg));
}

TEST(SharedCachePass, SingleCoreComparisonMatchesLiveRunsOnTwoChannels)
{
    DeallocEvalConfig cfg;
    cfg.dram_channels = 2;
    const Workload w =
        generateWorkload(benchmarkParams("bootup", cfg.run.seed));
    expectRowFromLiveRuns(
        compareSingleCore("bootup", cfg),
        runSingleCore(w, DeallocMode::SoftwareZero, cfg),
        runSingleCore(w, DeallocMode::LisaClone, cfg),
        runSingleCore(w, DeallocMode::RowClone, cfg),
        runSingleCore(w, DeallocMode::CodicDet, cfg));
}

TEST(TraceFit, ModuleTooSmallForAMixIsFatal)
{
    // Four cores share 256 MB as 64 MB regions; MIX1's malloc heap
    // reaches past 64 MB into the next core's region.
    const auto mixes = representativeMixes(77);
    DeallocEvalConfig cfg;
    cfg.dram_capacity_mb = 256;
    const Workload &malloc_trace = mixes[0].traces[0];
    ASSERT_GT(malloc_trace.extentBytes(), 64ull << 20);
    try {
        runMultiCore(mixes[0], DeallocMode::CodicDet, cfg);
        FAIL() << "an oversized trace ran";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("'malloc'"), std::string::npos) << msg;
        EXPECT_NE(msg.find(std::to_string(malloc_trace.extentBytes())),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find(std::to_string(64ull << 20)),
                  std::string::npos)
            << msg;
    }
    EXPECT_THROW(compareMultiCore(mixes[0], cfg), FatalError);
    // At 128 MB the heap would run past the end of the module.
    cfg.dram_capacity_mb = 128;
    EXPECT_THROW(compareMultiCoreAll(mixes, cfg), FatalError);
}

TEST(TraceFit, ModuleTooSmallForABenchmarkIsFatal)
{
    DeallocEvalConfig cfg;
    cfg.dram_capacity_mb = 32;
    const Workload w =
        generateWorkload(benchmarkParams("mysql", cfg.run.seed));
    ASSERT_GT(w.extentBytes(), 32ull << 20);
    EXPECT_THROW(runSingleCore(w, DeallocMode::SoftwareZero, cfg),
                 FatalError);
    EXPECT_THROW(compareSingleCoreAll({"shell", "mysql"}, cfg),
                 FatalError);
}

TEST(TraceFit, ExtentUpToTheRegionRuns)
{
    // 64 MB over four cores: 16 MB regions. Each trace touches the
    // last line and the last row of its region.
    constexpr uint64_t kRegion = 16ull << 20;
    DeallocEvalConfig cfg;
    cfg.dram_capacity_mb = 64;
    WorkloadMix mix{"edge", {}};
    for (int i = 0; i < 4; ++i)
        mix.traces.push_back(
            Workload{"edge" + std::to_string(i),
                     {{OpType::Store, kRegion - 1, 0},
                      {OpType::DeallocRegion, kRegion - 8192, 8192}}});
    EXPECT_EQ(mix.traces[0].extentBytes(), kRegion);
    EXPECT_NO_THROW(runMultiCore(mix, DeallocMode::CodicDet, cfg));
    EXPECT_NO_THROW(runMultiCore(mix, DeallocMode::SoftwareZero, cfg));
    // One line further is the next core's region.
    mix.traces[2].ops.push_back({OpType::Load, kRegion, 0});
    EXPECT_THROW(runMultiCore(mix, DeallocMode::CodicDet, cfg),
                 FatalError);
}

} // namespace
} // namespace codic
