/**
 * @file
 * Tests of the campaign engine (every index runs once, one index
 * claimed at a time, exceptions reach the caller) and of the
 * determinism contract of every campaign converted to it: for a fixed
 * seed the results are bit-identical at 1, 2, and 8 threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "circuit/monte_carlo.h"
#include "common/parallel.h"
#include "puf/chip_model.h"
#include "puf/experiments.h"
#include "puf/sig_puf.h"
#include "secdealloc/evaluate.h"
#include "trng/trng.h"

namespace codic {
namespace {

class EngineThreadsTest : public ::testing::TestWithParam<int>
{
};

TEST_P(EngineThreadsTest, ForEachRunsEveryIndexExactlyOnce)
{
    CampaignEngine engine(GetParam());
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    engine.forEach(kN, [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST_P(EngineThreadsTest, EngineIsReusableAcrossCampaigns)
{
    CampaignEngine engine(GetParam());
    for (int round = 0; round < 3; ++round) {
        std::atomic<size_t> sum{0};
        engine.forEach(100, [&](size_t i) { sum += i; });
        EXPECT_EQ(sum.load(), 4950u);
    }
}

TEST_P(EngineThreadsTest, TaskExceptionPropagatesToCaller)
{
    CampaignEngine engine(GetParam());
    EXPECT_THROW(engine.forEach(64,
                                [](size_t i) {
                                    if (i == 37)
                                        throw std::runtime_error("boom");
                                }),
                 std::runtime_error);
    // The engine survives a failed campaign.
    std::atomic<int> n{0};
    engine.forEach(8, [&](size_t) { ++n; });
    EXPECT_EQ(n.load(), 8);
}

TEST_P(EngineThreadsTest, LowestFailingIndexIsRethrown)
{
    // With more than one thread, index 1 throws only after index 6
    // has thrown (plus a grace period for its handler to record it);
    // the caller still gets index 1's exception, as from the
    // sequential loop.
    CampaignEngine engine(GetParam());
    std::atomic<bool> high_thrown{false};
    try {
        engine.forEach(8, [&](size_t i) {
            if (i == 6) {
                high_thrown = true;
                throw std::runtime_error("index 6");
            }
            if (i != 1)
                return;
            if (engine.threads() > 1) {
                const auto deadline = std::chrono::steady_clock::now() +
                                      std::chrono::seconds(10);
                while (!high_thrown &&
                       std::chrono::steady_clock::now() < deadline)
                    std::this_thread::yield();
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
            }
            throw std::runtime_error("index 1");
        });
        FAIL() << "no task exception reached the caller";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "index 1");
    }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, EngineThreadsTest,
                         ::testing::Values(1, 2, 8));

TEST(CampaignEngine, ZeroTasksIsANoOp)
{
    CampaignEngine engine(4);
    bool ran = false;
    engine.forEach(0, [&](size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(CampaignEngine, DefaultPicksAtLeastOneThread)
{
    CampaignEngine engine(0);
    EXPECT_GE(engine.threads(), 1);
}

TEST(CampaignEngine, SlowTaskHoldsBackOnlyItself)
{
    // Index 0 stalls until every other index has run. Threads that
    // claim one index at a time let the other thread drain all 63; a
    // thread that took a block of indices with index 0 would strand
    // the rest of that block behind it until the wait times out.
    CampaignEngine engine(2);
    constexpr size_t kTasks = 64;
    std::atomic<size_t> others_done{0};
    size_t seen = 0;
    engine.forEach(kTasks, [&](size_t i) {
        if (i != 0) {
            ++others_done;
            return;
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (others_done.load() < kTasks - 1 &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::yield();
        seen = others_done.load();
    });
    EXPECT_EQ(seen, kTasks - 1);
}

TEST(ForkStreams, DependOnlyOnSeedAndIndex)
{
    auto a = forkStreams(1234, 4);
    auto b = forkStreams(1234, 16);
    // The first streams are identical regardless of campaign size...
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(a[i].next64(), b[i].next64());
    // ...and distinct streams diverge.
    auto c = forkStreams(1234, 2);
    EXPECT_NE(c[0].next64(), c[1].next64());
}

// --- Determinism of the converted campaigns. ---

std::vector<SimulatedChip>
smallPopulation()
{
    std::vector<SimulatedChip> chips;
    for (uint64_t i = 0; i < 4; ++i) {
        ChipSpec spec;
        spec.seed = 100 + i;
        spec.ddr3l = i % 2 == 1;
        chips.emplace_back(spec);
    }
    return chips;
}

TEST(CampaignDeterminism, JaccardCampaignBitIdenticalAcrossThreads)
{
    const auto chips = smallPopulation();
    std::vector<const SimulatedChip *> ptrs;
    for (const auto &c : chips)
        ptrs.push_back(&c);
    const CodicSigPuf sig;

    JaccardCampaignConfig cfg;
    cfg.pairs = 96;
    cfg.run.seed = 42;

    cfg.run.threads = 1;
    const auto sequential = runJaccardCampaign(sig, ptrs, cfg);
    for (int threads : {2, 8}) {
        cfg.run.threads = threads;
        const auto parallel = runJaccardCampaign(sig, ptrs, cfg);
        ASSERT_EQ(parallel.intra.size(), sequential.intra.size());
        for (size_t i = 0; i < sequential.intra.size(); ++i) {
            EXPECT_EQ(parallel.intra[i], sequential.intra[i])
                << "intra pair " << i << " at " << threads
                << " threads";
            EXPECT_EQ(parallel.inter[i], sequential.inter[i])
                << "inter pair " << i << " at " << threads
                << " threads";
        }
    }
}

TEST(CampaignDeterminism, AuthCampaignMatchesAcrossThreads)
{
    const auto chips = smallPopulation();
    std::vector<const SimulatedChip *> ptrs;
    for (const auto &c : chips)
        ptrs.push_back(&c);
    const CodicSigPuf sig;

    RunOptions run;
    run.seed = 5;
    run.threads = 1;
    const AuthRates seq = runAuthCampaign(sig, ptrs, 64, run);
    run.threads = 8;
    const AuthRates par = runAuthCampaign(sig, ptrs, 64, run);
    EXPECT_EQ(seq.false_rejection, par.false_rejection);
    EXPECT_EQ(seq.false_acceptance, par.false_acceptance);
}

TEST(CampaignDeterminism, MonteCarloTalliesBitIdenticalAcrossThreads)
{
    MonteCarloConfig mc;
    mc.schedule = sigsaSchedule();
    mc.runs = 20000;
    mc.block_runs = 1024; // Many blocks so threads actually split work.
    mc.run.seed = 9;

    mc.run.threads = 1;
    const auto seq = runMonteCarlo(mc);
    for (int threads : {2, 8}) {
        mc.run.threads = threads;
        const auto par = runMonteCarlo(mc);
        EXPECT_EQ(par.ones, seq.ones) << threads << " threads";
        EXPECT_EQ(par.zeros, seq.zeros) << threads << " threads";
    }
}

TEST(CampaignDeterminism, MonteCarloBlockingPreservesLegacyStream)
{
    // A single-block sweep must reproduce the historical sequential
    // stream: published Table 11 numbers do not move.
    MonteCarloConfig mc;
    mc.schedule = sigsaSchedule();
    mc.runs = 5000;
    mc.run.seed = 123;
    MonteCarloConfig blocked = mc;
    blocked.block_runs = mc.runs * 2; // Still one block.
    EXPECT_EQ(runMonteCarlo(mc).ones, runMonteCarlo(blocked).ones);
}

TEST(CampaignDeterminism, TrngEnrollmentMatchesAcrossThreads)
{
    TrngConfig base;
    base.segment_bits = 8192;
    base.run.seed = 77;

    base.run.threads = 1;
    const auto seq = enrollDevices(base, 6);
    base.run.threads = 8;
    const auto par = enrollDevices(base, 6);
    ASSERT_EQ(seq.size(), par.size());
    for (size_t d = 0; d < seq.size(); ++d) {
        ASSERT_EQ(seq[d].sources().size(), par[d].sources().size());
        for (size_t s = 0; s < seq[d].sources().size(); ++s) {
            EXPECT_EQ(seq[d].sources()[s].index,
                      par[d].sources()[s].index);
            EXPECT_EQ(seq[d].sources()[s].p_one,
                      par[d].sources()[s].p_one);
        }
    }
}

TEST(CampaignDeterminism, SecureDeallocComparisonMatchesAcrossThreads)
{
    DeallocEvalConfig cfg;
    cfg.dram_capacity_mb = 256;
    cfg.run.threads = 1;
    const auto seq = compareSingleCore("malloc", cfg);
    cfg.run.threads = 4;
    const auto par = compareSingleCore("malloc", cfg);
    EXPECT_EQ(seq.codic_speedup, par.codic_speedup);
    EXPECT_EQ(seq.lisa_speedup, par.lisa_speedup);
    EXPECT_EQ(seq.rowclone_speedup, par.rowclone_speedup);
    EXPECT_EQ(seq.codic_energy, par.codic_energy);
}

TEST(CampaignDeterminism, BatchComparisonMatchesPerBenchmarkCalls)
{
    DeallocEvalConfig cfg;
    cfg.dram_capacity_mb = 256;
    cfg.run.threads = 4;
    const std::vector<std::string> names = {"malloc", "shell"};
    const auto batch = compareSingleCoreAll(names, cfg);
    ASSERT_EQ(batch.size(), 2u);
    for (size_t b = 0; b < names.size(); ++b) {
        const auto one = compareSingleCore(names[b], cfg);
        EXPECT_EQ(batch[b].name, one.name);
        EXPECT_EQ(batch[b].codic_speedup, one.codic_speedup);
        EXPECT_EQ(batch[b].codic_energy, one.codic_energy);
    }
}

} // namespace
} // namespace codic
