/**
 * @file
 * Tests of the Section 5.3 extension applications: the CODIC TRNG
 * (with SP 800-90B health tests), adaptive-latency activation, the
 * Ambit-style PIM unit, and the self-refresh-reuse destruction
 * timing.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "coldboot/destruction.h"
#include "nist/special_functions.h"
#include "nist/tests.h"
#include "optim/adaptive_act.h"
#include "pim/bitwise.h"
#include "trng/trng.h"

namespace codic {
namespace {

// --- TRNG. ---

TEST(Trng, EnrollmentFindsMetastableCells)
{
    TrngConfig cfg;
    CodicTrng trng(cfg);
    EXPECT_GT(trng.sources().size(), 0u);
    // Metastability window: all sources close to the trip point.
    const double noise = thermalNoiseRms(cfg.params);
    for (const auto &cell : trng.sources()) {
        EXPECT_LT(std::fabs(cell.offset),
                  cfg.metastable_window * noise);
        EXPECT_GT(cell.p_one, 0.1);
        EXPECT_LT(cell.p_one, 0.9);
    }
}

TEST(Trng, EnrollmentIsDeterministicPerDevice)
{
    TrngConfig cfg;
    CodicTrng a(cfg);
    CodicTrng b(cfg);
    ASSERT_EQ(a.sources().size(), b.sources().size());
    for (size_t i = 0; i < a.sources().size(); ++i)
        EXPECT_EQ(a.sources()[i].index, b.sources()[i].index);
    cfg.run.seed = 2;
    CodicTrng c(cfg);
    EXPECT_NE(a.sources().size(), 0u);
    bool identical = a.sources().size() == c.sources().size();
    if (identical) {
        for (size_t i = 0; i < a.sources().size(); ++i)
            identical =
                identical && a.sources()[i].index == c.sources()[i].index;
    }
    EXPECT_FALSE(identical);
}

// Enrollment as a plain scan: one gaussian() per cell, every draw
// transformed. CodicTrng's radius-cut scan must match it bit for bit.
std::vector<MetastableCell>
referenceEnrollment(const TrngConfig &cfg)
{
    Rng device(cfg.run.seed ^ 0x7241D);
    const double sigma = saOffsetSigma(cfg.params);
    const double bias = designedSaBiasAt(cfg.params);
    const double noise_rms = thermalNoiseRms(cfg.params);
    const double window = cfg.metastable_window * noise_rms;
    std::vector<MetastableCell> cells;
    for (int i = 0; i < cfg.segment_bits; ++i) {
        const double residual = device.gaussian(0.0, sigma) + bias;
        if (std::fabs(residual) < window)
            cells.push_back({static_cast<uint32_t>(i), residual,
                             1.0 - normalCdf(-residual / noise_rms)});
    }
    return cells;
}

// Returns the number of sources both scans found.
size_t
expectEnrollmentMatchesReference(const TrngConfig &cfg)
{
    const std::vector<MetastableCell> want = referenceEnrollment(cfg);
    const CodicTrng trng(cfg);
    const std::vector<MetastableCell> &got = trng.sources();
    EXPECT_EQ(got.size(), want.size());
    for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
        EXPECT_EQ(got[i].index, want[i].index);
        EXPECT_EQ(std::bit_cast<uint64_t>(got[i].offset),
                  std::bit_cast<uint64_t>(want[i].offset));
        EXPECT_EQ(std::bit_cast<uint64_t>(got[i].p_one),
                  std::bit_cast<uint64_t>(want[i].p_one));
    }
    return want.size();
}

TEST(Trng, RadiusCutEnrollmentMatchesPlainScan)
{
    // Window 80 puts |bias| inside the window, which turns the cut
    // off; the others cut. Odd and one-cell segments leave the last
    // pair's second normal unused.
    const int segment_bits[] = {65536, 4097, 1};
    size_t sources = 0;
    for (uint64_t seed = 1; seed <= 100; ++seed) {
        for (double temp : {30.0, 55.0, 85.0}) {
            for (double window : {0.5, 1.0, 4.0, 80.0}) {
                TrngConfig cfg;
                cfg.run.seed = seed;
                cfg.params.temperature_c = temp;
                cfg.metastable_window = window;
                cfg.segment_bits = segment_bits[seed % 3];
                sources += expectEnrollmentMatchesReference(cfg);
            }
        }
    }
    // No process variation (sigma = 0: every cell sits at the bias)
    // and a designed bias of the opposite sign.
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        for (double window : {1.0, 80.0}) {
            TrngConfig cfg;
            cfg.run.seed = seed;
            cfg.metastable_window = window;
            cfg.segment_bits = 4097;
            cfg.params.process_variation = 0.0;
            sources += expectEnrollmentMatchesReference(cfg);
            cfg.params.process_variation = 0.04;
            cfg.params.designed_sa_bias = -20e-3;
            sources += expectEnrollmentMatchesReference(cfg);
        }
    }
    EXPECT_GT(sources, 0u);
}

TEST(Trng, HarvestedBitsAreBalancedAndPassCoreTests)
{
    TrngConfig cfg;
    CodicTrng trng(cfg);
    Rng noise(99);
    const auto bits = trng.harvest(200000, noise);
    ASSERT_EQ(bits.size(), 200000u);
    EXPECT_TRUE(nistMonobit(bits).pass());
    EXPECT_TRUE(nistRuns(bits).pass());
    EXPECT_TRUE(nistFrequencyWithinBlock(bits).pass());
    EXPECT_TRUE(nistApproximateEntropy(bits).pass());
}

TEST(Trng, SuccessiveHarvestsDiffer)
{
    TrngConfig cfg;
    CodicTrng trng(cfg);
    Rng noise(7);
    const auto a = trng.harvest(1000, noise);
    const auto b = trng.harvest(1000, noise);
    EXPECT_NE(a, b);
}

TEST(Trng, ThroughputAccounting)
{
    TrngConfig cfg;
    CodicTrng trng(cfg);
    EXPECT_GT(trng.rawThroughputBitsPerSec(), 0.0);
    // Whitening costs ~4x.
    EXPECT_LT(trng.whitenedThroughputBitsPerSec(),
              trng.rawThroughputBitsPerSec() / 2.0);
}

TEST(TrngHealth, PassesOnLiveSource)
{
    TrngConfig cfg;
    CodicTrng trng(cfg);
    Rng noise(12);
    TrngHealthTests health;
    trng.harvest(20000, noise, &health);
    EXPECT_FALSE(health.failed());
    EXPECT_GT(health.observed(), 20000u);
}

TEST(TrngHealth, RepetitionCountTripsOnStuckSource)
{
    TrngHealthTests health(41, 1024, 624);
    for (int i = 0; i < 100; ++i)
        health.feed(1);
    EXPECT_TRUE(health.failed());
}

TEST(TrngHealth, AdaptiveProportionTripsOnBiasedSource)
{
    TrngHealthTests health(1000000, 1024, 624);
    Rng rng(5);
    for (int i = 0; i < 4096; ++i)
        health.feed(rng.chance(0.75) ? 1 : 0);
    EXPECT_TRUE(health.failed());
}

// --- Adaptive activation (Section 5.3.2). ---

TEST(AdaptiveAct, WeakerInstancesCrossLater)
{
    const CircuitParams params = CircuitParams::ddr3();
    VariationDraw weak;
    weak.access_rel = -0.50; // Slow access transistor (weak tail).
    VariationDraw strong;
    strong.access_rel = 0.20;
    EXPECT_GT(columnReadyNs(params, weak),
              columnReadyNs(params, strong));
}

TEST(AdaptiveAct, NominalInstanceHasHeadroom)
{
    // The fixed design leaves margin: a nominal instance is readable
    // well before the worst-case tRCD.
    const CircuitParams params = CircuitParams::ddr3();
    EXPECT_LT(columnReadyNs(params, VariationDraw{}) + 1.0,
              RowReadyProfile::kNominalReadyNs);
}

TEST(AdaptiveAct, ProfileIsDeterministicAndBounded)
{
    const CircuitParams params = CircuitParams::ddr3();
    RowReadyProfile a(params, 42);
    RowReadyProfile b(params, 42);
    for (int64_t row = 0; row < 100; ++row) {
        EXPECT_EQ(a.readyNs(0, row), b.readyNs(0, row));
        EXPECT_GT(a.readyNs(0, row), 5.0);
        EXPECT_LE(a.readyNs(0, row),
                  RowReadyProfile::kNominalReadyNs);
    }
}

TEST(AdaptiveAct, SummaryFindsFastRows)
{
    const CircuitParams params = CircuitParams::ddr3();
    RowReadyProfile profile(params, 42);
    const auto s = profile.summarize(8, 65536);
    EXPECT_GT(s.frac_fast, 0.2);
    EXPECT_LE(s.max_ready_ns, RowReadyProfile::kNominalReadyNs);
    EXPECT_LT(s.min_ready_ns, s.max_ready_ns);
}

TEST(AdaptiveAct, AdaptiveActivationReducesReadLatency)
{
    const auto r = evaluateAdaptiveActivation(CircuitParams::ddr3(),
                                              42, 400, 7);
    EXPECT_GT(r.speedup, 0.01);
    EXPECT_LT(r.adaptive_avg_read_ns, r.baseline_avg_read_ns);
}

TEST(AdaptiveAct, CodicActivationOpensRowForReads)
{
    DramChannel ch(DramConfig::ddr3_1600(64));
    SignalSchedule fast_act;
    fast_act.set(Signal::Wl, 5, 22);
    fast_act.set(Signal::SenseP, 9, 22);
    fast_act.set(Signal::SenseN, 9, 22);
    const int id = ch.registerVariant(fast_act);
    Command codic;
    codic.type = CommandType::Codic;
    codic.addr.row = 10;
    codic.codic_variant = id;
    const Cycle ready = ch.issue(codic, 0);
    EXPECT_TRUE(ch.bankActive(0, 0));
    EXPECT_EQ(ch.openRow(0, 0), 10);
    // Columns usable at sense start (9 ns) + amplification, earlier
    // than the fixed tRCD.
    EXPECT_LE(ready, ch.config().timing.trcd + 3);
    Command rd;
    rd.type = CommandType::Rd;
    rd.addr.row = 10;
    EXPECT_NO_THROW(ch.issueAtEarliest(rd, ready));
}

// --- PIM (Section 5.3.3). ---

RowPayload
patternRow(uint64_t seed)
{
    Rng rng(seed);
    RowPayload row(AmbitUnit::kWordsPerRow);
    for (auto &w : row)
        w = rng.next64();
    return row;
}

TEST(Pim, CopyMatchesSource)
{
    DramChannel ch(DramConfig::ddr3_1600(64));
    AmbitUnit unit(ch, 0);
    const RowPayload src = patternRow(1);
    Cycle t = unit.writeRow(10, src, 0);
    unit.copy(10, 11, t);
    EXPECT_EQ(unit.readRow(11), src);
}

TEST(Pim, AndOrNotComputeExactlyUnderCodic)
{
    DramChannel ch(DramConfig::ddr3_1600(64));
    AmbitUnit unit(ch, 0, PimMode::Codic);
    const RowPayload a = patternRow(2);
    const RowPayload b = patternRow(3);
    Cycle t = unit.writeRow(10, a, 0);
    t = unit.writeRow(11, b, t);

    t = unit.bitwiseAnd(10, 11, 12, t);
    t = unit.bitwiseOr(10, 11, 13, t);
    t = unit.bitwiseNot(10, 14, t);

    RowPayload expect_and(AmbitUnit::kWordsPerRow);
    RowPayload expect_or(AmbitUnit::kWordsPerRow);
    RowPayload expect_not(AmbitUnit::kWordsPerRow);
    for (size_t i = 0; i < a.size(); ++i) {
        expect_and[i] = a[i] & b[i];
        expect_or[i] = a[i] | b[i];
        expect_not[i] = ~a[i];
    }
    EXPECT_EQ(unit.readRow(12), expect_and);
    EXPECT_EQ(unit.readRow(13), expect_or);
    EXPECT_EQ(unit.readRow(14), expect_not);
}

TEST(Pim, ComputeDramModeIsUnreliable)
{
    DramChannel ch(DramConfig::ddr3_1600(64));
    AmbitUnit unit(ch, 0, PimMode::ComputeDram, 0.4);
    const RowPayload a = patternRow(2);
    const RowPayload b = patternRow(3);
    Cycle t = unit.writeRow(10, a, 0);
    t = unit.writeRow(11, b, t);
    unit.bitwiseAnd(10, 11, 12, t);

    RowPayload expect_and(AmbitUnit::kWordsPerRow);
    for (size_t i = 0; i < a.size(); ++i)
        expect_and[i] = a[i] & b[i];
    const double ber = bitErrorRate(unit.readRow(12), expect_and);
    // ~fraction/2 of the bits corrupted (paper Section 1: only a
    // small fraction of cells compute reliably).
    EXPECT_GT(ber, 0.1);
    EXPECT_LT(ber, 0.3);
}

TEST(Pim, InDramOpsBeatColumnInterfaceBandwidth)
{
    // One AND over an 8 KB row in-DRAM vs reading both operands and
    // writing the result through the column interface.
    DramChannel ch(DramConfig::ddr3_1600(64));
    AmbitUnit unit(ch, 0);
    const RowPayload a = patternRow(4);
    Cycle t = unit.writeRow(10, a, 0);
    t = unit.writeRow(11, a, t);
    const Cycle start = t;
    const Cycle done = unit.bitwiseAnd(10, 11, 12, t);
    const double in_dram_ns = ch.config().cyclesToNs(done - start);
    // Column-interface estimate: 3 x 128 bursts at ~5 ns a burst.
    const double interface_ns = 3.0 * 128.0 * 5.0;
    EXPECT_LT(in_dram_ns, interface_ns);
}

TEST(Pim, BitErrorRateHelper)
{
    RowPayload a(AmbitUnit::kWordsPerRow, 0);
    RowPayload b(AmbitUnit::kWordsPerRow, 0);
    EXPECT_DOUBLE_EQ(bitErrorRate(a, b), 0.0);
    b[0] = 0xff;
    EXPECT_NEAR(bitErrorRate(a, b),
                8.0 / (1024.0 * 64.0), 1e-12);
}

// --- Self-refresh-reuse destruction (Section 5.2.2). ---

TEST(SelfRefreshReuse, TimingBoundsAreOrdered)
{
    const auto t = selfRefreshReuseTiming(DramConfig::ddr3_1600(8192));
    EXPECT_GT(t.distributed_ns, t.burst_ns);
    EXPECT_DOUBLE_EQ(t.distributed_ns, 64e6);
}

TEST(SelfRefreshReuse, SlowerThanDedicatedEngineButZeroCost)
{
    // The cost-optimized implementation trades speed: one refresh
    // window (64 ms) vs the dedicated engine's ~8 ms at 8 GB.
    const auto dedicated = runDestruction(
        DramConfig::ddr3_1600(8192), DestructionMechanism::Codic);
    const auto reuse =
        selfRefreshReuseTiming(DramConfig::ddr3_1600(8192));
    EXPECT_GT(reuse.distributed_ns, dedicated.time_ns);
}

} // namespace
} // namespace codic
