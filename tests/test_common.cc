/**
 * @file
 * Unit tests for the common utilities: RNG, statistics, histograms,
 * text tables, and the logging/assertion helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "common/logging.h"
#include "common/result_sink.h"
#include "common/rng.h"
#include "common/run_options.h"
#include "common/stats.h"
#include "common/table.h"

namespace codic {
namespace {

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next64() == b.next64())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(8);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform(-3.5, 2.5);
        EXPECT_GE(u, -3.5);
        EXPECT_LT(u, 2.5);
    }
}

TEST(Rng, UniformMeanIsCentered)
{
    Rng rng(9);
    RunningStats s;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.uniform());
    EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

class RngBelowTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RngBelowTest, StaysBelowBoundAndCoversRange)
{
    const uint64_t n = GetParam();
    Rng rng(n * 31 + 1);
    std::set<uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const uint64_t v = rng.below(n);
        EXPECT_LT(v, n);
        seen.insert(v);
    }
    if (n <= 8) {
        EXPECT_EQ(seen.size(), n); // Small ranges fully covered.
    }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBelowTest,
                         ::testing::Values(1, 2, 3, 8, 100, 1000,
                                           1ull << 40));

TEST(Rng, BelowZeroPanics)
{
    Rng rng(1);
    EXPECT_THROW(rng.below(0), PanicError);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int64_t v = rng.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo = saw_lo || v == -2;
        saw_hi = saw_hi || v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    RunningStats s;
    for (int i = 0; i < 200000; ++i)
        s.add(rng.gaussian());
    EXPECT_NEAR(s.mean(), 0.0, 0.01);
    EXPECT_NEAR(s.stddev(), 1.0, 0.01);
}

TEST(Rng, GaussianScaled)
{
    Rng rng(14);
    RunningStats s;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.gaussian(5.0, 2.0));
    EXPECT_NEAR(s.mean(), 5.0, 0.05);
    EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, GaussianRadiusBoundsEveryTransform)
{
    // The smallest u1 gaussian() can draw is 2^-53, which gives the
    // largest radius; the constant must sit just above it.
    const double r_max = std::sqrt(-2.0 * std::log(0x1.0p-53));
    EXPECT_GT(kGaussianRadius, r_max);
    EXPECT_LT(kGaussianRadius - r_max, 1e-6);
    for (int i = 0; i <= 4096; ++i) {
        const double u2 = i / 4096.0 * (1.0 - 0x1.0p-53);
        for (double u1 : {0x1.0p-53, 0x1.0p-52, 0.5, 1.0 - 0x1.0p-53}) {
            const auto [first, second] = boxMuller(u1, u2);
            EXPECT_LE(std::fabs(first), kGaussianRadius);
            EXPECT_LE(std::fabs(second), kGaussianRadius);
        }
    }
    Rng rng(16);
    for (int i = 0; i < 100000; ++i)
        EXPECT_LE(std::fabs(rng.gaussian()), kGaussianRadius);
}

TEST(Rng, SkipGaussianKeepsStreamInStep)
{
    // Random interleavings of every draw, where `skip` replaces some
    // of plain's gaussian() calls with skipGaussian(). `pending`
    // tracks whether a pair's second normal is cached, so the skips
    // are counted from both cache states.
    size_t skips_from[2] = {0, 0};
    for (uint64_t seed = 1; seed <= 50; ++seed) {
        Rng skip(seed), plain(seed), ops(seed + 1000);
        bool pending = false;
        for (int i = 0; i < 2000; ++i) {
            switch (ops.below(5)) {
              case 0:
                ASSERT_EQ(skip.next64(), plain.next64());
                break;
              case 1:
                ASSERT_EQ(skip.uniform(), plain.uniform());
                break;
              case 2:
                ASSERT_EQ(skip.gaussian(), plain.gaussian());
                pending = !pending;
                break;
              default:
                ++skips_from[pending];
                skip.skipGaussian();
                plain.gaussian();
                pending = !pending;
                break;
            }
        }
        EXPECT_EQ(skip.gaussian(), plain.gaussian());
        EXPECT_EQ(skip.next64(), plain.next64());
    }
    EXPECT_GT(skips_from[0], 2000u);
    EXPECT_GT(skips_from[1], 2000u);

    // From an empty cache the skip keeps the pair's uniforms, and the
    // next gaussian() turns them into the pair's second value.
    Rng a(7), b(7);
    a.skipGaussian();
    const auto [u1, u2] = b.boxMullerUniforms();
    EXPECT_EQ(a.gaussian(), boxMuller(u1, u2).second);
    EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, ChanceProbability)
{
    Rng rng(15);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        if (rng.chance(0.25))
            ++hits;
    EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(Rng, ForkedStreamsAreIndependent)
{
    Rng parent(21);
    Rng a = parent.fork(1);
    Rng b = parent.fork(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next64() == b.next64())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(SplitMix, KnownSequenceIsStable)
{
    SplitMix64 a(42);
    SplitMix64 b(42);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_EQ(a.next(), b.next());
    SplitMix64 c(43);
    EXPECT_NE(SplitMix64(42).next(), c.next());
}

TEST(RunningStats, EmptyDefaults)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MeanAndVariance)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesCombined)
{
    Rng rng(3);
    RunningStats all;
    RunningStats a;
    RunningStats b;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.gaussian();
        all.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(RunningStats, MergeWithEmpty)
{
    RunningStats a;
    a.add(1.0);
    RunningStats b;
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    b.merge(a);
    EXPECT_EQ(b.count(), 1u);
    EXPECT_EQ(b.mean(), 1.0);
}

TEST(Histogram, BinningAndClamping)
{
    Histogram h(0.0, 1.0, 10);
    h.add(0.05);  // bin 0
    h.add(0.95);  // bin 9
    h.add(-5.0);  // clamped to bin 0
    h.add(7.0);   // clamped to bin 9
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(9), 2u);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.binFraction(0), 0.5);
}

TEST(Histogram, BinCenters)
{
    Histogram h(0.0, 1.0, 4);
    EXPECT_DOUBLE_EQ(h.binCenter(0), 0.125);
    EXPECT_DOUBLE_EQ(h.binCenter(3), 0.875);
}

TEST(Histogram, AsciiRendersOneCharPerBin)
{
    Histogram h(0.0, 1.0, 16);
    for (int i = 0; i < 100; ++i)
        h.add(0.5);
    EXPECT_EQ(h.ascii().size(), 16u);
    EXPECT_NE(h.ascii()[8], ' ');
}

TEST(Histogram, InvalidConstructionPanics)
{
    EXPECT_THROW(Histogram(1.0, 0.0, 4), PanicError);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), PanicError);
}

TEST(Percentile, InterpolatesCorrectly)
{
    std::vector<double> v{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t({"A", "LongHeader"});
    t.addRow({"x", "1"});
    const std::string out = t.render();
    EXPECT_NE(out.find("A"), std::string::npos);
    EXPECT_NE(out.find("LongHeader"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
    EXPECT_EQ(t.rows(), 1u);
}

TEST(TextTable, ArityMismatchPanics)
{
    TextTable t({"A", "B"});
    EXPECT_THROW(t.addRow({"only-one"}), PanicError);
}

TEST(Format, TimeUnitsScale)
{
    EXPECT_EQ(fmtTimeNs(35.0), "35.0 ns");
    EXPECT_EQ(fmtTimeNs(1500.0), "1.50 us");
    EXPECT_EQ(fmtTimeNs(2.2e9), "2.20 s");
}

TEST(Format, EnergyUnitsScale)
{
    EXPECT_EQ(fmtEnergyNj(17.2), "17.20 nJ");
    EXPECT_EQ(fmtEnergyNj(0.5), "500.0 pJ");
    EXPECT_EQ(fmtEnergyNj(2.0e6), "2.00 mJ");
}

namespace {

/** One CSV data line for a single-cell row with the given value. */
std::string
csvLineFor(const std::string &value)
{
    RunOptions options;
    std::ostringstream out;
    CsvResultSink sink(out);
    sink.beginScenario("s", "d", options);
    sink.row("sec", ResultRow().add("k", value));
    sink.endScenario();
    const std::string text = out.str();
    // Second line (after the header), without the trailing newline.
    const size_t start = text.find('\n') + 1;
    return text.substr(start, text.rfind('\n') - start);
}

} // namespace

TEST(CsvEscaping, PlainCellsPassThroughUnquoted)
{
    EXPECT_EQ(csvLineFor("plain value"), "s,1,sec,0,k,plain value");
}

TEST(CsvEscaping, CommasAreQuoted)
{
    EXPECT_EQ(csvLineFor("a,b"), "s,1,sec,0,k,\"a,b\"");
}

TEST(CsvEscaping, QuotesAreDoubledAndQuoted)
{
    EXPECT_EQ(csvLineFor("say \"hi\""),
              "s,1,sec,0,k,\"say \"\"hi\"\"\"");
}

TEST(CsvEscaping, LineBreaksStayInsideTheCell)
{
    EXPECT_EQ(csvLineFor("two\nlines"), "s,1,sec,0,k,\"two\nlines\"");
    EXPECT_EQ(csvLineFor("cr\rcell"), "s,1,sec,0,k,\"cr\rcell\"");
}

TEST(CsvEscaping, SectionAndKeyCellsAreEscapedToo)
{
    RunOptions options;
    std::ostringstream out;
    CsvResultSink sink(out);
    sink.beginScenario("s", "d", options);
    sink.row("free, text section", ResultRow().add("key,1", 2));
    sink.endScenario();
    EXPECT_NE(out.str().find("\"free, text section\""),
              std::string::npos);
    EXPECT_NE(out.str().find("\"key,1\""), std::string::npos);
}

TEST(RunOptionsValidate, AcceptsDefaultsAndSaneValues)
{
    RunOptions options;
    EXPECT_NO_THROW(options.validate());
    options.threads = 8;
    options.repeats = 3;
    options.scale = 0.5;
    options.zipf = 1.2;
    EXPECT_NO_THROW(options.validate());
}

TEST(RunOptionsValidate, RejectsNegativeThreads)
{
    RunOptions options;
    options.threads = -1;
    EXPECT_THROW(options.validate(), FatalError);
}

TEST(RunOptionsValidate, RejectsNonPositiveRepeats)
{
    RunOptions options;
    options.repeats = 0;
    EXPECT_THROW(options.validate(), FatalError);
    options.repeats = -4;
    EXPECT_THROW(options.validate(), FatalError);
}

TEST(RunOptionsValidate, RejectsOutOfRangeScale)
{
    RunOptions options;
    for (double bad : {0.0, -0.5, 1.5}) {
        options.scale = bad;
        EXPECT_THROW(options.validate(), FatalError) << bad;
    }
}

TEST(RunOptionsValidate, RejectsNegativeFleetOptions)
{
    RunOptions options;
    options.devices = -1;
    EXPECT_THROW(options.validate(), FatalError);
    options.devices = 0;
    options.zipf = -0.5; // -1 is "scenario default"; -0.5 is junk.
    EXPECT_THROW(options.validate(), FatalError);
}

TEST(RunOptionsScaled, ScalesAndKeepsAtLeastOneUnit)
{
    RunOptions options;
    options.scale = 0.5;
    EXPECT_EQ(options.scaled(1000), 500u);
    options.scale = 1e-9;
    EXPECT_EQ(options.scaled(1000), 1u);
}

TEST(RunOptionsScaled, PanicsOnOutOfContractScaleInsteadOfClamping)
{
    RunOptions options;
    options.scale = 0.0;
    EXPECT_THROW(options.scaled(100), PanicError);
    options.scale = 2.0;
    EXPECT_THROW(options.scaled(100), PanicError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom"), PanicError);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config"), FatalError);
}

TEST(Logging, AssertMacroFiresOnFalse)
{
    EXPECT_THROW(CODIC_ASSERT(1 == 2), PanicError);
    EXPECT_NO_THROW(CODIC_ASSERT(1 == 1));
}

} // namespace
} // namespace codic
