/**
 * @file
 * Tests of the PUF framework: the 136-chip population (Table 12),
 * deterministic per-device behaviour, the three PUF implementations,
 * Jaccard metrics (Fig. 5), temperature/aging campaigns (Fig. 6),
 * exact-match authentication rates, and the Table 4 response-time
 * model.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "puf/chip_model.h"
#include "puf/experiments.h"
#include "puf/latency_puf.h"
#include "puf/prelat_puf.h"
#include "puf/response_time.h"
#include "puf/sig_puf.h"

namespace codic {
namespace {

class PopulationFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        chips_ = new std::vector<SimulatedChip>(buildPaperPopulation());
    }

    static void
    TearDownTestSuite()
    {
        delete chips_;
        chips_ = nullptr;
    }

    static std::vector<const SimulatedChip *>
    all()
    {
        std::vector<const SimulatedChip *> out;
        for (const auto &c : *chips_)
            out.push_back(&c);
        return out;
    }

    static std::vector<SimulatedChip> *chips_;
};

std::vector<SimulatedChip> *PopulationFixture::chips_ = nullptr;

// --- Population structure (paper Tables 3 and 12). ---

TEST_F(PopulationFixture, Has136Chips)
{
    EXPECT_EQ(chips_->size(), 136u);
}

TEST_F(PopulationFixture, VendorCountsMatchTable3)
{
    int a = 0;
    int b = 0;
    int c = 0;
    for (const auto &chip : *chips_) {
        switch (chip.spec().vendor) {
          case Vendor::A: ++a; break;
          case Vendor::B: ++b; break;
          case Vendor::C: ++c; break;
        }
    }
    EXPECT_EQ(a, 64);
    EXPECT_EQ(b, 40);
    EXPECT_EQ(c, 32);
}

TEST_F(PopulationFixture, VoltageSplitMatchesFig5)
{
    // 64 DDR3 chips at 1.5 V and 72 DDR3L chips at 1.35 V.
    EXPECT_EQ(filterByVoltage(*chips_, false).size(), 64u);
    EXPECT_EQ(filterByVoltage(*chips_, true).size(), 72u);
}

TEST_F(PopulationFixture, FifteenModules)
{
    std::set<std::string> modules;
    for (const auto &chip : *chips_)
        modules.insert(chip.spec().module);
    EXPECT_EQ(modules.size(), 15u);
}

TEST_F(PopulationFixture, CoverageAndFlipBandsMatchSection61)
{
    const CoverageStats s = coverageStats(*chips_);
    // Paper: 34-99 % coverage, 0.01-0.22 % flip cells.
    EXPECT_GE(s.min_coverage, 0.34);
    EXPECT_LE(s.max_coverage, 0.99);
    EXPECT_GE(s.min_flip_fraction, 0.0001);
    EXPECT_LE(s.max_flip_fraction, 0.0022);
}

TEST_F(PopulationFixture, SegmentsScaleWithCapacity)
{
    for (const auto &chip : *chips_) {
        if (chip.spec().capacity_gbit == 2.0) {
            EXPECT_EQ(chip.segments(), (2ull << 30) / 8192 * 8 / 8);
        }
        // 4 Gb chip contributes to 4 Gb x 8 / 8 KB segments.
    }
}

// --- Determinism: a chip is a stable device. ---

TEST_F(PopulationFixture, SigCellsAreDeterministicPerSegment)
{
    const SimulatedChip &chip = (*chips_)[0];
    const auto a = chip.sigCells(17, 65536);
    const auto b = chip.sigCells(17, 65536);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].index, b[i].index);
        EXPECT_EQ(a[i].stability, b[i].stability);
    }
}

TEST_F(PopulationFixture, DistinctSegmentsHaveDistinctPopulations)
{
    const SimulatedChip &chip = (*chips_)[0];
    const auto a = chip.sigCells(1, 65536);
    const auto b = chip.sigCells(2, 65536);
    size_t common = 0;
    for (const auto &ca : a)
        for (const auto &cb : b)
            if (ca.index == cb.index)
                ++common;
    EXPECT_LT(common, std::max<size_t>(1, a.size() / 8));
}

TEST_F(PopulationFixture, DistinctChipsHaveDistinctPopulations)
{
    const auto a = (*chips_)[0].sigCells(1, 65536);
    const auto b = (*chips_)[1].sigCells(1, 65536);
    size_t common = 0;
    for (const auto &ca : a)
        for (const auto &cb : b)
            if (ca.index == cb.index)
                ++common;
    EXPECT_LT(common, std::max<size_t>(1, a.size() / 8));
}

TEST_F(PopulationFixture, PrelatColumnsSharedAcrossSegmentsOfAChip)
{
    // The column-structured mechanism: two segments in the same bank
    // share most weak columns (the PreLatPUF uniqueness problem).
    const SimulatedChip &chip = (*chips_)[0];
    const auto a = chip.prelatColumns(8, 65536);  // Bank 0.
    const auto b = chip.prelatColumns(16, 65536); // Bank 0 again.
    size_t common = 0;
    for (const auto &ca : a)
        for (const auto &cb : b)
            if (ca.index == cb.index)
                ++common;
    EXPECT_GT(static_cast<double>(common),
              0.5 * static_cast<double>(std::min(a.size(), b.size())));
}

TEST_F(PopulationFixture, SigPopulationSizeTracksFlipFraction)
{
    const SimulatedChip &chip = (*chips_)[0];
    RunningStats s;
    for (uint64_t seg = 0; seg < 50; ++seg)
        s.add(static_cast<double>(chip.sigCells(seg, 65536).size()));
    const double expected = chip.sigFlipFraction() * 65536.0;
    EXPECT_NEAR(s.mean(), expected, expected * 0.5 + 2.0);
}

// Every population is drawn as rng.below(bits) per position, then
// sort + unique. drawPositions must return exactly that and leave the
// stream where the plain loop leaves it.
void
expectDrawMatchesSortUnique(uint64_t seed, size_t count, int bits)
{
    Rng got_rng(seed);
    Rng want_rng(seed);
    const std::vector<uint32_t> got = drawPositions(got_rng, count, bits);
    std::vector<uint32_t> want;
    for (size_t i = 0; i < count; ++i)
        want.push_back(static_cast<uint32_t>(
            want_rng.below(static_cast<uint64_t>(bits))));
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    EXPECT_EQ(got, want) << "seed " << seed << " count " << count
                         << " bits " << bits;
    EXPECT_EQ(got_rng.next64(), want_rng.next64())
        << "seed " << seed << " count " << count << " bits " << bits;
}

TEST(ChipModel, DrawPositionsMatchesSortUnique)
{
    // The bitmap keeps one summary bit per 64-bit word. 4,097, 65,600
    // and 100,000 bits end in a partial bitmap word and a partial
    // summary word (65, 1,025 and 1,563 words); 12,288 bits fill
    // three summary words exactly.
    const int bit_counts[] = {1,    63,   64,    65,    1000,
                              4097, 12288, 65536, 65600, 100000};
    // Every count 0-2,000 covers both sides of the sort/bitmap switch
    // and bitmaps from sparse to saturated.
    for (int bits : bit_counts)
        for (size_t count = 0; count <= 2000; ++count)
            expectDrawMatchesSortUnique(count * 7919 + bits, count, bits);
    // Many seeds around the switch and at population-typical counts.
    for (int bits : bit_counts)
        for (size_t count : {0, 1, 2, 7, 12, 62, 63, 64, 65, 66, 145, 500,
                             786})
            for (uint64_t seed = 1; seed <= 40; ++seed)
                expectDrawMatchesSortUnique(seed, count, bits);
    // A bitmap far larger than the draws stays a sort.
    for (uint64_t seed = 1; seed <= 5; ++seed)
        expectDrawMatchesSortUnique(seed, 100, 1 << 30);
}

// --- Jaccard metric. ---

TEST(Jaccard, EdgeCases)
{
    Response empty;
    Response a{{1, 2, 3}};
    Response b{{3, 4}};
    EXPECT_DOUBLE_EQ(jaccard(empty, empty), 1.0);
    EXPECT_DOUBLE_EQ(jaccard(a, a), 1.0);
    EXPECT_DOUBLE_EQ(jaccard(a, empty), 0.0);
    EXPECT_DOUBLE_EQ(jaccard(a, b), 0.25); // 1 shared, 4 in union.
}

TEST(Jaccard, DisjointSetsScoreZero)
{
    Response a{{1, 2}};
    Response b{{3, 4}};
    EXPECT_DOUBLE_EQ(jaccard(a, b), 0.0);
}

// --- PUF quality campaigns (paper Fig. 5). ---

TEST_F(PopulationFixture, SigPufIntraNearOneInterNearZero)
{
    CodicSigPuf sig;
    JaccardCampaignConfig cfg;
    cfg.pairs = 400;
    const auto r = runJaccardCampaign(sig, all(), cfg);
    EXPECT_GT(r.intraStats().mean(), 0.98);
    EXPECT_LT(r.interStats().mean(), 0.02);
}

TEST_F(PopulationFixture, LatencyPufInterNearZeroIntraDispersed)
{
    DramLatencyPuf lat;
    JaccardCampaignConfig cfg;
    cfg.pairs = 300;
    const auto r = runJaccardCampaign(lat, all(), cfg);
    EXPECT_LT(r.interStats().mean(), 0.02);
    EXPECT_GT(r.intraStats().mean(), 0.6);
    // Dispersed: visibly less repeatable than CODIC-sig.
    EXPECT_LT(r.intraStats().mean(), 0.97);
}

TEST_F(PopulationFixture, PrelatPufPoorUniqueness)
{
    PrelatPuf pre;
    JaccardCampaignConfig cfg;
    cfg.pairs = 300;
    const auto r = runJaccardCampaign(pre, all(), cfg);
    EXPECT_GT(r.intraStats().mean(), 0.98);
    // The paper's headline observation: Inter-Jaccard dispersed and
    // far from zero.
    EXPECT_GT(r.interStats().mean(), 0.25);
    EXPECT_GT(r.interStats().stddev(), 0.03);
}

TEST_F(PopulationFixture, Ddr3lSigResponsesAtLeastAsStable)
{
    CodicSigPuf sig;
    JaccardCampaignConfig cfg;
    cfg.pairs = 300;
    const auto low =
        runJaccardCampaign(sig, filterByVoltage(*chips_, true), cfg);
    const auto high =
        runJaccardCampaign(sig, filterByVoltage(*chips_, false), cfg);
    EXPECT_GE(low.intraStats().mean() + 0.005,
              high.intraStats().mean());
}

// --- Temperature (paper Fig. 6) and aging. ---

TEST_F(PopulationFixture, SigPufRobustToTemperature)
{
    CodicSigPuf sig;
    RunningStats s;
    for (double v : runTemperatureCampaign(sig, all(), 55.0, 300, {.seed = 5}))
        s.add(v);
    EXPECT_GT(s.mean(), 0.85);
}

TEST_F(PopulationFixture, PrelatPufMostRobustToTemperature)
{
    PrelatPuf pre;
    CodicSigPuf sig;
    RunningStats sp;
    for (double v : runTemperatureCampaign(pre, all(), 55.0, 300, {.seed = 5}))
        sp.add(v);
    RunningStats ss;
    for (double v : runTemperatureCampaign(sig, all(), 55.0, 300, {.seed = 5}))
        ss.add(v);
    EXPECT_GT(sp.mean(), 0.97);
    EXPECT_GE(sp.mean(), ss.mean());
}

TEST_F(PopulationFixture, LatencyPufDegradesMonotonicallyWithDelta)
{
    DramLatencyPuf lat;
    double prev = 1.1;
    for (double delta : {0.0, 15.0, 25.0, 55.0}) {
        RunningStats s;
        for (double v :
             runTemperatureCampaign(lat, all(), delta, 200, {.seed = 5}))
            s.add(v);
        EXPECT_LT(s.mean(), prev);
        prev = s.mean();
    }
    // Strong sensitivity at the extreme delta (paper Fig. 6).
    EXPECT_LT(prev, 0.45);
}

TEST_F(PopulationFixture, SigPufRobustToAging)
{
    CodicSigPuf sig;
    RunningStats s;
    for (double v : runAgingCampaign(sig, all(), 300, {.seed = 5}))
        s.add(v);
    // Paper: most Intra-Jaccard indices are 1 after aging.
    EXPECT_GT(s.mean(), 0.95);
}

// --- Authentication (paper Section 6.1.1). ---

TEST_F(PopulationFixture, NaiveAuthRatesMatchPaper)
{
    CodicSigPuf sig;
    const AuthRates rates = runAuthCampaign(sig, all(), 3000, {.seed = 11});
    // Paper: 0.64 % average false rejection, 0.00 % false acceptance.
    EXPECT_NEAR(rates.false_rejection, 0.0064, 0.006);
    EXPECT_DOUBLE_EQ(rates.false_acceptance, 0.0);
}

// --- Filters. ---

TEST_F(PopulationFixture, SigFilterMakesResponsesRepeatable)
{
    CodicSigPuf sig;
    const SimulatedChip &chip = (*chips_)[3];
    Challenge ch{42, 65536};
    const Response a = sig.evaluateFiltered(chip, ch, {30.0, false, 1});
    const Response b = sig.evaluateFiltered(chip, ch, {30.0, false, 2});
    EXPECT_EQ(a, b);
}

// The majority filter as a plain loop: filter_challenges separate
// evaluate() calls with the documented per-pass nonces, counted in a
// map. The build-once filters must match it exactly.
Response
referenceMajority(const DramPuf &puf, const SimulatedChip &chip,
                  const Challenge &ch, const QueryEnv &env, int passes,
                  uint64_t nonce_multiplier)
{
    std::map<uint32_t, int> votes;
    for (int i = 0; i < passes; ++i) {
        QueryEnv e = env;
        e.nonce = env.nonce * nonce_multiplier +
                  static_cast<uint64_t>(i) + 1;
        for (uint32_t c : puf.evaluate(chip, ch, e).cells)
            ++votes[c];
    }
    Response r;
    for (const auto &[cell, count] : votes)
        if (count * 2 > passes)
            r.cells.push_back(cell);
    return r;
}

TEST_F(PopulationFixture, FilteredEvaluationsMatchPlainMajorityVote)
{
    // Two DDR3 and two DDR3L chips, several segments each. The
    // flicker-heavy parameter sets make the per-pass noise decide
    // votes; the defaults have few marginal cells.
    std::vector<const SimulatedChip *> chips;
    for (bool ddr3l : {false, true}) {
        const auto group = filterByVoltage(*chips_, ddr3l);
        chips.push_back(group[0]);
        chips.push_back(group[5]);
    }
    size_t flickered = 0;
    for (int passes : {1, 4, 5}) {
        for (bool flicker_heavy : {false, true}) {
            SigPufParams sp;
            PrelatPufParams pp;
            sp.filter_challenges = passes;
            pp.filter_challenges = passes;
            if (flicker_heavy) {
                sp.marginal_fraction = 0.3;
                sp.ddr3l_marginal_fraction = 0.3;
                pp.marginal_fraction = 0.3;
            }
            const CodicSigPuf sig(sp);
            const PrelatPuf prelat(pp);
            for (const SimulatedChip *chip : chips) {
                for (uint64_t segment : {0, 3, 42}) {
                    const Challenge ch{segment, 65536};
                    for (double temp : {30.0, 55.0, 85.0}) {
                        for (bool aged : {false, true}) {
                            const QueryEnv env{temp, aged, segment + 7};
                            const Response s =
                                sig.evaluateFiltered(*chip, ch, env);
                            EXPECT_EQ(s, referenceMajority(sig, *chip, ch,
                                                           env, passes,
                                                           1000003ULL));
                            const Response p =
                                prelat.evaluateFiltered(*chip, ch, env);
                            EXPECT_EQ(p, referenceMajority(prelat, *chip,
                                                           ch, env, passes,
                                                           1000033ULL));
                            if (s != sig.evaluate(*chip, ch, env) ||
                                p != prelat.evaluate(*chip, ch, env))
                                ++flickered;
                        }
                    }
                }
            }
        }
    }
    // The noise really decided some votes.
    EXPECT_GT(flickered, 0u);
}

TEST_F(PopulationFixture, LatencyFilterSelectsHighProbabilityCells)
{
    DramLatencyPuf lat;
    const SimulatedChip &chip = (*chips_)[3];
    Challenge ch{42, 65536};
    const Response filtered =
        lat.evaluateFiltered(chip, ch, {30.0, false, 1});
    const Response raw = lat.evaluate(chip, ch, {30.0, false, 1});
    // The filter is selective: it keeps a strict subset scale.
    EXPECT_LT(filtered.size(), raw.size());
    EXPECT_GT(filtered.size(), 0u);
}

// The Latency PUF's failure probability and both evaluations as
// plain per-cell loops: one gaussian() or chance() per cell, then a
// sort. The pair cut must match them bit for bit.
double
referenceFailureProbability(const LatencyPufParams &params,
                            const LatencyWeakCell &cell,
                            double temperature_c)
{
    const double dt = temperature_c - 30.0;
    const double theta = params.theta_30c + params.theta_per_c * dt;
    const double strength =
        cell.strength +
        cell.temp_shift * params.temp_shift_sigma * (dt / 55.0);
    const double z = (theta - strength) / params.width;
    return 1.0 / (1.0 + std::exp(-z));
}

Response
referenceLatencyFiltered(const LatencyPufParams &params,
                         const SimulatedChip &chip,
                         const Challenge &challenge, const QueryEnv &env)
{
    Rng noise = chip.domainRng(0x1A7F, env.nonce ^ 0x77aa);
    Response r;
    for (const auto &cell : chip.latencyWeakCells(
             challenge.segment_id, challenge.segment_bits)) {
        const double p =
            referenceFailureProbability(params, cell, env.temperature_c);
        const double n = static_cast<double>(params.reads);
        const double mean = n * p;
        const double sd = std::sqrt(std::max(n * p * (1.0 - p), 1e-12));
        const int failures = static_cast<int>(
            std::llround(noise.gaussian(mean, sd)));
        if (failures > params.filter_threshold)
            r.cells.push_back(cell.index);
    }
    std::sort(r.cells.begin(), r.cells.end());
    return r;
}

Response
referenceLatencyRaw(const LatencyPufParams &params,
                    const SimulatedChip &chip, const Challenge &challenge,
                    const QueryEnv &env)
{
    Rng noise = chip.domainRng(0x1A7, env.nonce ^ 0x5c4d);
    Response r;
    for (const auto &cell : chip.latencyWeakCells(
             challenge.segment_id, challenge.segment_bits)) {
        if (noise.chance(referenceFailureProbability(params, cell,
                                                     env.temperature_c)))
            r.cells.push_back(cell.index);
    }
    std::sort(r.cells.begin(), r.cells.end());
    return r;
}

TEST_F(PopulationFixture, LatencyFilterMatchesPlainPerCellLoop)
{
    std::vector<LatencyPufParams> param_sets(1); // the defaults
    for (int reads : {1, 5, 10, 25, 50}) {
        // The puf_ablation_filter sweep.
        LatencyPufParams p;
        p.reads = reads;
        p.filter_threshold = reads * 9 / 10;
        param_sets.push_back(p);
    }
    param_sets.emplace_back().width = 0.01;
    param_sets.emplace_back().temp_shift_sigma = 0.0;
    // Both ends of the threshold range, and ten times the reads.
    param_sets.emplace_back().filter_threshold = 0;
    param_sets.emplace_back().filter_threshold = 99;
    param_sets.emplace_back() = {.reads = 1000, .filter_threshold = 900};

    std::vector<const SimulatedChip *> chips;
    for (bool ddr3l : {false, true}) {
        const auto group = filterByVoltage(*chips_, ddr3l);
        chips.push_back(group[0]);
        chips.push_back(group[9]);
    }
    // Small segments give odd and one-cell populations.
    const Challenge challenges[] = {{0, 65536}, {5, 65536}, {42, 4097},
                                    {7, 300}};
    size_t kept = 0;
    size_t cut = 0;
    size_t cells = 0;
    for (const LatencyPufParams &params : param_sets) {
        const DramLatencyPuf puf(params);
        const double p_cut =
            1.0 / (1.0 + std::exp(-puf.filterCutLogit()));
        for (const SimulatedChip *chip : chips) {
            for (const Challenge &ch : challenges) {
                // --ambient's limits, -40 and 120 C, included.
                for (double temp : {-40.0, 0.0, 30.0, 55.0, 85.0, 120.0}) {
                    for (uint64_t nonce : {1, 77}) {
                        const QueryEnv env{temp, false, nonce};
                        const Response got =
                            puf.evaluateFiltered(*chip, ch, env);
                        EXPECT_EQ(got, referenceLatencyFiltered(
                                           params, *chip, ch, env));
                        EXPECT_EQ(puf.evaluate(*chip, ch, env),
                                  referenceLatencyRaw(params, *chip, ch,
                                                      env));
                        kept += got.size();
                        for (const auto &cell : chip->latencyWeakCells(
                                 ch.segment_id, ch.segment_bits)) {
                            ++cells;
                            if (puf.failureProbability(cell, temp) < p_cut)
                                ++cut;
                        }
                    }
                }
            }
        }
    }
    // Both branches ran: cells were kept, and many sat under the cut.
    EXPECT_GT(kept, 0u);
    EXPECT_GT(cut, cells / 4);
}

TEST_F(PopulationFixture, LatencyWeakCellsWithoutShiftsKeepIndexAndStrength)
{
    // Without shifts, each cell's drift normal is skipped instead of
    // drawn; its uniforms are still drawn, so every later strength
    // comes from the same place in the stream
    // (Rng.SkipGaussianKeepsStreamInStep checks the skip from both
    // cache states).
    size_t odd = 0;
    size_t even = 0;
    for (size_t c : {0, 5, 70, 120}) {
        const SimulatedChip &chip = (*chips_)[c];
        for (uint64_t seg = 0; seg < 40; ++seg) {
            for (int bits : {65536, 4097, 300, 1}) {
                const auto with = chip.latencyWeakCells(seg, bits);
                const auto without = chip.latencyWeakCells(seg, bits, false);
                ASSERT_EQ(with.size(), without.size());
                for (size_t i = 0; i < with.size(); ++i) {
                    EXPECT_EQ(with[i].index, without[i].index);
                    EXPECT_EQ(with[i].strength, without[i].strength);
                    EXPECT_EQ(without[i].temp_shift, 0.0);
                }
                ++(with.size() % 2 ? odd : even);
            }
        }
    }
    EXPECT_GT(odd, 50u);
    EXPECT_GT(even, 50u);
}

/** A decorator that overrides only the single-query methods. */
class CountingPuf : public DramPuf
{
  public:
    explicit CountingPuf(const DramPuf &inner) : inner_(inner) {}

    /** Single queries so far; campaigns may call from many threads. */
    mutable std::atomic<size_t> calls = 0;

    const char *name() const override { return inner_.name(); }

    Response
    evaluate(const SimulatedChip &chip, const Challenge &challenge,
             const QueryEnv &env) const override
    {
        ++calls;
        return inner_.evaluate(chip, challenge, env);
    }

    Response
    evaluateFiltered(const SimulatedChip &chip, const Challenge &challenge,
                     const QueryEnv &env) const override
    {
        ++calls;
        return inner_.evaluateFiltered(chip, challenge, env);
    }

    int
    passesPerEvaluation(bool filtered) const override
    {
        return inner_.passesPerEvaluation(filtered);
    }

  private:
    const DramPuf &inner_;
};

TEST_F(PopulationFixture, EvaluateEachMatchesSingleQueries)
{
    // One call builds the population once for all of its envs. Each
    // response must still be that env's single query, whatever else
    // the call asks: a hot env makes the Latency PUF draw its drifts
    // and the Sig PUF its extra cells for the whole call.
    const DramLatencyPuf latency;
    const PrelatPuf prelat;
    const CodicSigPuf sig;
    const std::vector<std::vector<QueryEnv>> calls = {
        {},
        {{30.0, false, 1}},
        {{30.0, false, 1}, {30.0, false, 2}},
        {{30.0, false, 3}, {30.0, true, 4}},
        {{55.0, false, 5}, {55.0, false, 6}},
        {{85.0, true, 7}},
        {{30.0, false, 8}, {85.0, false, 9}, {55.0, true, 10},
         {30.0, false, 8}},
    };
    std::vector<const SimulatedChip *> chips;
    for (bool ddr3l : {false, true}) {
        const auto group = filterByVoltage(*chips_, ddr3l);
        chips.push_back(group[0]);
        chips.push_back(group[9]);
    }
    const Challenge challenges[] = {{0, 65536}, {13, 65536}, {42, 4097}};
    size_t cells = 0;
    for (const DramPuf *puf :
         std::initializer_list<const DramPuf *>{&latency, &prelat, &sig}) {
        const CountingPuf decorated(*puf);
        for (const SimulatedChip *chip : chips) {
            for (const Challenge &ch : challenges) {
                for (bool filtered : {false, true}) {
                    for (const auto &envs : calls) {
                        SCOPED_TRACE(testing::Message()
                                     << puf->name() << " seg "
                                     << ch.segment_id << " filtered "
                                     << filtered << " envs "
                                     << envs.size());
                        const auto got =
                            puf->evaluateEach(*chip, ch, envs, filtered);
                        ASSERT_EQ(got.size(), envs.size());
                        for (size_t i = 0; i < envs.size(); ++i) {
                            const Response want =
                                filtered ? puf->evaluateFiltered(*chip, ch,
                                                                 envs[i])
                                         : puf->evaluate(*chip, ch,
                                                         envs[i]);
                            EXPECT_EQ(got[i], want) << "env " << i;
                            cells += got[i].size();
                            if (puf == &latency) {
                                EXPECT_EQ(
                                    got[i],
                                    filtered
                                        ? referenceLatencyFiltered(
                                              {}, *chip, ch, envs[i])
                                        : referenceLatencyRaw({}, *chip, ch,
                                                              envs[i]));
                            }
                        }
                        // The decorator inherits the default: one
                        // single query per env, the same responses.
                        decorated.calls = 0;
                        EXPECT_EQ(decorated.evaluateEach(*chip, ch, envs,
                                                         filtered),
                                  got);
                        EXPECT_EQ(decorated.calls.load(), envs.size());
                    }
                }
            }
        }
    }
    EXPECT_GT(cells, 10000u);
}

TEST_F(PopulationFixture, CampaignsThroughADecoratorMatchThePuf)
{
    // The campaigns route their paired queries through evaluateEach();
    // a decorator that only sees single queries must give the same
    // numbers and see every evaluation.
    const std::vector<const SimulatedChip *> chips = all();
    const DramLatencyPuf latency;
    const PrelatPuf prelat;
    const CodicSigPuf sig;
    for (const DramPuf *puf :
         std::initializer_list<const DramPuf *>{&latency, &prelat, &sig}) {
        SCOPED_TRACE(puf->name());
        const CountingPuf decorated(*puf);
        JaccardCampaignConfig cfg;
        cfg.pairs = 60;
        for (bool filtered : {false, true}) {
            cfg.filtered = filtered;
            const auto want = runJaccardCampaign(*puf, chips, cfg);
            decorated.calls = 0;
            const auto got = runJaccardCampaign(decorated, chips, cfg);
            EXPECT_EQ(got.intra, want.intra);
            EXPECT_EQ(got.inter, want.inter);
            EXPECT_EQ(decorated.calls.load(), 4 * cfg.pairs);
        }
        EXPECT_EQ(runTemperatureCampaign(decorated, chips, 55.0, 40, {}),
                  runTemperatureCampaign(*puf, chips, 55.0, 40, {}));
        EXPECT_EQ(runAgingCampaign(decorated, chips, 40, {}),
                  runAgingCampaign(*puf, chips, 40, {}));
        const AuthRates a = runAuthCampaign(decorated, chips, 40, {});
        const AuthRates b = runAuthCampaign(*puf, chips, 40, {});
        EXPECT_EQ(a.false_rejection, b.false_rejection);
        EXPECT_EQ(a.false_acceptance, b.false_acceptance);
    }
}

// The filter's arithmetic for a cell with logistic argument z and
// normal g: the failure count it compares with filter_threshold.
long long
failureCount(const LatencyPufParams &params, double z, double g)
{
    const double n = static_cast<double>(params.reads);
    const double p = 1.0 / (1.0 + std::exp(-z));
    const double sd = std::sqrt(std::max(n * p * (1.0 - p), 1e-12));
    return std::llround(n * p + sd * g);
}

// Worst case of the filter for a cell with logistic argument z: the
// filter's own arithmetic with the largest normal an Rng can draw.
long long
worstFailureCount(const LatencyPufParams &params, double z)
{
    return failureCount(params, z, boxMuller(0x1.0p-53, 0.0).first);
}

TEST(LatencyPuf, FilterCutIsSafeAndTight)
{
    // Draws almost never reach |g| > 6, so the evaluation comparison
    // cannot probe the cut's edge: check it against the largest draw
    // directly. Just under the cut even that draw fails the filter;
    // just over it (unless the cut is capped at p = 1/2) it passes.
    size_t tight = 0;
    for (int reads : {1, 2, 3, 5, 10, 25, 50, 100, 1000}) {
        for (int threshold = 0; threshold < reads;
             threshold += std::max(1, reads / 17)) {
            LatencyPufParams params;
            params.reads = reads;
            params.filter_threshold = threshold;
            const double z = DramLatencyPuf(params).filterCutLogit();
            ASSERT_TRUE(std::isfinite(z)) << reads << "/" << threshold;
            ASSERT_LE(z, 0.0);
            const double below =
                std::nextafter(z, -std::numeric_limits<double>::infinity());
            EXPECT_LE(worstFailureCount(params, below), threshold)
                << "reads " << reads << " threshold " << threshold;
            if (z < 0.0) {
                ++tight;
                const double above = z + 1e-6 * std::max(1.0, -z);
                EXPECT_GT(worstFailureCount(params, above), threshold)
                    << "reads " << reads << " threshold " << threshold;
            }
        }
    }
    EXPECT_GT(tight, 10u);
    // The paper's 100-read > 90 filter cuts just below p = 1/2.
    const double z = DramLatencyPuf().filterCutLogit();
    EXPECT_LT(z, 0.0);
    EXPECT_GT(z, -0.2);
}

TEST(LatencyPuf, FilterBinBoundsAreSafeAndTight)
{
    // Each u1 bin's largest normals are +-r at its lower edge (bin 0:
    // the smallest u1 an Rng draws), as boxMuller() computes them at
    // cos = +-1. Just under the fail bound even +r fails the filter,
    // and just over the keep bound even -r passes it; 1e-6 inside
    // either bound the largest normal of the other sign decides the
    // other way, so no bound is looser than its margins.
    constexpr size_t kBins = DramLatencyPuf::kFilterBins;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const auto inside = [](double z) {
        return 1e-6 * std::max(1.0, std::abs(z));
    };
    size_t checked = 0;
    for (int reads : {1, 2, 3, 5, 10, 25, 50, 100, 1000}) {
        std::vector<int> thresholds;
        for (int t = 0; t < reads; t += std::max(1, reads / 17))
            thresholds.push_back(t);
        if (thresholds.back() != reads - 1)
            thresholds.push_back(reads - 1);
        for (int threshold : thresholds) {
            SCOPED_TRACE(std::to_string(reads) + " reads, threshold " +
                         std::to_string(threshold));
            LatencyPufParams params;
            params.reads = reads;
            params.filter_threshold = threshold;
            const DramLatencyPuf puf(params);
            const auto bounds = puf.filterBounds();
            ASSERT_EQ(bounds.size(), kBins);
            for (size_t b = 0; b < kBins; ++b) {
                const double edge =
                    b == 0 ? 0x1.0p-53 : static_cast<double>(b) / kBins;
                const double up = boxMuller(edge, 0.0).first;
                const double down = boxMuller(edge, 0.5).first;
                ASSERT_GT(up, 0.0);
                ASSERT_EQ(down, -up);
                const auto [fail, keep] = bounds[b];
                ASSERT_LT(fail, keep) << "bin " << b;
                // Every bin but R's decides all that the cut decides.
                if (b > 0) {
                    EXPECT_GT(fail, puf.filterCutLogit()) << "bin " << b;
                }
                EXPECT_LE(failureCount(params, std::nextafter(fail, -kInf),
                                       up),
                          threshold)
                    << "bin " << b;
                EXPECT_GT(failureCount(params, std::nextafter(keep, kInf),
                                       down),
                          threshold)
                    << "bin " << b;
                EXPECT_GT(failureCount(params, fail + inside(fail), up),
                          threshold)
                    << "bin " << b;
                EXPECT_LE(failureCount(params, keep - inside(keep), down),
                          threshold)
                    << "bin " << b;
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, 90 * kBins);
    // A smaller radius decides more: the bounds close in bin by bin.
    const DramLatencyPuf paper;
    const auto bounds = paper.filterBounds();
    for (size_t b = 1; b < kBins; ++b) {
        EXPECT_GT(bounds[b].fail, bounds[b - 1].fail) << "bin " << b;
        EXPECT_LT(bounds[b].keep, bounds[b - 1].keep) << "bin " << b;
    }
}

TEST(LatencyPuf, ConstructorRejectsInvalidParams)
{
    const auto with = [](auto edit) {
        LatencyPufParams p;
        edit(p);
        return p;
    };
    EXPECT_THROW(DramLatencyPuf(with([](auto &p) { p.reads = 0; })),
                 FatalError);
    EXPECT_THROW(DramLatencyPuf(with([](auto &p) { p.reads = -3; })),
                 FatalError);
    EXPECT_THROW(
        DramLatencyPuf(with([](auto &p) { p.filter_threshold = -1; })),
        FatalError);
    EXPECT_THROW(
        DramLatencyPuf(with([](auto &p) { p.filter_threshold = 100; })),
        FatalError);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    for (double width : {0.0, -0.08, kInf, kNaN})
        EXPECT_THROW(DramLatencyPuf(with([&](auto &p) { p.width = width; })),
                     FatalError);
    for (double sigma : {-1.2, -0x1.0p-1074, -kInf, kInf, kNaN})
        EXPECT_THROW(DramLatencyPuf(
                         with([&](auto &p) { p.temp_shift_sigma = sigma; })),
                     FatalError);
    for (double theta : {-kInf, kInf, kNaN}) {
        EXPECT_THROW(
            DramLatencyPuf(with([&](auto &p) { p.theta_30c = theta; })),
            FatalError);
        EXPECT_THROW(
            DramLatencyPuf(with([&](auto &p) { p.theta_per_c = theta; })),
            FatalError);
    }
    // The edges of the valid range construct.
    EXPECT_NO_THROW(DramLatencyPuf(with([](auto &p) {
        p.reads = 1;
        p.filter_threshold = 0;
    })));
    EXPECT_NO_THROW(
        DramLatencyPuf(with([](auto &p) { p.filter_threshold = 99; })));
    EXPECT_NO_THROW(
        DramLatencyPuf(with([](auto &p) { p.temp_shift_sigma = 0.0; })));
    EXPECT_NO_THROW(DramLatencyPuf(with([](auto &p) {
        p.theta_30c = -0.5;
        p.theta_per_c = -0.01;
    })));
}

TEST(PufPasses, PassCountsMatchMechanisms)
{
    EXPECT_EQ(CodicSigPuf().passesPerEvaluation(false), 1);
    EXPECT_EQ(CodicSigPuf().passesPerEvaluation(true), 5);
    EXPECT_EQ(PrelatPuf().passesPerEvaluation(true), 5);
    EXPECT_EQ(DramLatencyPuf().passesPerEvaluation(true), 100);
}

// --- Response time (paper Table 4). ---

TEST(ResponseTime, Table4SoftMcValues)
{
    const DramConfig cfg = DramConfig::ddr3_1600(2048);
    const auto lat = evaluationTime(PufKind::Latency, true, cfg);
    const auto pre_f = evaluationTime(PufKind::Prelat, true, cfg);
    const auto pre_u = evaluationTime(PufKind::Prelat, false, cfg);
    const auto sig_f = evaluationTime(PufKind::CodicSig, true, cfg);
    const auto sig_u = evaluationTime(PufKind::CodicSig, false, cfg);
    EXPECT_NEAR(lat.softmc_ms, 88.2, 0.1);
    EXPECT_NEAR(pre_f.softmc_ms, 7.95, 0.05);
    EXPECT_NEAR(pre_u.softmc_ms, 1.59, 0.02);
    EXPECT_NEAR(sig_f.softmc_ms, 4.41, 0.02);
    EXPECT_NEAR(sig_u.softmc_ms, 0.88, 0.01);
}

TEST(ResponseTime, PaperRatiosHold)
{
    const DramConfig cfg = DramConfig::ddr3_1600(2048);
    const auto lat = evaluationTime(PufKind::Latency, true, cfg);
    const auto pre = evaluationTime(PufKind::Prelat, true, cfg);
    const auto sig = evaluationTime(PufKind::CodicSig, true, cfg);
    const auto sig_u = evaluationTime(PufKind::CodicSig, false, cfg);
    // 20x/100x vs the Latency PUF; 1.8x vs PreLatPUF.
    EXPECT_NEAR(lat.softmc_ms / sig.softmc_ms, 20.0, 0.5);
    EXPECT_NEAR(lat.softmc_ms / sig_u.softmc_ms, 100.0, 2.0);
    EXPECT_NEAR(pre.softmc_ms / sig.softmc_ms, 1.8, 0.05);
}

TEST(ResponseTime, NativeTimesOrderTheSameWay)
{
    const DramConfig cfg = DramConfig::ddr3_1600(2048);
    const auto lat = evaluationTime(PufKind::Latency, true, cfg);
    const auto pre = evaluationTime(PufKind::Prelat, true, cfg);
    const auto sig = evaluationTime(PufKind::CodicSig, true, cfg);
    EXPECT_GT(lat.native_ns, pre.native_ns);
    EXPECT_GT(pre.native_ns, sig.native_ns);
}

TEST(ResponseTime, SigOptFasterThanSigNatively)
{
    const DramConfig cfg = DramConfig::ddr3_1600(2048);
    const auto opt = evaluationTime(PufKind::CodicSigOpt, false, cfg);
    const auto sig = evaluationTime(PufKind::CodicSig, false, cfg);
    EXPECT_LT(opt.native_ns, sig.native_ns);
}

} // namespace
} // namespace codic
