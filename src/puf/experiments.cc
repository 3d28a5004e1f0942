#include "puf/experiments.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace codic {

RunningStats
JaccardCampaignResult::intraStats() const
{
    RunningStats s;
    for (double v : intra)
        s.add(v);
    return s;
}

RunningStats
JaccardCampaignResult::interStats() const
{
    RunningStats s;
    for (double v : inter)
        s.add(v);
    return s;
}

namespace {

/** Pick a random chip and segment. */
std::pair<const SimulatedChip *, uint64_t>
pickSegment(Rng &rng, const std::vector<const SimulatedChip *> &chips)
{
    CODIC_ASSERT(!chips.empty());
    const SimulatedChip *chip =
        chips[static_cast<size_t>(rng.below(chips.size()))];
    const uint64_t segment = rng.below(chip->segments());
    return {chip, segment};
}

Response
query(const DramPuf &puf, const SimulatedChip &chip, uint64_t segment,
      int bits, const QueryEnv &env, bool filtered)
{
    Challenge ch;
    ch.segment_id = segment;
    ch.segment_bits = bits;
    return filtered ? puf.evaluateFiltered(chip, ch, env)
                    : puf.evaluate(chip, ch, env);
}

/**
 * Jaccard index of two queries of one segment, answered by one
 * evaluateEach() call so the PUF builds the population once.
 */
double
pairedJaccard(const DramPuf &puf, const SimulatedChip &chip,
              uint64_t segment, int bits, const QueryEnv (&envs)[2],
              bool filtered)
{
    const auto r =
        puf.evaluateEach(chip, Challenge{segment, bits}, envs, filtered);
    return jaccard(r[0], r[1]);
}

} // namespace

JaccardCampaignResult
runJaccardCampaign(const DramPuf &puf,
                   const std::vector<const SimulatedChip *> &chips,
                   const JaccardCampaignConfig &config)
{
    // One Rng stream per pair, derived from (seed, index) before the
    // campaign starts: the result does not depend on which thread
    // evaluates which pair, so any thread count reproduces the
    // sequential campaign bit for bit.
    auto streams = forkStreams(config.run.seed, config.pairs);
    JaccardCampaignResult result;
    result.intra.resize(config.pairs);
    result.inter.resize(config.pairs);

    CampaignEngine engine(config.run.threads);
    engine.forEach(config.pairs, [&](size_t i) {
        Rng rng = streams[i];
        // Intra: same segment, two independent queries.
        auto [chip, segment] = pickSegment(rng, chips);
        const QueryEnv envs[2] = {
            {config.temperature_c, false, rng.next64()},
            {config.temperature_c, false, rng.next64()}};
        result.intra[i] = pairedJaccard(puf, *chip, segment,
                                        config.segment_bits, envs,
                                        config.filtered);

        // Inter: two distinct segments of one chip.
        auto [chip2, seg_a] = pickSegment(rng, chips);
        uint64_t seg_b = rng.below(chip2->segments());
        while (seg_b == seg_a)
            seg_b = rng.below(chip2->segments());
        QueryEnv env3{config.temperature_c, false, rng.next64()};
        QueryEnv env4{config.temperature_c, false, rng.next64()};
        const Response c = query(puf, *chip2, seg_a,
                                 config.segment_bits, env3,
                                 config.filtered);
        const Response d = query(puf, *chip2, seg_b,
                                 config.segment_bits, env4,
                                 config.filtered);
        result.inter[i] = jaccard(c, d);
    });
    return result;
}

std::vector<double>
runTemperatureCampaign(const DramPuf &puf,
                       const std::vector<const SimulatedChip *> &chips,
                       double delta_c, size_t pairs,
                       const RunOptions &run)
{
    auto streams = forkStreams(run.seed, pairs);
    std::vector<double> out(pairs);
    CampaignEngine engine(run.threads);
    engine.forEach(pairs, [&](size_t i) {
        Rng rng = streams[i];
        auto [chip, segment] = pickSegment(rng, chips);
        const QueryEnv ref_hot[2] = {{30.0, false, rng.next64()},
                                     {30.0 + delta_c, false, rng.next64()}};
        out[i] = pairedJaccard(puf, *chip, segment, 65536, ref_hot, true);
    });
    return out;
}

std::vector<double>
runAgingCampaign(const DramPuf &puf,
                 const std::vector<const SimulatedChip *> &chips,
                 size_t pairs, const RunOptions &run)
{
    auto streams = forkStreams(run.seed, pairs);
    std::vector<double> out(pairs);
    CampaignEngine engine(run.threads);
    engine.forEach(pairs, [&](size_t i) {
        Rng rng = streams[i];
        auto [chip, segment] = pickSegment(rng, chips);
        const QueryEnv fresh_aged[2] = {{30.0, false, rng.next64()},
                                        {30.0, true, rng.next64()}};
        out[i] =
            pairedJaccard(puf, *chip, segment, 65536, fresh_aged, true);
    });
    return out;
}

AuthRates
runAuthCampaign(const DramPuf &puf,
                const std::vector<const SimulatedChip *> &chips,
                size_t trials, const RunOptions &run)
{
    auto streams = forkStreams(run.seed, trials);
    // Per-trial outcomes land in private slots; the counts are
    // order-independent sums, reduced after the campaign drains.
    std::vector<uint8_t> rejected(trials, 0);
    std::vector<uint8_t> accepted(trials, 0);
    CampaignEngine engine(run.threads);
    engine.forEach(trials, [&](size_t i) {
        Rng rng = streams[i];
        auto [chip, segment] = pickSegment(rng, chips);
        // Enrolled response vs. a later unfiltered query.
        const QueryEnv enroll_verify[2] = {{30.0, false, rng.next64()},
                                           {30.0, false, rng.next64()}};
        const auto ab = puf.evaluateEach(*chip, Challenge{segment, 65536},
                                         enroll_verify, false);
        const Response &a = ab[0];
        rejected[i] = !(a == ab[1]);

        // Impostor: response from a different segment.
        uint64_t other = rng.below(chip->segments());
        while (other == segment)
            other = rng.below(chip->segments());
        QueryEnv imp{30.0, false, rng.next64()};
        const Response c =
            query(puf, *chip, other, 65536, imp, false);
        accepted[i] = a == c;
    });
    size_t false_rej = 0;
    size_t false_acc = 0;
    for (size_t i = 0; i < trials; ++i) {
        false_rej += rejected[i];
        false_acc += accepted[i];
    }
    const double n = static_cast<double>(trials);
    return {static_cast<double>(false_rej) / n,
            static_cast<double>(false_acc) / n};
}

CoverageStats
coverageStats(const std::vector<SimulatedChip> &chips)
{
    CoverageStats s;
    for (const auto &chip : chips) {
        s.min_coverage = std::min(s.min_coverage,
                                  chip.methodologyCoverage());
        s.max_coverage = std::max(s.max_coverage,
                                  chip.methodologyCoverage());
        s.min_flip_fraction =
            std::min(s.min_flip_fraction, chip.sigFlipFraction());
        s.max_flip_fraction =
            std::max(s.max_flip_fraction, chip.sigFlipFraction());
    }
    return s;
}

} // namespace codic
