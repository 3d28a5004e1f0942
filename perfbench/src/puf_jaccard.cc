/**
 * @file
 * puf_jaccard: runJaccardCampaign for the three PUFs over both
 * voltage classes of the paper population, the code behind the
 * puf_fig5_jaccard scenario. Nearly all of its host time is PUF
 * evaluation and the chip-model sampling behind it, and none is in
 * sim, mem or dram: it is the control that must not move when those
 * layers change.
 */

#include <array>

#include "probes.h"
#include "puf/experiments.h"
#include "puf/latency_puf.h"
#include "puf/prelat_puf.h"
#include "puf/sig_puf.h"
#include "workloads.h"

namespace perfbench {

using namespace codic;

namespace {

/** Pairs per campaign; 6 campaigns a pass. */
constexpr size_t kPairs = 1000;

/** Metric prefix per PUF, in campaign order. */
constexpr std::array<const char *, 3> kPufKeys = {"latency", "prelat",
                                                  "sig"};
constexpr size_t kSig = 2;

struct Campaigns
{
    /** [ddr3l][puf] */
    std::array<std::array<JaccardCampaignResult, 3>, 2> results;
};

} // namespace

Report
runPufJaccard(const RunSpec &spec)
{
    const DramLatencyPuf latency;
    const PrelatPuf prelat;
    const CodicSigPuf sig;
    const std::array<const DramPuf *, 3> pufs = {&latency, &prelat, &sig};

    JaccardCampaignConfig cfg;
    cfg.run.seed = scenarioSeed(spec, 7);
    cfg.run.threads = 1;
    cfg.pairs = kPairs;

    Report report;
    std::vector<SimulatedChip> chips;
    std::array<std::vector<const SimulatedChip *>, 2> classes;
    std::vector<double> population_s;
    std::vector<std::vector<Metric>> traced;
    std::array<RunningStats, 2> sig_intra, sig_inter;

    const auto setup = [&] {
        const double t0 = nowSeconds();
        // The paper's 136 chips, as in puf_fig5_jaccard: the seed
        // varies the pair draws, not the silicon.
        chips = buildPaperPopulation();
        for (bool ddr3l : {false, true})
            classes[ddr3l] = filterByVoltage(chips, ddr3l);
        population_s.push_back(nowSeconds() - t0);
    };

    // One operation is one voltage-class comparison: it fails unless
    // CODIC-sig has the highest intra- and the lowest inter-Jaccard
    // mean of the three PUFs.
    const auto check = [&](const Campaigns &c) {
        Digest d;
        for (int v = 0; v < 2; ++v) {
            std::array<double, 3> intra, inter;
            for (size_t p = 0; p < 3; ++p) {
                const JaccardCampaignResult &r = c.results[v][p];
                intra[p] = r.intraStats().mean();
                inter[p] = r.interStats().mean();
                for (double x : r.intra)
                    d.add(x);
                for (double x : r.inter)
                    d.add(x);
            }
            bool best = true;
            for (size_t p = 0; p < 3; ++p)
                if (p != kSig)
                    best = best && intra[kSig] > intra[p] &&
                           inter[kSig] < inter[p];
            ++report.attempted;
            report.failed += !best;
            sig_intra[v] = c.results[v][kSig].intraStats();
            sig_inter[v] = c.results[v][kSig].interStats();
        }
        report.firstPass(d.hex());
    };

    const auto untracedPass = [&] {
        Campaigns c;
        for (int v = 0; v < 2; ++v)
            for (size_t p = 0; p < 3; ++p)
                c.results[v][p] =
                    runJaccardCampaign(*pufs[p], classes[v], cfg);
        check(c);
    };

    const auto tracedPass = [&] {
        const std::array<TracedPuf, 3> probes = {
            TracedPuf(latency), TracedPuf(prelat), TracedPuf(sig)};
        Campaigns c;
        TickRate rate;
        rate.begin();
        uint64_t campaign_ticks = 0;
        for (int v = 0; v < 2; ++v)
            for (size_t p = 0; p < 3; ++p) {
                const uint64_t t0 = ticks();
                c.results[v][p] =
                    runJaccardCampaign(probes[p], classes[v], cfg);
                campaign_ticks += elapsedTicks(t0);
            }
        rate.end();
        check(c);

        std::vector<Metric> m;
        uint64_t eval_ticks = 0;
        for (size_t p = 0; p < 3; ++p) {
            const std::string key = std::string("puf.") + kPufKeys[p];
            const Span &s = probes[p].eval_span;
            m.push_back({key + ".eval.calls", double(s.calls), "count"});
            m.push_back({key + ".eval.s", rate.seconds(s.ticks), "s"});
            eval_ticks += s.ticks;
        }
        m.push_back({"puf.campaign.self_s",
                     rate.seconds(campaign_ticks) - rate.seconds(eval_ticks),
                     "s"});
        traced.push_back(m);
    };

    const Samples samples = measurePasses(
        spec.seconds, spec.trace ? 2 : 1, 10, setup, [&](size_t i) {
            if (spec.trace && i % 2 == 1)
                tracedPass();
            else
                untracedPass();
        });

    const char *names[2] = {"ddr3", "ddr3l"};
    for (int v = 0; v < 2; ++v) {
        report.modeled.push_back({std::string("sig_intra_mean_") +
                                      names[v],
                                  sig_intra[v].mean(), "ratio"});
        report.modeled.push_back({std::string("sig_inter_mean_") +
                                      names[v],
                                  sig_inter[v].mean(), "ratio"});
    }
    report.modeled.push_back({"pairs", double(kPairs), "count"});

    if (spec.trace) {
        report.metrics = medianMetrics(traced);
        report.metric("puf.population_s", median(population_s), "s");
    }
    addRunMetrics(spec, samples, report);
    return report;
}

} // namespace perfbench
