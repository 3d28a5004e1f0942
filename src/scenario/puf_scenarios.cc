/**
 * @file
 * PUF scenarios: paper Fig. 5/6, Table 4, the Section 6.1
 * methodology (coverage + retention emulation), authentication,
 * aging, and the filter-depth ablation.
 */

#include "scenario/builtin.h"

#include "common/rng.h"
#include "common/stats.h"
#include "puf/experiments.h"
#include "puf/latency_puf.h"
#include "puf/prelat_puf.h"
#include "puf/response_time.h"
#include "puf/retention.h"
#include "puf/sig_puf.h"
#include "scenario/registry.h"
#include "scenario/scenario_util.h"

namespace codic {

namespace {

/** The three PUFs every comparative campaign sweeps. */
struct PufSet
{
    DramLatencyPuf latency;
    PrelatPuf prelat;
    CodicSigPuf sig;

    std::vector<std::pair<const DramPuf *, const char *>> all() const
    {
        return {{&latency, "DRAM Latency PUF"},
                {&prelat, "PreLatPUF"},
                {&sig, "CODIC-sig PUF"}};
    }
};

std::string
histLine(const std::vector<double> &values)
{
    Histogram h(0.0, 1.0 + 1e-9, 25);
    for (double v : values)
        h.add(v);
    return h.ascii();
}

void
runFig5(RunContext &ctx)
{
    const auto chips = buildPaperPopulation();
    const PufSet pufs;
    const size_t pairs = ctx.scaled(10000);

    for (bool ddr3l : {false, true}) {
        const auto subset = filterByVoltage(chips, ddr3l);
        const std::string section = ddr3l
                                        ? "DDR3L 1.35V Jaccard indices"
                                        : "DDR3 1.50V Jaccard indices";
        for (const auto &[puf, name] : pufs.all()) {
            JaccardCampaignConfig cfg;
            cfg.run.seed = paperSeed(ctx.options(), 7);
            cfg.run.threads = ctx.options().threads;
            cfg.pairs = pairs;
            const auto r = runJaccardCampaign(*puf, subset, cfg);
            ctx.row(section,
                    ResultRow()
                        .add("puf", name)
                        .add("chips", subset.size())
                        .add("pairs", pairs)
                        .add("intra_mean", r.intraStats().mean())
                        .add("intra_p5", percentile(r.intra, 5.0))
                        .add("inter_mean", r.interStats().mean())
                        .add("inter_p95", percentile(r.inter, 95.0))
                        .add("intra_hist", histLine(r.intra))
                        .add("inter_hist", histLine(r.inter)));
        }
    }
    ctx.note("Paper Fig. 5: CODIC-sig combines high Intra-Jaccard "
             "(repeatability) with low Inter-Jaccard (uniqueness); "
             "PreLatPUF's column-shared structure shows as high "
             "Inter-Jaccard.");
}

void
runCoverage(RunContext &ctx)
{
    const auto chips = buildPaperPopulation();
    const CoverageStats cov = coverageStats(chips);
    ctx.row("methodology coverage across chips",
            ResultRow()
                .add("chips", chips.size())
                .add("min_coverage", cov.min_coverage)
                .add("max_coverage", cov.max_coverage)
                .add("min_flip_fraction", cov.min_flip_fraction)
                .add("max_flip_fraction", cov.max_flip_fraction));
    ctx.note("Paper Section 6.1: CODIC value coverage 34%-99% across "
             "chips, flip-cell fraction 0.01%-0.22%.");
}

void
runAuth(RunContext &ctx)
{
    const auto chips = buildPaperPopulation();
    const auto all = chipPtrs(chips);
    const CodicSigPuf sig;
    RunOptions run = ctx.options();
    run.seed = paperSeed(ctx.options(), 21);
    const size_t trials = ctx.scaled(10000);
    const AuthRates rates = runAuthCampaign(sig, all, trials, run);
    ctx.row("naive exact-match authentication",
            ResultRow()
                .add("trials", trials)
                .add("false_rejection", rates.false_rejection)
                .add("false_acceptance", rates.false_acceptance));
    ctx.note("Paper Section 6.1.1: 0.64% false rejection, 0.00% "
             "false acceptance.");
}

void
runFig6(RunContext &ctx)
{
    const auto chips = buildPaperPopulation();
    const auto all = chipPtrs(chips);
    const PufSet pufs;
    RunOptions run = ctx.options();
    run.seed = paperSeed(ctx.options(), 5);
    const size_t pairs = ctx.scaled(2000);

    for (const auto &[puf, name] : pufs.all()) {
        ResultRow row;
        row.add("puf", name);
        for (double delta : {0.0, 15.0, 25.0, 55.0}) {
            RunningStats s;
            for (double v :
                 runTemperatureCampaign(*puf, all, delta, pairs, run))
                s.add(v);
            row.add("dT=" + std::to_string(static_cast<int>(delta)),
                    s.mean());
        }
        ctx.row("Intra-Jaccard vs temperature delta from 30 C", row);
    }
    ctx.note("Paper Fig. 6: CODIC-sig stays high even at dT = 55 C; "
             "PreLatPUF is the most robust (at the cost of poor "
             "uniqueness); the DRAM Latency PUF degrades strongly.");
}

void
runAging(RunContext &ctx)
{
    const auto chips = buildPaperPopulation();
    const auto all = chipPtrs(chips);
    const PufSet pufs;
    RunOptions run = ctx.options();
    run.seed = paperSeed(ctx.options(), 9);
    const size_t pairs = ctx.scaled(2000);

    for (const auto &[puf, name] : pufs.all()) {
        RunningStats s;
        for (double v : runAgingCampaign(*puf, all, pairs, run))
            s.add(v);
        ctx.row("Intra-Jaccard after accelerated aging (125 C)",
                ResultRow()
                    .add("puf", name)
                    .add("intra_mean", s.mean()));
    }
    ctx.note("Paper Section 6.1.1: the CODIC-sig PUF is very robust "
             "to aging; most indices are 1.");
}

void
runTable4(RunContext &ctx)
{
    const DramConfig cfg =
        moduleFor(ctx.options(), ctx.options().capacityMbOr(2048),
                  ctx.options().channelsOr(1));
    struct Entry
    {
        const char *name;
        PufKind kind;
        bool has_unfiltered;
        const char *paper;
    };
    const Entry entries[] = {
        {"DRAM Latency PUF", PufKind::Latency, false, "88.2 ms"},
        {"PreLatPUF", PufKind::Prelat, true, "7.95 (1.59) ms"},
        {"CODIC-sig PUF", PufKind::CodicSig, true, "4.41 (0.88) ms"},
        {"CODIC-sig-opt PUF", PufKind::CodicSigOpt, true, "(n/a)"},
    };
    for (const auto &e : entries) {
        const EvalTime filt = evaluationTime(e.kind, true, cfg);
        const EvalTime raw = evaluationTime(e.kind, false, cfg);
        ctx.row("PUF evaluation time, 8 KB segments",
                ResultRow()
                    .add("puf", e.name)
                    .add("softmc_filtered_ms", filt.softmc_ms)
                    .add("has_unfiltered_mode", e.has_unfiltered)
                    .add("softmc_unfiltered_ms", raw.softmc_ms)
                    .add("paper", e.paper)
                    .add("native_filtered_ns", filt.native_ns)
                    .add("native_unfiltered_ns", raw.native_ns));
    }

    const double lat =
        evaluationTime(PufKind::Latency, true, cfg).softmc_ms;
    const double pre =
        evaluationTime(PufKind::Prelat, true, cfg).softmc_ms;
    const double sig =
        evaluationTime(PufKind::CodicSig, true, cfg).softmc_ms;
    const double sig_raw =
        evaluationTime(PufKind::CodicSig, false, cfg).softmc_ms;
    ctx.row("ratios (paper Section 6.1.2)",
            ResultRow()
                .add("sig_vs_latency_filtered", lat / sig)
                .add("sig_vs_latency_unfiltered", lat / sig_raw)
                .add("sig_vs_prelat", pre / sig));
    ctx.note("Paper: CODIC-sig is 20x (filtered) / 100x (unfiltered) "
             "faster than the Latency PUF and 1.8x faster than "
             "PreLatPUF.");
}

double
exactMatchFrr(const DramPuf &puf,
              const std::vector<const SimulatedChip *> &chips,
              size_t trials, uint64_t seed)
{
    Rng rng(seed);
    size_t mismatches = 0;
    for (size_t i = 0; i < trials; ++i) {
        const SimulatedChip *chip =
            chips[static_cast<size_t>(rng.below(chips.size()))];
        Challenge ch{rng.below(chip->segments()), 65536};
        const QueryEnv envs[2] = {{30.0, false, rng.next64()},
                                  {30.0, false, rng.next64()}};
        const auto ab = puf.evaluateEach(*chip, ch, envs, true);
        if (!(ab[0] == ab[1]))
            ++mismatches;
    }
    return static_cast<double>(mismatches) /
           static_cast<double>(trials);
}

void
runAblationFilter(RunContext &ctx)
{
    const auto chips = buildPaperPopulation();
    const auto all = chipPtrs(chips);
    const double pass_ms = 0.882; // SoftMC pass cost (Table 4).

    const size_t sig_trials = ctx.scaled(4000);
    for (int depth : {1, 3, 5, 7, 9}) {
        SigPufParams params;
        params.filter_challenges = depth;
        CodicSigPuf puf(params);
        const double frr = exactMatchFrr(
            puf, all, sig_trials, paperSeed(ctx.options(), 17));
        ctx.row("CODIC-sig filter depth",
                ResultRow()
                    .add("filter_challenges", depth)
                    .add("exact_match_frr", frr)
                    .add("softmc_eval_ms", pass_ms * depth));
    }
    ctx.note("The paper's conservative depth of 5 eliminates response "
             "noise at 4.41 ms.");

    const size_t lat_trials = ctx.scaled(1500);
    for (int reads : {5, 10, 25, 50, 100}) {
        LatencyPufParams params;
        params.reads = reads;
        params.filter_threshold = reads * 9 / 10;
        DramLatencyPuf puf(params);
        const double frr = exactMatchFrr(
            puf, all, lat_trials, paperSeed(ctx.options(), 19));
        ctx.row("DRAM Latency PUF read count",
                ResultRow()
                    .add("reads", reads)
                    .add("filter_threshold", params.filter_threshold)
                    .add("exact_match_frr", frr)
                    .add("softmc_eval_ms", pass_ms * reads));
    }
    ctx.note("A 5-10 read Latency PUF approaches CODIC-sig's latency "
             "but its responses are far less repeatable - the "
             "quality/latency trade-off of Section 6.1.1.");
}

void
runRetention(RunContext &ctx)
{
    const auto chips = buildPaperPopulation();
    RetentionExperimentConfig cfg;
    cfg.sample_cells =
        static_cast<int>(ctx.scaled(static_cast<size_t>(
            cfg.sample_cells)));

    for (size_t i = 0; i < chips.size(); i += 17) {
        const auto r = runRetentionExperiment(chips[i], cfg);
        ctx.row("48 h refresh-disable emulation (sampled chips)",
                ResultRow()
                    .add("module", chips[i].spec().module)
                    .add("chip", i)
                    .add("median_retention_h",
                         chipRetentionMedianHours(chips[i]))
                    .add("coverage", r.coverage())
                    .add("flip_fraction", r.flipFraction()));
    }

    RunningStats coverage;
    RunningStats flips;
    const size_t band_chips = ctx.scaled(chips.size());
    for (size_t i = 0; i < band_chips; ++i) {
        const auto r = runRetentionExperiment(chips[i], cfg);
        coverage.add(r.coverage());
        flips.add(r.flipFraction());
    }
    ctx.row("coverage band across population",
            ResultRow()
                .add("chips", band_chips)
                .add("min_coverage", coverage.min())
                .add("max_coverage", coverage.max())
                .add("min_flip_fraction", flips.min())
                .add("max_flip_fraction", flips.max()));

    RetentionExperimentConfig cfg4 = cfg;
    cfg4.wait_hours = 4.0;
    cfg4.temperature_c = 85.0;
    ctx.row("temperature experiments use a 4 h wait",
            ResultRow()
                .add("condition", "48 h at 30 C")
                .add("coverage_chip0",
                     runRetentionExperiment(chips[0], cfg).coverage()));
    ctx.row("temperature experiments use a 4 h wait",
            ResultRow()
                .add("condition", "4 h at 85 C")
                .add("coverage_chip0",
                     runRetentionExperiment(chips[0], cfg4)
                         .coverage()));
    ctx.note("Cells discharge faster at high temperature, so a short "
             "wait suffices - the paper's justification for the 4 h "
             "window (Section 6.1.1).");
}

} // namespace

void
registerPufScenarios(ScenarioRegistry &registry)
{
    registry.add(makeScenario(
        "puf_fig5_jaccard",
        "Fig. 5: Intra-/Inter-Jaccard distributions of the three "
        "PUFs over the DDR3 and DDR3L chip populations",
        runFig5));
    registry.add(makeScenario(
        "puf_coverage",
        "Section 6.1: CODIC value coverage and flip-cell fraction "
        "bands across the 136-chip population",
        runCoverage));
    registry.add(makeScenario(
        "puf_auth",
        "Section 6.1.1: naive exact-match authentication false "
        "rejection/acceptance rates",
        runAuth));
    registry.add(makeScenario(
        "puf_fig6_temperature",
        "Fig. 6: Intra-Jaccard vs temperature delta for the three "
        "PUFs",
        runFig6));
    registry.add(makeScenario(
        "puf_aging",
        "Section 6.1.1: Intra-Jaccard after accelerated aging (125 C "
        "stress)",
        runAging));
    registry.add(makeScenario(
        "puf_table4_response_time",
        "Table 4: PUF evaluation time at SoftMC and native "
        "command-level scales",
        runTable4));
    registry.add(makeScenario(
        "puf_ablation_filter",
        "Ablation: CODIC-sig filter depth and Latency-PUF read count "
        "vs exact-match FRR and evaluation time",
        runAblationFilter));
    registry.add(makeScenario(
        "puf_retention_methodology",
        "Section 6.1 methodology: 48 h refresh-disable emulation "
        "with the two-scenario conclusiveness test",
        runRetention));
}

} // namespace codic
