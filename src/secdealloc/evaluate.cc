#include "secdealloc/evaluate.h"

#include <algorithm>
#include <array>
#include <memory>
#include <span>

#include "common/logging.h"
#include "common/parallel.h"
#include "dram/refresh.h"
#include "dram/system.h"
#include "sim/engine.h"

namespace codic {

namespace {

DramConfig
dramFor(const DeallocEvalConfig &config)
{
    return DramConfig::ddr3_1600(config.dram_capacity_mb,
                                 config.dram_channels);
}

ControllerConfig
controllerFor(const DeallocEvalConfig &config)
{
    ControllerConfig cc;
    // Multi-channel modules interleave row blocks across channels:
    // consecutive rows round-robin banks then channels, so dealloc
    // row ops spread over every channel while one phys row block
    // still maps to exactly one DRAM row (whole-row zeroing stays
    // exact).
    if (config.dram_channels > 1)
        cc.map_scheme = MapScheme::RowChannelBankColumn;
    return cc;
}

/** The four mechanisms of every Fig. 8 / Fig. 9 comparison. */
constexpr std::array<DeallocMode, 4> kModes = {
    DeallocMode::SoftwareZero,
    DeallocMode::LisaClone,
    DeallocMode::RowClone,
    DeallocMode::CodicDet,
};

BenchmarkComparison
fromRuns(const std::string &name,
         const std::array<DeallocRunResult, 4> &runs)
{
    const DeallocRunResult &base = runs[0];
    BenchmarkComparison c;
    c.name = name;
    c.lisa_speedup = speedupOver(base, runs[1]);
    c.rowclone_speedup = speedupOver(base, runs[2]);
    c.codic_speedup = speedupOver(base, runs[3]);
    c.lisa_energy = energySavings(base, runs[1]);
    c.rowclone_energy = energySavings(base, runs[2]);
    c.codic_energy = energySavings(base, runs[3]);
    return c;
}

/** Each core's private region: an equal share of the module. */
uint64_t
regionBytes(const DeallocEvalConfig &config, size_t cores)
{
    CODIC_ASSERT(cores > 0);
    return static_cast<uint64_t>(dramFor(config).capacityBytes()) /
           cores;
}

/** Raise FatalError unless every trace fits its core's region. */
void
requireFits(std::span<const Workload> traces,
            const DeallocEvalConfig &config)
{
    const uint64_t region = regionBytes(config, traces.size());
    for (const Workload &w : traces) {
        const uint64_t extent = w.extentBytes();
        if (extent > region)
            fatal("trace '", w.name, "' spans ", extent,
                  " bytes, more than the ", region, "-byte region of ",
                  "each of ", traces.size(), " core(s) on a ",
                  config.dram_capacity_mb, " MB module");
    }
}

/**
 * One mechanism run: one core per trace, each in its own region,
 * stepped smallest-local-time first over one shared module. With
 * `recordings` (one per trace) the cores replay their cache passes.
 */
DeallocRunResult
simulate(std::span<const Workload> traces, DeallocMode mode,
         const std::vector<CacheRecording> *recordings,
         const DeallocEvalConfig &config)
{
    DramSystem system(dramFor(config), controllerFor(config));

    CoreConfig core_cfg = config.core;
    core_cfg.dealloc = mode;

    const uint64_t region = regionBytes(config, traces.size());
    std::vector<std::unique_ptr<InOrderCore>> cores;
    for (size_t i = 0; i < traces.size(); ++i) {
        cores.push_back(std::make_unique<InOrderCore>(
            system, core_cfg, region * i));
        if (recordings)
            cores[i]->bind(&traces[i], (*recordings)[i]);
        else
            cores[i]->bind(&traces[i]);
    }

    // Discrete-event interleaving: always step the core with the
    // smallest local time so shared-system commands issue in
    // near-global-time order.
    stepEarliestFirst(
        cores.size(), [&](size_t i) { return !cores[i]->done(); },
        [&](size_t i) { return cores[i]->timeNs(); },
        [&](size_t i) { cores[i]->step(); });

    double end_ns = 0.0;
    for (auto &core : cores)
        end_ns = std::max(end_ns, core->timeNs());
    const Cycle drained = system.drainAll();
    end_ns = std::max(end_ns,
                      static_cast<double>(drained) *
                          system.config().tck_ns);

    DeallocRunResult result;
    result.time_ns = end_ns;
    result.core_stats = cores[0]->stats();
    result.commands = system.totalCounts();
    result.origins = system.perOriginCounts();
    result.energy_nj = systemEnergyNj(system, end_ns, config.energy);
    return result;
}

/**
 * One Fig. 8 / Fig. 9 row: the live software-zeroing run, then one
 * cache pass per core that the LISA-clone, RowClone and CODIC-det runs
 * replay. The three hardware mechanisms invalidate the same rows and
 * store the same lines, so their caches decide alike (see sim/core.h).
 */
BenchmarkComparison
compareCase(const std::string &name, std::span<const Workload> traces,
            const DeallocEvalConfig &config)
{
    requireFits(traces, config);
    std::array<DeallocRunResult, 4> runs;
    runs[0] = simulate(traces, DeallocMode::SoftwareZero, nullptr, config);

    // Any hardware mode records the pass all three share.
    CoreConfig recorder = config.core;
    recorder.dealloc = DeallocMode::CodicDet;
    const int64_t row_bytes = dramFor(config).row_bytes;
    const uint64_t region = regionBytes(config, traces.size());
    std::vector<CacheRecording> recordings;
    recordings.reserve(traces.size());
    for (size_t i = 0; i < traces.size(); ++i)
        recordings.push_back(
            recordCachePass(traces[i], recorder, row_bytes, region * i));
    for (size_t m = 1; m < kModes.size(); ++m)
        runs[m] = simulate(traces, kModes[m], &recordings, config);
    return fromRuns(name, runs);
}

/**
 * The rows of `n` cases, one campaign task per case: `row(i)` gets
 * case i's traces (building them, when the caller streams) and
 * compares them. Each task writes only its own slot.
 */
template <class Row>
std::vector<BenchmarkComparison>
compareEach(size_t n, const DeallocEvalConfig &config, const Row &row)
{
    std::vector<BenchmarkComparison> out(n);
    CampaignEngine engine(config.run.threads);
    engine.forEach(n, [&](size_t i) { out[i] = row(i); });
    return out;
}

} // namespace

DeallocRunResult
runSingleCore(const Workload &workload, DeallocMode mode,
              const DeallocEvalConfig &config)
{
    const std::span<const Workload> traces(&workload, 1);
    requireFits(traces, config);
    return simulate(traces, mode, nullptr, config);
}

DeallocRunResult
runMultiCore(const WorkloadMix &mix, DeallocMode mode,
             const DeallocEvalConfig &config)
{
    requireFits(mix.traces, config);
    return simulate(mix.traces, mode, nullptr, config);
}

double
speedupOver(const DeallocRunResult &baseline,
            const DeallocRunResult &candidate)
{
    CODIC_ASSERT(candidate.time_ns > 0.0);
    return baseline.time_ns / candidate.time_ns - 1.0;
}

double
energySavings(const DeallocRunResult &baseline,
              const DeallocRunResult &candidate)
{
    CODIC_ASSERT(baseline.energy_nj > 0.0);
    return 1.0 - candidate.energy_nj / baseline.energy_nj;
}

BenchmarkComparison
compareSingleCore(const std::string &benchmark,
                  const DeallocEvalConfig &config)
{
    return compareSingleCoreAll({benchmark}, config).front();
}

BenchmarkComparison
compareMultiCore(const WorkloadMix &mix, const DeallocEvalConfig &config)
{
    return compareCase(mix.name, mix.traces, config);
}

std::vector<BenchmarkComparison>
compareSingleCoreAll(const std::vector<std::string> &benchmarks,
                     const DeallocEvalConfig &config)
{
    return compareEach(benchmarks.size(), config, [&](size_t b) {
        const Workload w =
            generateWorkload(benchmarkParams(benchmarks[b], config.run.seed));
        return compareCase(benchmarks[b], {&w, 1}, config);
    });
}

std::vector<BenchmarkComparison>
compareMultiCoreAll(const std::vector<WorkloadMix> &mixes,
                    const DeallocEvalConfig &config)
{
    return compareEach(mixes.size(), config, [&](size_t x) {
        return compareCase(mixes[x].name, mixes[x].traces, config);
    });
}

std::vector<BenchmarkComparison>
compareMultiCoreAll(const std::vector<MixRecipe> &recipes,
                    const DeallocEvalConfig &config)
{
    return compareEach(recipes.size(), config, [&](size_t x) {
        const WorkloadMix mix = buildMix(recipes[x]);
        return compareCase(mix.name, mix.traces, config);
    });
}

} // namespace codic
