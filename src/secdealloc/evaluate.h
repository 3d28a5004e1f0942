/**
 * @file
 * Secure-deallocation evaluation harness (paper Appendix A):
 * compares software zeroing against the LISA-clone, RowClone, and
 * CODIC-det hardware deallocation paths on single-core benchmarks
 * (Fig. 8) and 4-core workload mixes (Fig. 9), reporting speedup and
 * DRAM energy savings relative to the software baseline.
 */

#ifndef CODIC_SECDEALLOC_EVALUATE_H
#define CODIC_SECDEALLOC_EVALUATE_H

#include <string>
#include <vector>

#include "common/run_options.h"
#include "mem/controller.h"
#include "power/energy_model.h"
#include "sim/core.h"
#include "sim/workloads.h"

namespace codic {

/** Result of one benchmark run under one deallocation mechanism. */
struct DeallocRunResult
{
    double time_ns = 0.0;
    double energy_nj = 0.0;
    CoreStats core_stats;     //!< Core 0 stats (single core: the run).
    CommandCounts commands;   //!< Aggregated across channels.
    /** Per-core roll-ups, keyed by each core's region base. */
    std::vector<OriginCounts> origins;
};

/** Simulation configuration for the secure-dealloc evaluation. */
struct DeallocEvalConfig
{
    /**
     * Shared options. `run.seed` seeds the workload generators of
     * the compare* sweeps; `run.threads` drives the campaign engine
     * (each comparison runs as two independent tasks, see
     * compareSingleCoreAll(); results are identical at any thread
     * count).
     */
    RunOptions run = {.seed = 11};

    int64_t dram_capacity_mb = 2048;
    int dram_channels = 1;    //!< Channels of the simulated module.
    EnergyParams energy;
    CoreConfig core;
};

/**
 * Run one single-core benchmark under a mechanism, walking the
 * caches live (the reference the compare* sweeps reproduce).
 * @throws FatalError when the trace reaches past the module
 *         (Workload::extentBytes() above its capacity).
 */
DeallocRunResult runSingleCore(const Workload &workload,
                               DeallocMode mode,
                               const DeallocEvalConfig &config = {});

/**
 * Run one 4-core mix under a mechanism (shared channel); each core
 * gets a private region of capacity / cores bytes.
 * @throws FatalError when a trace reaches past its region.
 */
DeallocRunResult runMultiCore(const WorkloadMix &mix, DeallocMode mode,
                              const DeallocEvalConfig &config = {});

/** Speedup of `fast` over `slow` runtimes, as a fraction (0.1=10%). */
double speedupOver(const DeallocRunResult &baseline,
                   const DeallocRunResult &candidate);

/** Energy savings of `candidate` vs `baseline`, as a fraction. */
double energySavings(const DeallocRunResult &baseline,
                     const DeallocRunResult &candidate);

/** One benchmark's Fig. 8 row: savings per hardware mechanism. */
struct BenchmarkComparison
{
    std::string name;
    double lisa_speedup = 0.0;
    double rowclone_speedup = 0.0;
    double codic_speedup = 0.0;
    double lisa_energy = 0.0;
    double rowclone_energy = 0.0;
    double codic_energy = 0.0;
};

/**
 * Evaluate one single-core benchmark against all mechanisms
 * (workload generated from config.run.seed).
 */
BenchmarkComparison compareSingleCore(const std::string &benchmark,
                                      const DeallocEvalConfig &config = {});

/** Evaluate one mix against all mechanisms. */
BenchmarkComparison compareMultiCore(const WorkloadMix &mix,
                                     const DeallocEvalConfig &config = {});

/**
 * Evaluate many single-core benchmarks (Fig. 8 sweep). Each
 * benchmark is two campaign tasks: the software-zeroing run, and one
 * recorded cache pass that the LISA-clone, RowClone and CODIC-det
 * runs replay (sim/core.h). With more than one engine thread the
 * tasks run concurrently; results are identical to the sequential
 * sweep and to runSingleCore() of each mechanism.
 * @throws FatalError when a trace does not fit the module, checked
 *         once per benchmark before any task runs.
 */
std::vector<BenchmarkComparison>
compareSingleCoreAll(const std::vector<std::string> &benchmarks,
                     const DeallocEvalConfig &config = {});

/**
 * Evaluate many mixes (Fig. 9 sweep); same campaign structure, one
 * cache pass per core, and the results of runMultiCore().
 */
std::vector<BenchmarkComparison>
compareMultiCoreAll(const std::vector<WorkloadMix> &mixes,
                    const DeallocEvalConfig &config = {});

} // namespace codic

#endif // CODIC_SECDEALLOC_EVALUATE_H
