/**
 * @file
 * Synthetic workload generators standing in for the paper's Pin/Bochs
 * traces (Appendix A, Tables 8 and 9).
 *
 * Memory-allocation-intensive benchmarks (Table 8): mysql, memcached,
 * compiler, bootup, shell, malloc (stress-ng). Each is modeled as a
 * phased trace: compute, a working-set access mix, allocation of a
 * region that gets written, then deallocation of that region (which
 * the OS must zero - the operation under study).
 *
 * Non-allocation-intensive background benchmarks (for the multicore
 * mixes of Table 9): tpcc, tpch, stream, libquantum, xalancbmk,
 * bzip2, astar, lbm, condmat, pagerank, bfs - load/compute mixes with
 * no deallocation traffic.
 */

#ifndef CODIC_SIM_WORKLOADS_H
#define CODIC_SIM_WORKLOADS_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/trace.h"

namespace codic {

/** Generator parameters for one phased workload. */
struct WorkloadParams
{
    std::string name;
    uint64_t footprint_bytes = 32ull << 20; //!< Working set.
    size_t phases = 400;
    uint64_t compute_per_phase = 4000;    //!< Instructions.
    int loads_per_phase = 120;
    int stores_per_phase = 40;
    uint64_t alloc_bytes_per_phase = 0;   //!< 0: not alloc-intensive.
    double sequential_fraction = 0.5;     //!< Streaming vs random.
    uint64_t seed = 1;
};

/** Generate a workload trace from parameters. */
Workload generateWorkload(const WorkloadParams &params);

/** Parameters of a named benchmark (Table 8 + background set). */
WorkloadParams benchmarkParams(const std::string &name, uint64_t seed);

/** The six allocation-intensive benchmarks of Table 8. */
std::vector<std::string> allocationIntensiveBenchmarks();

/** The background (non-allocation-intensive) benchmark pool. */
std::vector<std::string> backgroundBenchmarks();

/**
 * A 4-core mix: two allocation-intensive plus two background traces
 * (paper Table 9 methodology).
 */
struct WorkloadMix
{
    std::string name;
    std::vector<Workload> traces; //!< One per core (4 entries).
};

/**
 * What one mix is built from: its name, one benchmark per core, and
 * the seed of its traces. buildMix() of a recipe gives exactly the
 * mix the batch builders below put in its slot, so a caller can build
 * one mix at a time.
 */
struct MixRecipe
{
    std::string name;
    std::array<std::string, 4> benchmarks;
    uint64_t seed = 0;
};

/** Generate the four traces of a recipe. */
WorkloadMix buildMix(const MixRecipe &recipe);

/** The recipes of the five representative mixes of Table 9. */
std::vector<MixRecipe> representativeMixRecipes(uint64_t seed);

/**
 * The recipes of N random mixes; every benchmark pick is drawn up
 * front, in order, from one stream.
 */
std::vector<MixRecipe> randomMixRecipes(size_t count, uint64_t seed);

/** The five representative mixes of Table 9. */
std::vector<WorkloadMix> representativeMixes(uint64_t seed);

/** N random mixes (the paper's 50-mix average). */
std::vector<WorkloadMix> randomMixes(size_t count, uint64_t seed);

} // namespace codic

#endif // CODIC_SIM_WORKLOADS_H
