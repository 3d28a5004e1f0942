/**
 * @file
 * The benchmark's workloads. Each runs its library entry points at
 * one engine thread for --seconds of passes and returns either the
 * end-to-end metrics (untraced run) or the per-layer metrics of a
 * traced run, plus its checks and modeled-output digest.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "harness.h"

namespace perfbench {

/** Fig. 9 4-core secure-deallocation mixes (sim, mem, dram). */
Report runSecdeallocMix(const RunSpec &spec);

/** Fig. 5 Jaccard campaigns of the three PUFs (puf, chip model). */
Report runPufJaccard(const RunSpec &spec);

/** Open-loop mixed fleet traffic through AuthService (fleet). */
Report runFleetServe(const RunSpec &spec);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
