/**
 * @file
 * Campaign engine for embarrassingly parallel simulation sweeps (PUF
 * Jaccard campaigns, Monte-Carlo circuit sweeps, secure-deallocation
 * mechanism comparisons, fleet shard batches).
 *
 * Determinism contract: the engine never introduces scheduling
 * dependence into results. Callers split a campaign into indexed
 * tasks, derive one Rng stream per index up front (forkStreams), and
 * write each task's result into its own slot. Under that discipline a
 * campaign is bit-identical for a fixed seed at any thread count,
 * which the test suite asserts for every converted campaign.
 */

#ifndef CODIC_COMMON_PARALLEL_H
#define CODIC_COMMON_PARALLEL_H

#include <cstddef>
#include <functional>
#include <vector>

#include "common/rng.h"

namespace codic {

/**
 * Runs one campaign's indexed tasks on a fixed number of threads.
 *
 * Each forEach starts its own threads and joins them before it
 * returns; the threads and the caller claim one index at a time from
 * a shared counter, so a slow task (e.g. a chip whose PUF filter
 * converges slowly) holds back only itself. A `threads() == 1`
 * engine, or a campaign of one task, runs inline on the caller: that
 * plain loop IS the sequential path (there is no separate sequential
 * implementation to drift from).
 */
class CampaignEngine
{
  public:
    /**
     * @param threads Thread count. 0 picks the hardware concurrency;
     *        1 runs every campaign inline on the calling thread.
     */
    explicit CampaignEngine(int threads = 0);

    /** Number of threads that execute tasks (including the caller). */
    int threads() const { return threads_; }

    /**
     * Execute fn(i) for every i in [0, n). Blocks until all tasks
     * complete. After the first exception thrown by a task no thread
     * claims another index. Once every thread has stopped, the
     * exception of the lowest index that threw is rethrown here:
     * indices are claimed in order, so every lower index has run, and
     * deterministic tasks raise what the sequential loop raises.
     */
    void forEach(size_t n, const std::function<void(size_t)> &fn) const;

  private:
    int threads_;
};

/**
 * Derive n independent per-task Rng streams from one campaign seed.
 *
 * The streams are produced by sequential fork() calls on a fresh root
 * generator, so they depend only on (seed, index) - never on which
 * thread later consumes them.
 */
std::vector<Rng> forkStreams(uint64_t seed, size_t n);

} // namespace codic

#endif // CODIC_COMMON_PARALLEL_H
