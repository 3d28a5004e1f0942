/**
 * @file
 * Process-wide trace recorder: a tap on DramSystem's entry points
 * (submit() and the blocking complete()) that captures every
 * transaction into a trace file, once each, so ANY registered
 * scenario can be re-run with `codic_run --record-trace FILE` to
 * produce a reproducible DRAM-level trace - no per-scenario plumbing
 * required.
 *
 * The tap is designed to be free when off: DramSystem checks one
 * relaxed atomic flag and branches away. When on, records append
 * under a mutex in submission order, so a recording made at
 * --threads 1 is byte-deterministic; recordings of multi-threaded
 * campaigns interleave the worker threads' submissions in wall-clock
 * order and are reproducible runs but not byte-stable files (the
 * trace smoke records at --threads 1 for exactly this reason).
 */

#ifndef CODIC_TRACE_RECORDER_H
#define CODIC_TRACE_RECORDER_H

#include <atomic>
#include <string>

#include "mem/transaction.h"
#include "trace/trace_format.h"

namespace codic {

/** Static facade over the process-wide recording tap. */
class TraceRecorder
{
  public:
    /**
     * Open a recording into `path`. @throws FatalError when a
     * recording is already active or the file cannot be created.
     */
    static void start(const std::string &path, const TraceMeta &meta);

    /**
     * Finish the active recording (writes the epoch index, patches
     * the header) and return the record count. No-op returning 0
     * when no recording is active.
     */
    static uint64_t stop();

    /** Cheap check compiled into DramSystem's entry hot path. */
    static bool active()
    {
        return active_.load(std::memory_order_relaxed);
    }

    /** Append one submitted transaction (no-op when inactive). */
    static void tap(const MemTransaction &txn);

  private:
    /** The hot-path gate: active() reads it without the mutex. */
    static inline std::atomic<bool> active_{false};
};

} // namespace codic

#endif // CODIC_TRACE_RECORDER_H
