/**
 * @file
 * Trace-driven in-order core with an L1/L2 write-back hierarchy over
 * the FR-FCFS memory controller (paper Tables 5 and 7: in-order
 * cores, 64 KB L1, 512 KB L2 per core, 64 B lines).
 *
 * The core executes TraceOps: blocking loads/stores through the
 * caches (write-allocate, so store misses fetch the line first),
 * CLFLUSH with write-queue back-pressure, and region deallocation via
 * either inline software zeroing or one in-DRAM row operation per row
 * (CODIC-det / RowClone / LISA-clone).
 *
 * The core is a transaction-API consumer (mem/service.h): load and
 * store misses block on complete() of a read transaction (store
 * misses fetch the line for ownership); writebacks are
 * fire-and-forget submits (retired unqueried); CLFLUSH blocks on
 * acceptedAt (write-queue back-pressure); dealloc row ops complete()
 * without advancing core time. Every transaction is tagged with the
 * core's region base as its origin.
 *
 * Each trace op runs in two halves. The cache half (CoreCaches) does
 * the L1/L2 lookups, fills, victims, flushes and row invalidations;
 * it never reads the clock or the memory, so its decisions depend on
 * the trace and the deallocation class (software or hardware) alone.
 * It yields one outcome code per line access and the dirty victim
 * lines that reach memory. The timing half adds the CPU cycles and
 * makes the memory calls those outcomes imply. A live step() runs
 * both; a core bound to a CacheRecording runs only the timing half,
 * so the LISA-clone, RowClone and CODIC-det runs of one trace can
 * share one cache pass.
 */

#ifndef CODIC_SIM_CORE_H
#define CODIC_SIM_CORE_H

#include <cstdint>
#include <vector>

#include "mem/service.h"
#include "sim/cache.h"
#include "sim/trace.h"

namespace codic {

/** How DeallocRegion trace ops are executed. */
enum class DeallocMode
{
    SoftwareZero, //!< Inline store loop (the baseline of Appendix A).
    CodicDet,     //!< One CODIC-det command per row.
    RowClone,     //!< RowClone FPM copy of a zero row.
    LisaClone,    //!< LISA-clone copy of a zero row.
};

/** Display name. */
const char *deallocModeName(DeallocMode m);

/** Core configuration (paper Table 7). */
struct CoreConfig
{
    double cpu_ghz = 3.2;       //!< Core clock.
    uint64_t l1_bytes = 65536;  //!< 64 KB L1.
    int l1_ways = 4;
    uint64_t l2_bytes = 524288; //!< 512 KB L2 per core.
    int l2_ways = 8;
    int l1_hit_cycles = 1;      //!< CPU cycles.
    int l2_hit_cycles = 8;      //!< CPU cycles.
    int dealloc_cmd_cycles = 20;//!< CPU cycles to issue one row op.
    DeallocMode dealloc = DeallocMode::SoftwareZero;
};

/**
 * Outcome code of one line access (a Load, a Store, or one line of a
 * software zeroing loop) or one Flush, as the cache half records it.
 */
namespace cache_outcome {
constexpr uint8_t kL1Hit = 0;
constexpr uint8_t kL2Hit = 1;
constexpr uint8_t kMiss = 2;        //!< Both levels missed: a read.
constexpr uint8_t kLevelMask = 3;
/** The dirty L1 victim, written into L2, evicted a dirty L2 line. */
constexpr uint8_t kL1VictimOut = 4;
/** The L2 fill evicted a dirty line. */
constexpr uint8_t kL2VictimOut = 8;
/** A Flush found the line dirty in L1 or L2. */
constexpr uint8_t kFlushDirty = 1;
} // namespace cache_outcome

/**
 * One core's cache pass over one trace: what the timing half needs.
 * Made by recordCachePass(); consumed by InOrderCore::bind().
 */
struct CacheRecording
{
    /** One code per Load/Store/Flush and per software-zeroed line. */
    std::vector<uint8_t> outcomes;
    /** Dirty victim line addresses bound for memory, in issue order. */
    std::vector<uint64_t> victims;
    /** Trace ops covered (checked at bind). */
    size_t ops = 0;
    /** Region base of the recording core (checked at bind). */
    uint64_t addr_base = 0;
    /** Made under software zeroing (checked at bind). */
    bool software_zero = false;
};

/** A core's private L1/L2 pair: the cache half of InOrderCore. */
class CoreCaches
{
  public:
    /**
     * @param config Cache geometry and deallocation mode (software
     *        zeroing stores every line; the hardware mechanisms
     *        invalidate whole rows and share one cache pass).
     * @param row_bytes DRAM row size (hardware invalidation unit).
     */
    CoreCaches(const CoreConfig &config, int64_t row_bytes);

    /** Run one op's cache half; append its outcomes to `out`. */
    void access(const TraceOp &op, uint64_t addr_base,
                CacheRecording &out);

  private:
    /** One line access through L1 then L2; returns its code. */
    uint8_t lineAccess(uint64_t addr, bool write, CacheRecording &out);

    Cache l1_;
    Cache l2_;
    int64_t row_bytes_;
    bool software_zero_;
};

/**
 * The cache pass of `workload` as a core with `config` at
 * `addr_base` over rows of `row_bytes` makes it, with no memory.
 */
CacheRecording recordCachePass(const Workload &workload,
                               const CoreConfig &config,
                               int64_t row_bytes,
                               uint64_t addr_base = 0);

/** Per-core execution statistics. */
struct CoreStats
{
    uint64_t instructions = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t dealloc_rows = 0;
    uint64_t dealloc_lines_zeroed = 0;
};

/** One in-order core bound to a trace. */
class InOrderCore
{
  public:
    /**
     * @param mem Shared memory service: a single MemoryController or
     *        a multi-channel DramSystem (trace addresses then
     *        interleave across channels per the system's MapScheme).
     * @param config Core parameters.
     * @param addr_base Physical base offset for this core's trace
     *        addresses (gives each core a private region).
     */
    InOrderCore(MemoryService &mem, const CoreConfig &config,
                uint64_t addr_base = 0);

    /** Attach a trace; resets time and statistics. */
    void bind(const Workload *workload, double start_ns = 0.0);

    /**
     * Attach a trace with its recorded cache pass (same trace, region
     * base and deallocation class; the recording must outlive the
     * run). step() then runs only the timing half: the same cycle
     * adds and memory calls as a live step, with the core's own
     * caches untouched.
     */
    void bind(const Workload *workload, const CacheRecording &recording,
              double start_ns = 0.0);

    /** True when the trace is exhausted. */
    bool done() const
    {
        return !workload_ || cursor_ >= workload_->ops.size();
    }

    /** Local time (ns). */
    double timeNs() const { return now_ns_; }

    /**
     * Local time rounded up to a DRAM cycle: the arrival stamp of the
     * core's next transaction. Cores are ordered by exact timeNs().
     */
    Cycle nowCycles() const;

    /** Execute the next trace op. */
    void step();

    /** Run the whole bound trace to completion; returns end time. */
    double run();

    const CoreStats &stats() const { return stats_; }

  private:
    void advanceTo(Cycle dram_cycle);
    void cpuCycles(double n);
    /** The timing half of one op, reading its cache outcomes. */
    void timeOp(const TraceOp &op);
    /** One line access: `l1_cycles`, then what its outcome implies. */
    void timeAccess(uint64_t addr, double l1_cycles);
    void timeStore(uint64_t addr);
    void timeFlush(uint64_t addr);
    void timeDealloc(uint64_t addr, uint64_t bytes);
    /** Submit a fire-and-forget writeback transaction. */
    void submitWriteback(uint64_t victim_addr);

    MemoryService &controller_;
    CoreConfig config_;
    uint64_t addr_base_;
    CoreCaches caches_;
    /** The live step's cache outcomes, refilled per op. */
    CacheRecording step_outcomes_;
    /** Bound recording, or null for live stepping. */
    const CacheRecording *recording_ = nullptr;
    /** Next outcome code and victim the timing half consumes. */
    const uint8_t *code_ = nullptr;
    const uint64_t *victim_ = nullptr;
    const Workload *workload_ = nullptr;
    size_t cursor_ = 0;
    double now_ns_ = 0.0;
    double cpu_cycle_ns_;
    double dram_tck_ns_;
    CoreStats stats_;
};

} // namespace codic

#endif // CODIC_SIM_CORE_H
