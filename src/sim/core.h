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
 */

#ifndef CODIC_SIM_CORE_H
#define CODIC_SIM_CORE_H

#include <cstdint>

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

    /** True when the trace is exhausted. */
    bool done() const
    {
        return !workload_ || cursor_ >= workload_->ops.size();
    }

    /** Local time (ns). */
    double timeNs() const { return now_ns_; }

    /** Local time in DRAM cycles (the TickEngine ordering key). */
    Cycle nowCycles() const;

    /** Execute the next trace op. */
    void step();

    /** Run the whole bound trace to completion; returns end time. */
    double run();

    const CoreStats &stats() const { return stats_; }

  private:
    void advanceTo(Cycle dram_cycle);
    void cpuCycles(double n);
    void doLoad(uint64_t addr);
    void doStore(uint64_t addr);
    void doFlush(uint64_t addr);
    void doDealloc(uint64_t addr, uint64_t bytes);
    /** Submit a fire-and-forget writeback transaction. */
    void submitWriteback(uint64_t victim_addr);
    /** Handle a dirty L1 victim through L2 (and memory if needed). */
    void writebackThroughL2(uint64_t victim_addr);

    MemoryService &controller_;
    CoreConfig config_;
    uint64_t addr_base_;
    Cache l1_;
    Cache l2_;
    const Workload *workload_ = nullptr;
    size_t cursor_ = 0;
    double now_ns_ = 0.0;
    double cpu_cycle_ns_;
    double dram_tck_ns_;
    CoreStats stats_;
};

} // namespace codic

#endif // CODIC_SIM_CORE_H
