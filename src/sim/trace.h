/**
 * @file
 * Trace format for the trace-driven CPU model (paper Appendix A uses
 * Pin user-level traces and Bochs full-system traces; this repository
 * generates statistically equivalent synthetic traces with the
 * workload generators in sim/workloads.h).
 */

#ifndef CODIC_SIM_TRACE_H
#define CODIC_SIM_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

namespace codic {

/** Kinds of trace operations. */
enum class OpType : uint8_t
{
    Compute,       //!< `count` non-memory instructions.
    Load,          //!< 64 B line read at `addr`.
    Store,         //!< 64 B line write at `addr` (8 store uops).
    Flush,         //!< CLFLUSH of the line at `addr` (ordered).
    DeallocRegion, //!< OS frees [addr, addr + count) - must be zeroed.
};

/**
 * One trace operation, packed into 16 bytes (a 4-core mix holds
 * hundreds of thousands). `addr` is a 56-bit field: trace addresses
 * are byte offsets below 2^56 (64 PiB), far above any module the
 * simulator models; a larger value would wrap.
 */
struct TraceOp
{
    OpType type = OpType::Compute;
    uint64_t addr : 56 = 0;
    uint64_t count = 0; //!< Instructions (Compute) or bytes (Dealloc).
};
static_assert(sizeof(TraceOp) == 16, "TraceOp must stay 16 bytes");

/** A full single-threaded trace plus identification. */
struct Workload
{
    std::string name;
    std::vector<TraceOp> ops;

    /** Total bytes deallocated by the trace. */
    uint64_t deallocBytes() const;

    /** Total instruction count (compute + memory uops). */
    uint64_t instructionCount() const;

    /**
     * Bytes of address space the trace reaches from offset 0: the
     * highest end of a Load/Store/Flush line (64 B) or of a
     * DeallocRegion. A core's region must hold at least this much.
     */
    uint64_t extentBytes() const;
};

} // namespace codic

#endif // CODIC_SIM_TRACE_H
