/**
 * @file
 * Memory transactions: the request currency of the MemoryService
 * API. A caller builds a MemTransaction (read, write, or bulk row
 * operation, stamped with its arrival cycle, a priority, and an
 * origin tag) and either submits it for a Ticket or blocks on it
 * with complete(). The controller owns bounded read and write queues
 * behind submit() and resolves tickets on demand - see
 * mem/service.h for the service contract.
 */

#ifndef CODIC_MEM_TRANSACTION_H
#define CODIC_MEM_TRANSACTION_H

#include <cstdint>

#include "dram/config.h"

namespace codic {

/** Row-op mechanisms usable for bulk in-DRAM operations. */
enum class RowOpMechanism
{
    CodicDet,  //!< One CODIC-det command per row.
    RowClone,  //!< ACT(source) + RowClone(dst) + PRE.
    LisaClone, //!< ACT(source) + LISA hop + RowClone(dst) + PRE.
};

/** Transaction kinds a MemoryService accepts. */
enum class TxnKind : uint8_t
{
    Read,  //!< One burst read; completion = data burst end.
    Write, //!< One burst write; buffered, drains per SchedulerPolicy.
    RowOp, //!< Bulk row operation (secure deallocation, TRNG, PUF).
};

/**
 * Handle for a submitted transaction: opaque, nonzero, and valid
 * until resolved or retired. A MemoryController ticket is a
 * generation-tagged handle into its record arena (common/pool.h),
 * so a resolved ticket goes stale instead of naming a later
 * transaction; a DramSystem ticket is the owning channel's ticket
 * shifted left, with the channel number in the freed low bits.
 * kInvalidTicket (0) never names a transaction.
 */
using Ticket = uint64_t;

constexpr Ticket kInvalidTicket = 0;

/** One memory request, as submitted to a MemoryService. */
struct MemTransaction
{
    TxnKind kind = TxnKind::Read;

    /** Physical byte address (any address in the row for RowOp). */
    uint64_t addr = 0;

    /** Cycle the request arrives at the controller. */
    Cycle arrival = 0;

    /**
     * Scheduling priority (lower = more urgent; 0 = the default
     * best-effort class, negative values are the urgent classes).
     * Inert unless SchedulerPolicy::priority_sched is on; then the
     * FR-FCFS front-end schedules arrived requests of the most
     * urgent class present in its read window first, and urgent
     * reads (priority < 0) jump between write-drain batches. The
     * 16-bypass aging rule bounds how long any class can be held
     * back (see MemoryController).
     */
    int priority = 0;

    /**
     * Origin tag: who issued the request (core region base, fleet
     * device id, ...). Never interpreted by the scheduler; part of
     * the submission contract for future per-origin policies.
     */
    uint64_t origin = 0;

    /** RowOp only: the in-DRAM mechanism to use. */
    RowOpMechanism mech = RowOpMechanism::CodicDet;

    /** RowOp only: reserved zero-source row for clone mechanisms. */
    int64_t reserved_row = 0;

    static MemTransaction makeRead(uint64_t addr, Cycle arrival,
                                   uint64_t origin = 0,
                                   int priority = 0)
    {
        MemTransaction t;
        t.kind = TxnKind::Read;
        t.addr = addr;
        t.arrival = arrival;
        t.origin = origin;
        t.priority = priority;
        return t;
    }

    static MemTransaction makeWrite(uint64_t addr, Cycle arrival,
                                    uint64_t origin = 0)
    {
        MemTransaction t;
        t.kind = TxnKind::Write;
        t.addr = addr;
        t.arrival = arrival;
        t.origin = origin;
        return t;
    }

    static MemTransaction makeRowOp(uint64_t addr, Cycle arrival,
                                    RowOpMechanism mech,
                                    int64_t reserved_row = 0,
                                    uint64_t origin = 0,
                                    int priority = 0)
    {
        MemTransaction t;
        t.kind = TxnKind::RowOp;
        t.addr = addr;
        t.arrival = arrival;
        t.mech = mech;
        t.reserved_row = reserved_row;
        t.origin = origin;
        t.priority = priority;
        return t;
    }
};

} // namespace codic

#endif // CODIC_MEM_TRANSACTION_H
