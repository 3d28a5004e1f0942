/**
 * @file
 * The transaction-based memory-service interface consumed by the
 * trace-driven cores, the secure-deallocation paths, and the fleet's
 * replay engine. Two implementations exist: MemoryController (one
 * channel's FR-FCFS front-end) and DramSystem (N channels; routes
 * each transaction to the owning channel's controller). Consumer
 * code is written against this interface so a workload runs
 * unchanged on 1 or many channels.
 *
 * The API is asynchronous: callers submit() a MemTransaction and
 * receive a Ticket; the controller owns bounded read *and* write
 * queues (paper Table 5: 64/64 entries), schedules FR-FCFS with a
 * configurable read-reordering window, and - when
 * SchedulerPolicy::auto_refresh is on - injects REF every tREFI,
 * postponing up to the JEDEC 8-deferred limit. Ticket resolution is
 * demand-driven (the simulation is event-based, not cycle-ticked):
 *
 *  - completionOf(ticket) forces the transaction (and everything the
 *    schedule orders before it) to issue and returns its completion
 *    cycle, retiring the ticket. Each ticket resolves exactly once.
 *  - acceptedAt(ticket) is the cycle the transaction entered its
 *    queue (== arrival unless a full write queue stalled acceptance:
 *    the back-pressure that bounds software-zeroing throughput).
 *  - retire(ticket) discards a ticket whose completion the caller
 *    will never ask for (fire-and-forget writebacks), keeping
 *    per-ticket bookkeeping bounded by the number of outstanding
 *    queries, not by campaign length.
 *  - poll(now) advances the scheduler to `now`: services every
 *    queued request that has arrived and catches up refresh debt.
 *  - drainAll() services everything still queued (reads, row ops,
 *    buffered writes) and returns the cycle the service is
 *    quiescent.
 *
 * complete(txn) is the blocking form, submit + completionOf in one
 * call, for callers that wait on every read or row op (the
 * trace-driven cores, the paper campaigns' read()/rowOp() shims).
 * It returns the cycle completionOf(submit(txn)) would, with the
 * same scheduler state afterwards; MemoryController serves it
 * without a ticket when its read queue is empty.
 */

#ifndef CODIC_MEM_SERVICE_H
#define CODIC_MEM_SERVICE_H

#include <cstddef>
#include <cstdint>
#include <functional>

#include "dram/config.h"
#include "mem/transaction.h"

namespace codic {

class AddressMap;

/**
 * Completion notification for the co-simulation path: invoked with
 * the ticket and its completion cycle when the transaction's command
 * sequence finishes (see MemoryService::onComplete).
 */
using CompletionCallback = std::function<void(Ticket, Cycle)>;

/** Transaction-level service over one channel or a whole system. */
class MemoryService
{
  public:
    virtual ~MemoryService() = default;

    /**
     * Submit a transaction. Reads and row ops enter the bounded read
     * queue (a full queue services older requests until a slot
     * frees); writes enter the bounded write queue, stalling
     * acceptance when every slot is occupied by an in-flight write.
     * @return Ticket resolving the transaction (never
     *         kInvalidTicket).
     */
    virtual Ticket submit(const MemTransaction &txn) = 0;

    /** Cycle the transaction was accepted into its queue. */
    virtual Cycle acceptedAt(Ticket ticket) const = 0;

    /**
     * Completion cycle of the transaction, forcing it (and everything
     * scheduled before it) to issue if still queued. Retires the
     * ticket: each ticket may be resolved exactly once.
     */
    virtual Cycle completionOf(Ticket ticket) = 0;

    /** Drop a ticket whose completion will never be queried. */
    virtual void retire(Ticket ticket) = 0;

    /**
     * Submit a transaction and block until it completes: returns
     * completionOf(submit(txn)) and leaves the service in the same
     * state. An implementation may skip the ticket bookkeeping when
     * that cannot change the schedule.
     */
    virtual Cycle complete(const MemTransaction &txn)
    {
        return completionOf(submit(txn));
    }

    /**
     * Register a completion callback on a live ticket (the
     * co-simulation path: a TickEngine producer submits without
     * blocking and learns the completion when the scheduler services
     * the transaction under poll()/drainAll()/another consumer's
     * resolution). Registering transfers ticket ownership to the
     * service: the ticket auto-retires when the callback fires, so
     * the caller must not also call completionOf()/retire() on it.
     * A ticket whose transaction already completed fires immediately
     * (before this call returns). Callbacks observe a consistent
     * scheduler: they must not re-enter the service (no submit /
     * completionOf / poll from inside a callback) - record the event
     * and act on the next producer tick, as dramsim3 frontends do.
     */
    virtual void onComplete(Ticket ticket, CompletionCallback fn) = 0;

    /**
     * Advance the scheduler to `now`: issue every queued read/row-op
     * whose arrival is <= now and catch up refresh debt beyond the
     * postponement allowance. @return Requests serviced by the call.
     */
    virtual size_t poll(Cycle now) = 0;

    /**
     * Service everything still queued - reads, row ops, and buffered
     * writes - and return the cycle the service is quiescent (last
     * issue or write-burst completion). Legally postponed refreshes
     * (debt within SchedulerPolicy::refresh_postpone) stay postponed.
     */
    virtual Cycle drainAll() = 0;

    /** Queued (not yet issued) transactions, all kinds. */
    virtual size_t inFlightCount() const = 0;

    /** The address map in use. */
    virtual const AddressMap &map() const = 0;

    /** The DRAM configuration behind this service. */
    virtual const DramConfig &dramConfig() const = 0;

    // --- Blocking shim (paper campaigns) ---

    /**
     * Service a read to completion: the caller blocks until the data
     * burst completes. Equivalent to submit + completionOf.
     */
    Cycle read(uint64_t phys_addr, Cycle now, uint64_t origin = 0)
    {
        return complete(MemTransaction::makeRead(phys_addr, now, origin));
    }

    /**
     * Accept a write into the owning channel's write queue and
     * return the acceptance cycle (== now unless the queue is full).
     * Fire-and-forget: the write's own completion is not tracked.
     */
    Cycle write(uint64_t phys_addr, Cycle now, uint64_t origin = 0)
    {
        const Ticket t =
            submit(MemTransaction::makeWrite(phys_addr, now, origin));
        const Cycle accepted = acceptedAt(t);
        retire(t);
        return accepted;
    }

    /**
     * Execute a bulk row operation (deterministic overwrite of one
     * row) to completion with the selected mechanism.
     */
    Cycle rowOp(uint64_t row_addr, Cycle now, RowOpMechanism mech,
                int64_t reserved_row = 0)
    {
        return complete(MemTransaction::makeRowOp(row_addr, now, mech,
                                                  reserved_row));
    }
};

} // namespace codic

#endif // CODIC_MEM_SERVICE_H
