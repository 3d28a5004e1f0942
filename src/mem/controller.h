/**
 * @file
 * FR-FCFS memory controller (paper Table 5: 64/64-entry read/write
 * queues, FR-FCFS scheduling [119, 176]) over the cycle-accurate
 * DRAM channel, exposed through the transaction-based MemoryService
 * API (mem/service.h).
 *
 * Reads and row ops are submitted into a bounded read queue kept in
 * arrival order and issued on demand: resolving a ticket services
 * everything the schedule orders before it. Within the policy's
 * read-reordering window a row-hit read may bypass older row-miss
 * reads (never across a row op, never past an older same-row
 * request, and a head bypassed kReadStarvationLimit times is
 * force-scheduled), which is the row-hit-first half of FR-FCFS over
 * the read queue.
 *
 * Writes are accepted into a bounded per-channel write queue and
 * buffered: a drain episode starts when pending occupancy crosses
 * the policy's high watermark (whole-queue percentage, or the
 * per-bank count watermark) and flushes row-hit batches (oldest
 * pending write first, coalescing up to
 * SchedulerPolicy::max_drain_batch same-row writes back-to-back)
 * until occupancy falls to the low watermark. Buffering keeps reads
 * ahead of writes on the data bus and pays the rd<->wr turnaround
 * once per drained burst instead of once per write.
 *
 * A write-queue slot is held from acceptance until the write's data
 * burst completes. When every slot is taken, acceptance stalls until
 * the oldest in-flight write completes - the back-pressure that
 * bounds software-zeroing throughput in the TCG and
 * secure-deallocation evaluations. The stall check is strictly
 * channel-local: in a multi-channel module each channel's controller
 * stalls only on its own queue.
 *
 * With SchedulerPolicy::auto_refresh on, the controller injects REF
 * per rank every tREFI, postponing up to refresh_postpone due REFs
 * (JEDEC DDR3: at most 8) while read/write work is pending. With
 * refresh=per-bank the cadence becomes one REFpb every
 * tREFIpb = tREFI / banks, rotating round-robin over the banks, so
 * each bank is still refreshed every tREFI but only the target bank
 * is locked out (for the shorter tRFCpb) per refresh. The paper
 * campaigns keep refresh off (they legally run at power-on before
 * refresh starts), so the eager preset reproduces the published
 * numbers byte-for-byte.
 *
 * With SchedulerPolicy::priority_sched on, the read window becomes
 * priority-aware: among arrived requests in the window the most
 * urgent class (lowest MemTransaction::priority) is scheduled first
 * (row hits preferred within the class), and urgent reads
 * (priority < 0) jump in between write-drain batches. Both bypass
 * forms count against the same kReadStarvationLimit aging rule, so a
 * best-effort head is force-scheduled after at most 16 bypasses -
 * the explicit starvation bound of the QoS mode.
 */

#ifndef CODIC_MEM_CONTROLLER_H
#define CODIC_MEM_CONTROLLER_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/pool.h"
#include "mem/address_map.h"
#include "mem/service.h"
#include "dram/channel.h"

namespace codic {

/** Controller configuration (paper Table 5 defaults). */
struct ControllerConfig
{
    int read_queue_entries = 64;
    int write_queue_entries = 64;
    MapScheme map_scheme = MapScheme::RowBankColumn;
};

/**
 * Per-origin command and latency roll-up (QoS accounting). DRAM bus
 * commands carry no origin, so the controller - which still holds
 * the submitting MemTransaction - maintains these next to the
 * channel's CommandCounts; DramSystem::perOriginCounts() merges them
 * across channels so every scenario can break out e.g. auth-critical
 * traffic from background streams through its ResultSink rows.
 */
struct OriginCounts
{
    uint64_t origin = 0; //!< MemTransaction::origin tag.

    uint64_t reads = 0;  //!< Reads serviced for this origin.
    uint64_t writes = 0; //!< Writes accepted for this origin.
    uint64_t rowops = 0; //!< Row ops serviced for this origin.

    /** Sum over serviced reads of (completion - arrival) cycles. */
    uint64_t read_latency_cycles = 0;

    /** Sum over serviced row ops of (completion - arrival) cycles. */
    uint64_t rowop_latency_cycles = 0;

    /** Largest single read latency seen (cycles). */
    Cycle max_read_latency = 0;

    /** Merge another origin's roll-up (same origin tag expected). */
    OriginCounts &operator+=(const OriginCounts &other)
    {
        reads += other.reads;
        writes += other.writes;
        rowops += other.rowops;
        read_latency_cycles += other.read_latency_cycles;
        rowop_latency_cycles += other.rowop_latency_cycles;
        max_read_latency =
            std::max(max_read_latency, other.max_read_latency);
        return *this;
    }
};

/**
 * Memory controller front-end for one channel.
 *
 * The controller is simulated lazily: requests queue at submit() and
 * push through the channel when a ticket is resolved (or poll /
 * drainAll advances the scheduler), with all JEDEC constraints
 * enforced by DramChannel. FR-FCFS behaviour emerges from the
 * open-row policy plus the read-reordering window: the controller
 * leaves rows open, only precharges on a conflict, and prefers
 * row-hit reads within the window.
 *
 * A controller is a channel-local view: it decodes full physical
 * addresses with the module-wide map, but only accepts requests that
 * land on its own channel. In a multi-channel module the DramSystem
 * owns one controller per channel and routes transactions; a
 * standalone controller over a single-channel config behaves as
 * before.
 */
class MemoryController : public MemoryService
{
  public:
    /**
     * Times a read-queue head may be bypassed by younger row-hit
     * reads before it is force-scheduled (the starvation bound real
     * FR-FCFS front-ends carry; reads stay live across REF storms
     * and row-hit bursts alike).
     */
    static constexpr int kReadStarvationLimit = 16;

    MemoryController(DramChannel &channel,
                     const ControllerConfig &config = {});

    // MemoryService transaction API.
    Ticket submit(const MemTransaction &txn) override;

    /**
     * submit() with `txn.addr` already decoded under the module map.
     * DramSystem routes by decoding once and hands the coordinates
     * down, so a transaction is decoded exactly once per submission.
     */
    Ticket submit(const MemTransaction &txn, const Address &addr);
    Cycle acceptedAt(Ticket ticket) const override;
    Cycle completionOf(Ticket ticket) override;
    void retire(Ticket ticket) override;

    /**
     * Blocking submit + resolve. With the read queue empty a read or
     * row op is the whole FR-FCFS window, so the queued path would
     * pick it at once: it issues here with no ticket, record or
     * queue entry. Writes, and requests that would queue behind
     * others, take completionOf(submit(txn)).
     */
    Cycle complete(const MemTransaction &txn) override;

    /** complete() with `txn.addr` already decoded (see submit()). */
    Cycle complete(const MemTransaction &txn, const Address &addr);
    void onComplete(Ticket ticket, CompletionCallback fn) override;
    size_t poll(Cycle now) override;
    Cycle drainAll() override;
    size_t inFlightCount() const override
    {
        return read_q_.size() + pending_writes_.size();
    }

    /** The address map in use. */
    const AddressMap &map() const override { return map_; }

    /** Configuration of the module this controller serves. */
    const DramConfig &dramConfig() const override
    {
        return channel_.config();
    }

    /** Underlying channel (stats, config). */
    DramChannel &channel() { return channel_; }

    /** Scheduler policy in effect (from the module configuration). */
    const SchedulerPolicy &schedulerPolicy() const { return sched_; }

    /** Writes accepted so far (for drain-invariant assertions). */
    uint64_t acceptedWrites() const { return accepted_writes_; }

    /** Writes buffered in the queue but not yet issued. */
    size_t pendingWriteCount() const
    {
        return pending_writes_.size();
    }

    /** Reads/row ops queued but not yet issued. */
    size_t pendingReadCount() const { return read_q_.size(); }

    /**
     * Refresh commands injected so far (auto_refresh accounting):
     * rank REFs in all-bank mode, REFpb commands in per-bank mode.
     */
    uint64_t refreshesIssued() const;

    /**
     * Per-origin roll-ups, sorted by origin tag (deterministic
     * iteration regardless of submission interleaving). Reads and
     * row ops are accounted when serviced, writes when accepted.
     */
    std::vector<OriginCounts> originCounts() const;

    /**
     * Tickets with live bookkeeping (submitted, neither resolved nor
     * retired). A fire-and-forget stream that retires its tickets
     * keeps this bounded by the in-flight count, not campaign length.
     */
    size_t trackedTicketCount() const { return records_.liveCount(); }

    /**
     * Record slots ever allocated (the arena's high-water mark): the
     * boundedness the retire() contract promises is that this stops
     * growing once the in-flight window reaches steady state.
     */
    size_t recordSlotCount() const { return records_.slotCount(); }

  private:
    /** A write accepted into the queue, awaiting its drain. */
    struct PendingWrite
    {
        Address addr;
        Ticket ticket;
        /** Acceptance cycle: the write cannot issue before it. */
        Cycle accepted = 0;
    };

    /** A read/row-op queued for issue, kept in arrival order. */
    struct QueuedRequest
    {
        MemTransaction txn;
        Ticket ticket;
        /** Decoded once at submit; the window scan compares it. */
        Address addr;
    };

    /** Resolution state of one ticket (released when resolved). */
    struct TxnRecord
    {
        TxnKind kind = TxnKind::Read;
        Cycle accepted = 0;
        Cycle completion = 0;
        bool completed = false;
    };

    /** Index into per-bank bookkeeping arrays. */
    size_t bankIndex(const Address &addr) const
    {
        return static_cast<size_t>(addr.rank) *
                   static_cast<size_t>(channel_.config().banks) +
               static_cast<size_t>(addr.bank);
    }

    /**
     * Move up to `limit` pending writes matching `row`'s
     * rank/bank/row into `out`, preserving acceptance order, with a
     * single compaction pass over the queue.
     */
    void takeRowMatchesInto(const Address &row, size_t limit,
                            std::vector<PendingWrite> &out);

    /**
     * Issue one same-row write batch back-to-back at row-ready,
     * recording completions. Returns the batch's completion cycle.
     */
    Cycle issueRowBatch(const std::vector<PendingWrite> &batch,
                        Cycle not_before);

    /**
     * Issue one row-hit batch of pending writes: the write at
     * queue index `head_idx` plus up to max_drain_batch-1 same-row
     * writes, back-to-back. Returns the batch's completion cycle.
     */
    Cycle drainBatchAt(size_t head_idx, Cycle not_before);

    /** drainBatchAt(0): the oldest pending write's batch. */
    Cycle drainOneBatch(Cycle not_before);

    /** Drain row-hit batches until at most `target` writes pend. */
    Cycle drainPendingTo(size_t target, Cycle not_before);

    /** Drain one bank's pending writes down to `target`. */
    Cycle drainBankTo(int rank, int bank, size_t target,
                      Cycle not_before);

    /**
     * Issue every pending write to `addr`'s row (the write-forwarding
     * surrogate: a read or destructive row op must observe writes
     * accepted before it). The check is inline: most reads hit banks
     * with no buffered writes at all.
     */
    void flushRow(const Address &addr, Cycle not_before)
    {
        if (bank_pending_[bankIndex(addr)] != 0)
            flushRowWrites(addr, not_before);
    }

    /** flushRow() for a bank with pending writes. */
    void flushRowWrites(const Address &addr, Cycle not_before);

    /** Accept one write (old blocking-write body); acceptance cycle. */
    Cycle acceptWrite(const Address &addr, Cycle now, Ticket ticket);

    /**
     * Index into read_q_ of the next request to issue: the head, or
     * a row-hit read within the policy window whose arrival is
     * within `arrival_bound` (see class comment).
     */
    size_t pickRequestIndex(Cycle arrival_bound) const
    {
        // FR-FCFS must take the head when it is alone in the window,
        // aged out, a row op (a barrier), or - without priorities -
        // an arrived row hit (the scan's first candidate and pick, as
        // nothing is older): then the scan would return it too.
        const QueuedRequest &head = read_q_.front();
        if (read_q_.size() == 1 || sched_.read_window <= 1 ||
            head_bypasses_ >= kReadStarvationLimit ||
            head.txn.kind == TxnKind::RowOp)
            return 0;
        if (!sched_.priority_sched && head.txn.arrival <= arrival_bound &&
            channel_.bankActive(head.addr.rank, head.addr.bank) &&
            channel_.openRow(head.addr.rank, head.addr.bank) ==
                head.addr.row)
            return 0;
        return scanReadWindow(arrival_bound);
    }

    /** pickRequestIndex() when the head is not a forced pick. */
    size_t scanReadWindow(Cycle arrival_bound) const;

    /** A queued request the scheduler just issued. */
    struct Serviced
    {
        Ticket ticket;
        Cycle done;
    };

    /**
     * Issue the picked queued request, bounding row-hit bypass to
     * requests arrived by `arrival_bound`, and dequeue it. The caller
     * records the completion (see serviceOneRequest()).
     */
    Serviced issuePicked(Cycle arrival_bound);

    /** issuePicked(), then record the serviced ticket's completion. */
    Cycle serviceOneRequest(Cycle arrival_bound);

    /**
     * Issue one read or row op and account it to its origin; returns
     * its completion cycle. The one issue path of the queued and the
     * ticket-free requests.
     */
    Cycle serviceRequest(const MemTransaction &txn, const Address &addr);

    /**
     * The default scheduling horizon: everything arrived by the time
     * the channel could service the queue head (max of head arrival
     * and last issue cycle) counts as pending for row-hit bypass.
     */
    Cycle defaultHorizon() const
    {
        return std::max(read_q_.front().txn.arrival,
                        channel_.lastIssueCycle());
    }

    /** serviceOneRequest() at defaultHorizon(). */
    Cycle serviceNextRequest();

    /**
     * Issue the read/row-op command sequence of one transaction.
     * `addr` is the transaction's address, decoded once at submit and
     * carried in the queue entry (row ops rebase it to column 0).
     */
    Cycle issueRead(const MemTransaction &txn, const Address &addr);
    Cycle issueRowOp(const MemTransaction &txn, Address addr);

    /**
     * Issue REFs to `rank` until its debt at cycle `t` is within the
     * postponement allowance (no-op unless auto_refresh). Dispatches
     * to the per-bank cadence when refresh=per-bank.
     */
    void catchUpRefresh(int rank, Cycle t);

    /** The REFpb cadence: one bank every tREFIpb, round-robin. */
    void catchUpRefreshPerBank(int rank, Cycle t);

    /**
     * True if an urgent read (priority < 0) has arrived by `bound`
     * within the read window (up to the row-op barrier).
     */
    bool hasArrivedUrgentRead(Cycle bound) const;

    /**
     * Service arrived urgent reads ahead of further write draining
     * (no-op unless priority_sched). Called between drain batches so
     * an authenticate-class read never waits out a whole drain
     * episode behind background writes.
     */
    void serviceUrgentReads(Cycle not_before);

    /**
     * Roll-up slot for `origin`, appended on first use. A memo hit
     * is inline; a miss takes indexOrigin().
     */
    OriginCounts &originSlot(uint64_t origin)
    {
        const OriginMemo &memo = origin_memo_[memoSlot(origin)];
        if (memo.index != UINT32_MAX && memo.origin == origin)
            return origin_counts_[memo.index];
        return indexOrigin(origin);
    }

    /** originSlot() past the memo: the hash index, then append. */
    OriginCounts &indexOrigin(uint64_t origin);

    /** Record a ticket's completion if it is still tracked. */
    void markCompleted(Ticket ticket, Cycle completion);

    /** Fire and release a registered callback (see onComplete()). */
    void fireCallback(Ticket ticket, Cycle completion);

    DramChannel &channel_;
    ControllerConfig config_;
    AddressMap map_;
    int codic_det_variant_;
    SchedulerPolicy sched_;
    /**
     * Accepted but not yet issued writes (FIFO acceptance order).
     * Bounded by write_queue_entries, reserved up front: insert/erase
     * are short memmoves over contiguous storage, never allocations.
     */
    std::vector<PendingWrite> pending_writes_;
    /** Completion cycles of issued in-flight writes (nondecreasing). */
    RingBuffer<Cycle> write_completions_;
    /**
     * Queued reads/row ops, sorted by arrival with submission order
     * breaking ties. Bounded by read_queue_entries and reserved up
     * front, like pending_writes_; a ring, so servicing the head (the
     * common pick) moves no other entry.
     */
    RingBuffer<QueuedRequest> read_q_;
    /**
     * Resolution state per live ticket: a ticket IS the arena handle
     * (generation-tagged slot), so submit/resolve/retire recycle
     * slots through the free list instead of churning map nodes.
     */
    SlotArena<TxnRecord> records_;
    /** Refresh commands injected per rank (REF or REFpb cadence). */
    std::vector<int64_t> refs_issued_;
    /**
     * Per-origin roll-ups in first-use order; originCounts() sorts a
     * copy. Origins may be many (fleet replay tags every transaction
     * with its device id), so a lookup is O(1): a direct-mapped memo
     * of recent origins, then the hash index, and a new origin is
     * appended.
     */
    std::vector<OriginCounts> origin_counts_;
    /** Position of each origin in origin_counts_. */
    std::unordered_map<uint64_t, uint32_t> origin_index_;
    /** A recently used origin and its position in origin_counts_. */
    struct OriginMemo
    {
        uint64_t origin = 0;
        uint32_t index = UINT32_MAX; //!< UINT32_MAX: empty.
    };
    /** Memo slot of origin o: the top bits of o * 2^64 / phi. */
    static constexpr int kOriginMemoBits = 6;
    static size_t memoSlot(uint64_t origin)
    {
        return static_cast<size_t>((origin * 0x9e3779b97f4a7c15ULL) >>
                                   (64 - kOriginMemoBits));
    }
    std::array<OriginMemo, size_t{1} << kOriginMemoBits> origin_memo_{};
    /** Pending (unissued) writes per bank, indexed by bankIndex(). */
    std::vector<uint32_t> bank_pending_;
    /**
     * Scratch batch for drain/flush assembly. Safe to share: batch
     * assembly and issueRowBatch() never re-enter a drain or flush.
     */
    std::vector<PendingWrite> batch_scratch_;
    /**
     * Completion callbacks by ticket (co-sim consumers only). A side
     * map rather than a TxnRecord field so the blocking hot path
     * pays exactly one empty() branch per completion when no
     * callback was ever registered.
     */
    std::unordered_map<Ticket, CompletionCallback> callbacks_;
    uint64_t accepted_writes_ = 0;
    /** Consecutive window bypasses of the current queue head. */
    int head_bypasses_ = 0;
#ifndef NDEBUG
    /** Re-entrancy guard: true while a callback is running. */
    bool in_callback_ = false;
#endif
};

} // namespace codic

#endif // CODIC_MEM_CONTROLLER_H
