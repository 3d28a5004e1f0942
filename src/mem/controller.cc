#include "mem/controller.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"

namespace codic {

MemoryController::MemoryController(DramChannel &channel,
                                   const ControllerConfig &config)
    : channel_(channel), config_(config),
      map_(channel.config(), config.map_scheme),
      codic_det_variant_(
          channel.registerVariant(variants::detZero().schedule)),
      sched_(channel.config().scheduler),
      refs_issued_(static_cast<size_t>(channel.config().ranks), 0),
      bank_pending_(static_cast<size_t>(channel.config().ranks *
                                        channel.config().banks),
                    0)
{
    CODIC_ASSERT(config_.read_queue_entries > 0);
    CODIC_ASSERT(config_.write_queue_entries > 0);
    sched_.validate();
    // Queue occupancy is bounded (submit back-pressures before
    // inserting into a full queue), so one up-front reservation keeps
    // every later queue operation allocation-free.
    pending_writes_.reserve(
        static_cast<size_t>(config_.write_queue_entries));
    read_q_.reserve(static_cast<size_t>(config_.read_queue_entries));
    batch_scratch_.reserve(
        static_cast<size_t>(config_.write_queue_entries));
}

void
MemoryController::takeRowMatchesInto(const Address &row, size_t limit,
                                     std::vector<PendingWrite> &out)
{
    if (limit == 0 || bank_pending_[bankIndex(row)] == 0)
        return;
    // Single compaction pass: matches move to `out` (in acceptance
    // order), non-matches slide forward in place.
    size_t kept = 0;
    size_t taken = 0;
    for (size_t i = 0; i < pending_writes_.size(); ++i) {
        PendingWrite &w = pending_writes_[i];
        if (taken < limit && w.addr.rank == row.rank &&
            w.addr.bank == row.bank && w.addr.row == row.row) {
            out.push_back(w);
            ++taken;
        } else {
            if (kept != i)
                pending_writes_[kept] = w;
            ++kept;
        }
    }
    pending_writes_.resize(kept);
    bank_pending_[bankIndex(row)] -= static_cast<uint32_t>(taken);
}

void
MemoryController::markCompleted(Ticket ticket, Cycle completion)
{
    TxnRecord *rec = records_.find(ticket);
    if (rec == nullptr)
        return; // Retired fire-and-forget; nothing to record.
    rec->completed = true;
    rec->completion = completion;
    if (!callbacks_.empty())
        fireCallback(ticket, completion);
}

void
MemoryController::fireCallback(Ticket ticket, Cycle completion)
{
    auto it = callbacks_.find(ticket);
    if (it == callbacks_.end())
        return;
    // Move the callback out before invoking so the map mutation is
    // done before user code runs; releasing this ticket's record
    // never moves other live slots (SlotArena contract), so any
    // servicing loop holding a different record stays valid.
    CompletionCallback fn = std::move(it->second);
    callbacks_.erase(it);
    records_.release(ticket);
#ifndef NDEBUG
    in_callback_ = true;
#endif
    fn(ticket, completion);
#ifndef NDEBUG
    in_callback_ = false;
#endif
}

void
MemoryController::onComplete(Ticket ticket, CompletionCallback fn)
{
    CODIC_ASSERT(fn != nullptr, "onComplete: null callback");
    TxnRecord *rec = records_.find(ticket);
    CODIC_ASSERT(rec != nullptr,
                 "onComplete: unknown or already-resolved ticket");
    if (rec->completed) {
        // Already serviced (e.g. an eager write drained during its
        // own acceptance): fire immediately, same ownership rules.
        const Cycle done = rec->completion;
        records_.release(ticket);
#ifndef NDEBUG
        in_callback_ = true;
#endif
        fn(ticket, done);
#ifndef NDEBUG
        in_callback_ = false;
#endif
        return;
    }
    callbacks_.emplace(ticket, std::move(fn));
}

Cycle
MemoryController::issueRowBatch(const std::vector<PendingWrite> &batch,
                                Cycle not_before)
{
    CODIC_ASSERT(!batch.empty());
    Cycle done = 0;
    for (const PendingWrite &w : batch) {
        // The first write opens the row at `not_before`; the rest hit
        // it. A drain forced by an earlier-arrival request (write
        // forwarding) must not issue a write before that write was
        // even accepted.
        done = channel_.issueAccess(Command{CommandType::Wr, w.addr, 0},
                                    not_before, w.accepted);
        write_completions_.push_back(done);
        markCompleted(w.ticket, done);
    }
    return done;
}

Cycle
MemoryController::drainBatchAt(size_t head_idx, Cycle not_before)
{
    CODIC_ASSERT(head_idx < pending_writes_.size());
    // FR-FCFS over the write queue: the batch head plus younger
    // same-row writes coalesced into one row-hit batch, preserving
    // their relative order.
    const PendingWrite head = pending_writes_[head_idx];
    pending_writes_.erase(pending_writes_.begin() +
                          static_cast<std::ptrdiff_t>(head_idx));
    --bank_pending_[bankIndex(head.addr)];
    batch_scratch_.clear();
    batch_scratch_.push_back(head);
    takeRowMatchesInto(head.addr,
                       static_cast<size_t>(sched_.max_drain_batch) - 1,
                       batch_scratch_);
    return issueRowBatch(batch_scratch_, not_before);
}

Cycle
MemoryController::drainOneBatch(Cycle not_before)
{
    CODIC_ASSERT(!pending_writes_.empty());
    return drainBatchAt(0, not_before);
}

Cycle
MemoryController::drainPendingTo(size_t target, Cycle not_before)
{
    Cycle done = 0;
    while (pending_writes_.size() > target) {
        // Urgent reads jump in between batches (their forwarding
        // flush may itself shrink the pending queue, hence the
        // re-check before the next batch).
        serviceUrgentReads(not_before);
        if (pending_writes_.size() <= target)
            break;
        done = std::max(done, drainOneBatch(not_before));
    }
    return done;
}

Cycle
MemoryController::drainBankTo(int rank, int bank, size_t target,
                              Cycle not_before)
{
    Cycle done = 0;
    const size_t bi = static_cast<size_t>(rank) *
                          static_cast<size_t>(channel_.config().banks) +
                      static_cast<size_t>(bank);
    while (bank_pending_[bi] > target) {
        serviceUrgentReads(not_before);
        if (bank_pending_[bi] <= target)
            break;
        // Oldest pending write of the bank anchors the next batch.
        size_t oldest = pending_writes_.size();
        for (size_t i = 0; i < pending_writes_.size(); ++i) {
            const Address &a = pending_writes_[i].addr;
            if (a.rank == rank && a.bank == bank) {
                oldest = i;
                break;
            }
        }
        CODIC_ASSERT(oldest < pending_writes_.size());
        done = std::max(done, drainBatchAt(oldest, not_before));
    }
    return done;
}

void
MemoryController::flushRowWrites(const Address &addr, Cycle not_before)
{
    // All of the row's pending writes, issued exactly like a drain
    // batch - forwarding-forced and watermark-scheduled drains of
    // the same writes model identical cycles.
    batch_scratch_.clear();
    takeRowMatchesInto(addr, pending_writes_.size(), batch_scratch_);
    if (!batch_scratch_.empty())
        issueRowBatch(batch_scratch_, not_before);
}

void
MemoryController::catchUpRefresh(int rank, Cycle t)
{
    if (!sched_.auto_refresh)
        return;
    if (sched_.per_bank_refresh) {
        catchUpRefreshPerBank(rank, t);
        return;
    }
    const Cycle trefi = channel_.config().timing.trefi;
    const Cycle trfc = channel_.config().timing.trfc;
    auto &issued = refs_issued_[static_cast<size_t>(rank)];
    // REF k is due at cycle k * tREFI. The refresh engine is always
    // on: a REF that can both come due and *complete* (tRFC) in the
    // idle stretch before the work at cycle t issues on time and
    // costs the workload nothing - this is also how deferred debt
    // repays itself in the next quiet gap. A REF that would overlap
    // pending work is deferrable, and only debt beyond the
    // postponement allowance must stall work at cycle t.
    while (t / trefi - issued > 0) {
        const Cycle due = (issued + 1) * trefi;
        const bool fits_idle =
            std::max(due, channel_.lastIssueCycle()) + trfc <= t;
        if (!fits_idle &&
            t / trefi - issued <=
                static_cast<int64_t>(sched_.refresh_postpone))
            break; // Busy: defer within the JEDEC allowance.
        // All banks of the rank must be precharged for REF.
        for (int b = 0; b < channel_.config().banks; ++b) {
            if (!channel_.bankActive(rank, b))
                continue;
            Address a;
            a.channel = channel_.channelId();
            a.rank = rank;
            a.bank = b;
            Command pre{CommandType::Pre, a, 0};
            channel_.issueAtEarliest(pre, due);
        }
        Command ref;
        ref.type = CommandType::Ref;
        ref.addr.channel = channel_.channelId();
        ref.addr.rank = rank;
        channel_.issueAtEarliest(ref, due);
        ++issued;
    }
}

void
MemoryController::catchUpRefreshPerBank(int rank, Cycle t)
{
    const int banks = channel_.config().banks;
    const Cycle trefipb = std::max<Cycle>(
        1, channel_.config().timing.trefi / static_cast<Cycle>(banks));
    const Cycle trfcpb = channel_.config().timing.trfcpb;
    auto &issued = refs_issued_[static_cast<size_t>(rank)];
    // REFpb k is due at cycle k * tREFIpb and targets bank k % banks:
    // the round-robin rotation still refreshes every bank once per
    // tREFI (same retention guarantee as all-bank REF), but each
    // command locks out only its target bank, and for the shorter
    // tRFCpb. The fits-idle and postponement logic mirrors the
    // all-bank engine above (JEDEC LPDDR allows postponing up to 8
    // REFpb commands).
    while (t / trefipb - issued > 0) {
        const Cycle due = (issued + 1) * trefipb;
        const bool fits_idle =
            std::max(due, channel_.lastIssueCycle()) + trfcpb <= t;
        if (!fits_idle &&
            t / trefipb - issued <=
                static_cast<int64_t>(sched_.refresh_postpone))
            break; // Busy: defer within the allowance.
        const int bank = static_cast<int>(
            static_cast<uint64_t>(issued) %
            static_cast<uint64_t>(banks));
        Address a;
        a.channel = channel_.channelId();
        a.rank = rank;
        a.bank = bank;
        // Only the target bank needs precharging - the sibling banks
        // keep their rows open, which is exactly the parallelism
        // REFpb reclaims (counted by refresh_overlap_cycles).
        if (channel_.bankActive(rank, bank)) {
            Command pre{CommandType::Pre, a, 0};
            channel_.issueAtEarliest(pre, due);
        }
        Command ref{CommandType::RefPb, a, 0};
        channel_.issueAtEarliest(ref, due);
        ++issued;
    }
}

uint64_t
MemoryController::refreshesIssued() const
{
    uint64_t total = 0;
    for (int64_t n : refs_issued_)
        total += static_cast<uint64_t>(n);
    return total;
}

Cycle
MemoryController::issueRead(const MemTransaction &txn,
                            const Address &addr)
{
    catchUpRefresh(addr.rank, txn.arrival);
    // Write-forwarding surrogate: the read must observe writes to its
    // row accepted before it, so those drain first. Pending writes to
    // other rows stay buffered - reads keep priority over them.
    flushRow(addr, txn.arrival);
    return channel_.issueAccess(Command{CommandType::Rd, addr, 0},
                                txn.arrival, txn.arrival);
}

Cycle
MemoryController::issueRowOp(const MemTransaction &txn, Address addr)
{
    addr.column = 0;
    catchUpRefresh(addr.rank, txn.arrival);

    // Writes accepted before a destructive row op must land before
    // the row is overwritten (they are destroyed, not resurrected by
    // a later drain).
    flushRow(addr, txn.arrival);

    // The target bank must be precharged for all three mechanisms.
    if (channel_.bankActive(addr.rank, addr.bank)) {
        Command pre{CommandType::Pre, addr, 0};
        channel_.issueAtEarliest(pre, txn.arrival);
    }

    switch (txn.mech) {
      case RowOpMechanism::CodicDet: {
        Command codic{CommandType::Codic, addr, codic_det_variant_};
        return channel_.issueAtEarliest(codic, txn.arrival);
      }
      case RowOpMechanism::RowClone:
      case RowOpMechanism::LisaClone: {
        Address src = addr;
        src.row = txn.reserved_row;
        Command act{CommandType::Act, src, 0};
        channel_.issueAtEarliest(act, txn.arrival);
        if (txn.mech == RowOpMechanism::LisaClone) {
            Command rbm{CommandType::LisaRbm, src, 0};
            channel_.issueAtEarliest(rbm, txn.arrival);
        }
        Command clone{CommandType::RowClone, addr, 0};
        channel_.issueAtEarliest(clone, txn.arrival);
        Command pre{CommandType::Pre, addr, 0};
        return channel_.issueAtEarliest(pre, txn.arrival);
    }
    }
    panic("unknown row-op mechanism");
}

size_t
MemoryController::scanReadWindow(Cycle arrival_bound) const
{
    const size_t window = std::min(
        read_q_.size(), static_cast<size_t>(sched_.read_window));

    // Priority scheduling: the most urgent class (lowest priority
    // value) among arrived requests in the window is served first;
    // row hits are preferred within the class only. With
    // priority_sched off every request is in the head's class and
    // this reduces to plain FR-FCFS row-hit-first.
    int best_priority = read_q_.front().txn.priority;
    if (sched_.priority_sched) {
        for (size_t i = 0; i < window; ++i) {
            const QueuedRequest &e = read_q_[i];
            if (e.txn.kind == TxnKind::RowOp)
                break;
            if (e.txn.arrival > arrival_bound)
                continue;
            best_priority = std::min(best_priority, e.txn.priority);
        }
    }

    size_t oldest_in_class = 0;
    bool have_class_pick = false;
    for (size_t i = 0; i < window; ++i) {
        const QueuedRequest &e = read_q_[i];
        // A row op is a destructive barrier: nothing bypasses it and
        // it never bypasses older requests itself.
        if (e.txn.kind == TxnKind::RowOp)
            break;
        // A request that has not arrived by the scheduling horizon
        // is invisible to the front-end - letting it bypass would
        // push the channel's monotone bus horizons into its future
        // arrival cycle and penalize every already-arrived read.
        if (e.txn.arrival > arrival_bound)
            continue;
        if (sched_.priority_sched && e.txn.priority != best_priority)
            continue;
        const Address &a = e.addr;
        // Never bypass an older request to the same row (it would
        // reorder same-address reads around each other and around
        // the forwarding flush the older one triggers).
        bool older_same_row = false;
        for (size_t j = 0; j < i; ++j) {
            const Address &b = read_q_[j].addr;
            if (b.rank == a.rank && b.bank == a.bank &&
                b.row == a.row) {
                older_same_row = true;
                break;
            }
        }
        if (older_same_row)
            continue;
        if (!have_class_pick) {
            oldest_in_class = i;
            have_class_pick = true;
        }
        if (channel_.bankActive(a.rank, a.bank) &&
            channel_.openRow(a.rank, a.bank) == a.row)
            return i; // Row hit within the most urgent class.
    }
    // No row hit: a priority front-end still pulls the oldest
    // request of the most urgent class ahead of a less urgent head;
    // FR-FCFS without priorities falls back to the head.
    if (sched_.priority_sched && have_class_pick)
        return oldest_in_class;
    return 0;
}

Cycle
MemoryController::serviceNextRequest()
{
    CODIC_ASSERT(!read_q_.empty());
    return serviceOneRequest(defaultHorizon());
}

MemoryController::Serviced
MemoryController::issuePicked(Cycle arrival_bound)
{
    CODIC_ASSERT(!read_q_.empty());
    const size_t pick = pickRequestIndex(arrival_bound);
    head_bypasses_ = pick == 0 ? 0 : head_bypasses_ + 1;
    // Issued in place: issuing touches the channel, the write queue
    // and the roll-ups, never read_q_ (callbacks may not re-enter).
    const QueuedRequest &req = read_q_[pick];
    const Serviced s{req.ticket, serviceRequest(req.txn, req.addr)};
    read_q_.erase(pick);
    return s;
}

Cycle
MemoryController::serviceOneRequest(Cycle arrival_bound)
{
    const Serviced s = issuePicked(arrival_bound);
    markCompleted(s.ticket, s.done);
    return s.done;
}

Cycle
MemoryController::serviceRequest(const MemTransaction &txn,
                                 const Address &addr)
{
    const Cycle done = txn.kind == TxnKind::Read
                           ? issueRead(txn, addr)
                           : issueRowOp(txn, addr);
    OriginCounts &oc = originSlot(txn.origin);
    if (txn.kind == TxnKind::Read) {
        ++oc.reads;
        const Cycle latency = done - txn.arrival;
        oc.read_latency_cycles += static_cast<uint64_t>(latency);
        oc.max_read_latency = std::max(oc.max_read_latency, latency);
    } else {
        ++oc.rowops;
        oc.rowop_latency_cycles +=
            static_cast<uint64_t>(done - txn.arrival);
    }
    return done;
}

OriginCounts &
MemoryController::indexOrigin(uint64_t origin)
{
    const auto [it, fresh] = origin_index_.try_emplace(
        origin, static_cast<uint32_t>(origin_counts_.size()));
    if (fresh)
        origin_counts_.push_back(OriginCounts{.origin = origin});
    origin_memo_[memoSlot(origin)] = {origin, it->second};
    return origin_counts_[it->second];
}

std::vector<OriginCounts>
MemoryController::originCounts() const
{
    std::vector<OriginCounts> out = origin_counts_;
    std::sort(out.begin(), out.end(),
              [](const OriginCounts &a, const OriginCounts &b) {
                  return a.origin < b.origin;
              });
    return out;
}

bool
MemoryController::hasArrivedUrgentRead(Cycle bound) const
{
    const size_t window = std::min(
        read_q_.size(),
        static_cast<size_t>(std::max(1, sched_.read_window)));
    for (size_t i = 0; i < window; ++i) {
        const QueuedRequest &e = read_q_[i];
        if (e.txn.kind == TxnKind::RowOp)
            break; // Barrier: nothing jumps a row op.
        if (e.txn.arrival <= bound && e.txn.priority < 0)
            return true;
    }
    return false;
}

void
MemoryController::serviceUrgentReads(Cycle not_before)
{
    if (!sched_.priority_sched)
        return;
    // Each iteration erases one queue entry (serviceOneRequest may
    // force the aged head instead of the urgent read itself - the
    // starvation bound applies to drain jumping too), so this loop
    // terminates.
    while (!read_q_.empty()) {
        const Cycle bound =
            std::max(not_before, channel_.lastIssueCycle());
        if (!hasArrivedUrgentRead(bound))
            return;
        serviceOneRequest(bound);
    }
}

Cycle
MemoryController::acceptWrite(const Address &addr, Cycle now,
                              Ticket ticket)
{
    Cycle accept = now;
    // Retire issued writes whose burst has completed by now.
    while (!write_completions_.empty() &&
           write_completions_.front() <= accept)
        write_completions_.pop_front();

    // Back-pressure through this channel's queue only: a slot is
    // held from acceptance until the write's data burst completes.
    while (pending_writes_.size() + write_completions_.size() >=
           static_cast<size_t>(config_.write_queue_entries)) {
        if (write_completions_.empty()) {
            // Every slot holds an unissued write: force a drain batch
            // so a completion exists to wait for.
            drainOneBatch(accept);
        }
        accept = std::max(accept, write_completions_.front());
        write_completions_.pop_front();
    }

    catchUpRefresh(addr.rank, accept);
    pending_writes_.push_back({addr, ticket, accept});
    ++bank_pending_[bankIndex(addr)];
    ++accepted_writes_;

    // Scheduled drain episode: at the high watermark, flush row-hit
    // batches until occupancy falls to the low watermark.
    const size_t entries =
        static_cast<size_t>(config_.write_queue_entries);
    const size_t high = std::max<size_t>(
        1, entries * static_cast<size_t>(sched_.drain_high_pct) / 100);
    if (pending_writes_.size() >= high) {
        const size_t low =
            entries * static_cast<size_t>(sched_.drain_low_pct) / 100;
        drainPendingTo(low, accept);
    }

    // Per-bank watermark: a bank-hot write stream drains bank-locally
    // long before the whole-queue percentage watermark trips. The
    // per-bank occupancy counters make the check O(1).
    if (sched_.bank_drain_high > 0 &&
        bank_pending_[bankIndex(addr)] >=
            static_cast<uint32_t>(sched_.bank_drain_high))
        drainBankTo(addr.rank, addr.bank,
                    static_cast<size_t>(sched_.bank_drain_low),
                    accept);
    return accept;
}

Ticket
MemoryController::submit(const MemTransaction &txn)
{
    return submit(txn, map_.decode(txn.addr));
}

Ticket
MemoryController::submit(const MemTransaction &txn,
                         const Address &addr)
{
#ifndef NDEBUG
    // A completion callback must not re-enter the service: allocate
    // below may grow the record arena and invalidate the record
    // pointer a servicing loop is holding (see onComplete contract).
    CODIC_ASSERT(!in_callback_,
                 "submit() called from inside a completion callback");
#endif
    TxnRecord rec;
    rec.kind = txn.kind;
    rec.accepted = txn.arrival;
    // The record must exist before acceptance: a write can drain
    // during its own acceptWrite (the eager policy issues at
    // acceptance; a watermark drain can row-hit-coalesce it), and
    // that drain records the completion through this entry.
    const Ticket ticket = records_.allocate(rec);
    switch (txn.kind) {
      case TxnKind::Read:
      case TxnKind::RowOp: {
        // Bounded read queue (Table 5: 64 entries): a full queue
        // services older requests until a slot frees.
        while (read_q_.size() >=
               static_cast<size_t>(config_.read_queue_entries))
            serviceNextRequest();
        // Keep the queue sorted by arrival with submission order
        // breaking ties, so multi-ticket consumers see the same
        // near-global-time issue order at any harvest order. Arrivals
        // are usually nondecreasing: one not earlier than the tail's
        // is appended, any other scans back for its place.
        if (read_q_.empty() || txn.arrival >= read_q_.back().txn.arrival) {
            read_q_.push_back(QueuedRequest{txn, ticket, addr});
            break;
        }
        size_t pos = read_q_.size() - 1;
        while (pos > 0 && txn.arrival < read_q_[pos - 1].txn.arrival)
            --pos;
        read_q_.insert(pos, QueuedRequest{txn, ticket, addr});
        break;
      }
      case TxnKind::Write: {
        const Cycle accepted = acceptWrite(addr, txn.arrival, ticket);
        // acceptWrite never allocates a record, so the slot cannot
        // have moved; re-find rather than caching across the call
        // anyway (the arena may compact in the future).
        records_.find(ticket)->accepted = accepted;
        ++originSlot(txn.origin).writes;
        break;
      }
    }
    return ticket;
}

Cycle
MemoryController::complete(const MemTransaction &txn)
{
    return complete(txn, map_.decode(txn.addr));
}

Cycle
MemoryController::complete(const MemTransaction &txn,
                           const Address &addr)
{
    if (txn.kind == TxnKind::Write || !read_q_.empty())
        return completionOf(submit(txn, addr));
#ifndef NDEBUG
    CODIC_ASSERT(!in_callback_,
                 "complete() called from inside a completion callback");
#endif
    // Exactly what submit + completionOf do with an empty read
    // queue: the request is the whole window, pickRequestIndex()
    // returns the head, the head's bypass count restarts, and no
    // callback can be waiting on a ticket that never existed.
    head_bypasses_ = 0;
    return serviceRequest(txn, addr);
}

Cycle
MemoryController::acceptedAt(Ticket ticket) const
{
    const TxnRecord *rec = records_.find(ticket);
    CODIC_ASSERT(rec != nullptr,
                 "acceptedAt: unknown or retired ticket");
    return rec->accepted;
}

Cycle
MemoryController::completionOf(Ticket ticket)
{
#ifndef NDEBUG
    // Servicing issues the picked request in place (issuePicked), so
    // a callback must not re-enter and reshape the read queue.
    CODIC_ASSERT(!in_callback_,
                 "completionOf() called from inside a completion callback");
#endif
    TxnRecord *rec = records_.find(ticket);
    CODIC_ASSERT(rec != nullptr,
                 "completionOf: unknown or already-resolved ticket");
    // A callback-owned ticket auto-retires when its callback fires;
    // blocking on it too would read a released record.
    CODIC_ASSERT(callbacks_.empty() ||
                     callbacks_.find(ticket) == callbacks_.end(),
                 "completionOf on a ticket owned by onComplete()");
    // Servicing below resolves other tickets but never allocates a
    // record, so `rec` stays valid across the loop.
    while (!rec->completed) {
        if (rec->kind == TxnKind::Write) {
            // Reads/row ops the schedule orders before the write
            // (arrived by its acceptance) keep their data-bus
            // priority over the forced drain.
            while (!read_q_.empty() &&
                   read_q_.front().txn.arrival <= rec->accepted)
                serviceOneRequest(rec->accepted);
            // The write is still buffered: drain batches (oldest
            // first) until its batch issues.
            drainOneBatch(channel_.lastIssueCycle());
            continue;
        }
        // The request this call resolves is released here directly:
        // its record is `rec`, and no callback can own it.
        const Serviced s = issuePicked(defaultHorizon());
        if (s.ticket == ticket) {
            records_.release(ticket);
            return s.done;
        }
        markCompleted(s.ticket, s.done);
    }
    const Cycle done = rec->completion;
    records_.release(ticket);
    return done;
}

void
MemoryController::retire(Ticket ticket)
{
    records_.release(ticket);
}

size_t
MemoryController::poll(Cycle now)
{
#ifndef NDEBUG
    CODIC_ASSERT(!in_callback_,
                 "poll() called from inside a completion callback");
#endif
    for (int r = 0; r < channel_.config().ranks; ++r)
        catchUpRefresh(r, now);
    size_t serviced = 0;
    while (!read_q_.empty() && read_q_.front().txn.arrival <= now) {
        // Bound the bypass window to `now`: poll must never issue a
        // request from the future.
        serviceOneRequest(now);
        ++serviced;
    }
    return serviced;
}

Cycle
MemoryController::drainAll()
{
    while (!read_q_.empty())
        serviceNextRequest();
    const Cycle start = channel_.lastIssueCycle();
    Cycle last = start;
    last = std::max(last, drainPendingTo(0, start));
    while (!write_completions_.empty()) {
        last = std::max(last, write_completions_.front());
        write_completions_.pop_front();
    }
    return last;
}

} // namespace codic
