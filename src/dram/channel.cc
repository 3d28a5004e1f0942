#include "dram/channel.h"

#include <algorithm>

#include "common/logging.h"

namespace codic {

uint64_t
CommandCounts::total() const
{
    return act + pre + rd + wr + ref + refpb + mrs + codic +
           rowclone + lisa_rbm;
}

CommandCounts &
CommandCounts::operator+=(const CommandCounts &other)
{
    act += other.act;
    pre += other.pre;
    rd += other.rd;
    wr += other.wr;
    ref += other.ref;
    refpb += other.refpb;
    mrs += other.mrs;
    codic += other.codic;
    rowclone += other.rowclone;
    lisa_rbm += other.lisa_rbm;
    rd_wr_turnarounds += other.rd_wr_turnarounds;
    wr_rd_turnarounds += other.wr_rd_turnarounds;
    refresh_overlap_cycles += other.refresh_overlap_cycles;
    // Channels may have distinct geometries in test sweeps: merge
    // index-wise up to the larger bank set.
    if (per_bank.size() < other.per_bank.size())
        per_bank.resize(other.per_bank.size());
    for (size_t i = 0; i < other.per_bank.size(); ++i)
        per_bank[i] += other.per_bank[i];
    return *this;
}

CommandCounts
operator+(CommandCounts a, const CommandCounts &b)
{
    a += b;
    return a;
}

DramChannel::DramChannel(const DramConfig &config, int channel_id)
    : config_(config), channel_id_(channel_id)
{
    config_.validate();
    if (channel_id_ < 0 || channel_id_ >= config_.channels)
        fatal("channel id ", channel_id_, " outside the module's ",
              config_.channels, " channels");
    const size_t ranks = static_cast<size_t>(config_.ranks);
    const size_t banks =
        static_cast<size_t>(config_.ranks * config_.banks);
    bank_active_.assign(banks, 0);
    bank_open_row_.assign(banks, -1);
    bank_next_act_.assign(banks, 0);
    bank_next_pre_.assign(banks, 0);
    bank_next_rdwr_.assign(banks, 0);
    bank_next_rowclone_.assign(banks, 0);
    bank_open_cycles_.assign(banks, 0);
    bank_open_since_.assign(banks, 0);
    counts_.per_bank.assign(banks, BankCounts{});
    row_state_.assign(banks * static_cast<size_t>(config_.rows),
                      static_cast<uint8_t>(RowDataState::Unwritten));
    rank_next_act_.assign(ranks, 0);
    rank_next_any_.assign(ranks, 0);
    faw_times_.assign(ranks * 4, 0);
    faw_count_.assign(ranks, 0);
    faw_head_.assign(ranks, 0);
}

int
DramChannel::registerVariant(const SignalSchedule &sched)
{
    // Model the hardware path: program the mode registers, then keep
    // the decoded schedule. Round-tripping through the register file
    // ensures only encodable schedules are accepted.
    ModeRegisterFile mrf;
    mrf.program(sched);
    const SignalSchedule decoded = mrf.decode();
    CODIC_ASSERT(decoded == sched);
    variants_.push_back({decoded, classifySchedule(decoded),
                         config_.nsToCycles(variantLatencyNs(decoded))});
    return static_cast<int>(variants_.size()) - 1;
}

const SignalSchedule &
DramChannel::variantSchedule(int id) const
{
    CODIC_ASSERT(id >= 0 && static_cast<size_t>(id) < variants_.size());
    return variants_[static_cast<size_t>(id)].schedule;
}

Cycle
DramChannel::earliestActClass(int rank) const
{
    const size_t r = static_cast<size_t>(rank);
    Cycle t = rank_next_act_[r];
    if (faw_count_[r] >= 4)
        t = std::max(t, faw_times_[r * 4 + faw_head_[r]] +
                            config_.timing.tfaw);
    return t;
}

void
DramChannel::noteActClass(int rank, Cycle t)
{
    const size_t r = static_cast<size_t>(rank);
    rank_next_act_[r] = t + config_.timing.trrd;
    if (faw_count_[r] < 4) {
        faw_times_[r * 4 + ((faw_head_[r] + faw_count_[r]) & 3)] = t;
        ++faw_count_[r];
    } else {
        // Full window: the new issue replaces the oldest entry and
        // the head advances (exactly a push_back + pop_front of a
        // 4-deep queue, without the deque).
        faw_times_[r * 4 + faw_head_[r]] = t;
        faw_head_[r] = static_cast<uint8_t>((faw_head_[r] + 1) & 3);
    }
}

void
DramChannel::checkAddress(const Address &addr) const
{
    if (addr.channel != channel_id_) {
        panic("command for channel ", addr.channel,
              " issued on channel ", channel_id_,
              " (route through DramSystem)");
    }
    if (addr.rank < 0 || addr.rank >= config_.ranks ||
        addr.bank < 0 || addr.bank >= config_.banks ||
        addr.row < 0 || addr.row >= config_.rows ||
        addr.column < 0 || addr.column >= config_.columns) {
        panic("address out of range: rank=", addr.rank, " bank=",
              addr.bank, " row=", addr.row, " col=", addr.column);
    }
}

Cycle
DramChannel::earliestAct(const Address &addr, size_t r, size_t bi) const
{
    if (bank_active_[bi])
        panic("ACT to already-active bank ", addr.bank);
    return std::max({bank_next_act_[bi], earliestActClass(addr.rank),
                     rank_next_any_[r]});
}

Cycle
DramChannel::earliestPre(size_t r, size_t bi) const
{
    return std::max(bank_next_pre_[bi], rank_next_any_[r]);
}

Cycle
DramChannel::earliestColumn(const Command &cmd, size_t r,
                            size_t bi) const
{
    const bool write = cmd.type == CommandType::Wr;
    if (!bank_active_[bi] || bank_open_row_[bi] != cmd.addr.row)
        panic(write ? "WR" : "RD", " to closed or mismatched row (open=",
              bank_open_row_[bi], " want=", cmd.addr.row, ")");
    return std::max({bank_next_rdwr_[bi],
                     write ? next_wr_start_ : next_rd_start_,
                     rank_next_any_[r]});
}

Cycle
DramChannel::earliest(const Command &cmd) const
{
    checkAddress(cmd.addr);
    const auto &t = config_.timing;
    const size_t r = static_cast<size_t>(cmd.addr.rank);
    const size_t bi = bankIdx(cmd.addr.rank, cmd.addr.bank);

    switch (cmd.type) {
      case CommandType::Act:
        return earliestAct(cmd.addr, r, bi);
      case CommandType::Pre:
        return earliestPre(r, bi);
      case CommandType::PreAll: {
        Cycle when = rank_next_any_[r];
        const size_t base = bankIdx(cmd.addr.rank, 0);
        for (int i = 0; i < config_.banks; ++i)
            when = std::max(when,
                            bank_next_pre_[base +
                                           static_cast<size_t>(i)]);
        return when;
      }
      case CommandType::Rd:
      case CommandType::Wr:
        return earliestColumn(cmd, r, bi);
      case CommandType::Ref: {
        // Linear pass over the rank's contiguous bank slices.
        Cycle when = rank_next_any_[r];
        const size_t base = bankIdx(cmd.addr.rank, 0);
        for (int i = 0; i < config_.banks; ++i) {
            const size_t b = base + static_cast<size_t>(i);
            if (bank_active_[b])
                panic("REF with bank ", i, " still active");
            when = std::max(when, bank_next_act_[b]);
        }
        return when;
      }
      case CommandType::RefPb: {
        // REFpb occupies only the target bank: it must be precharged
        // (the controller precharges it first, like the rank REF
        // path), but sibling banks may keep rows open and keep
        // serving column traffic - that is the whole point of the
        // per-bank mode.
        if (bank_active_[bi])
            panic("REFPB with bank ", cmd.addr.bank, " still active");
        return std::max(bank_next_act_[bi], rank_next_any_[r]);
      }
      case CommandType::Mrs:
        return rank_next_any_[r];
      case CommandType::Codic: {
        if (bank_active_[bi])
            panic("CODIC to active bank ", cmd.addr.bank,
                  " (CODIC operates on precharged bitlines)");
        if (cmd.codic_variant < 0 ||
            static_cast<size_t>(cmd.codic_variant) >= variants_.size())
            panic("CODIC with unregistered variant ", cmd.codic_variant);
        Cycle when = std::max(bank_next_act_[bi], rank_next_any_[r]);
        // Variants that run longer than a precharge draw activation
        // current and count against tRRD/tFAW; precharge-length
        // variants do not (apply() notes the same split).
        if (variants_[static_cast<size_t>(cmd.codic_variant)].latency >
            t.trp)
            when = std::max(when, earliestActClass(cmd.addr.rank));
        return when;
      }
      case CommandType::RowClone: {
        if (!bank_active_[bi])
            panic("ROWCLONE with no activated source row");
        return std::max({bank_next_rowclone_[bi],
                         earliestActClass(cmd.addr.rank),
                         rank_next_any_[r]});
      }
      case CommandType::LisaRbm: {
        if (!bank_active_[bi])
            panic("LISA-RBM with no activated row");
        return std::max(bank_next_rdwr_[bi], rank_next_any_[r]);
      }
    }
    panic("unknown command type");
}

Cycle
DramChannel::issue(const Command &cmd, Cycle t)
{
    const Cycle legal = earliest(cmd);
    if (t < legal) {
        panic("JEDEC timing violation: ", cmd.str(), " issued at cycle ",
              t, " but earliest legal cycle is ", legal);
    }
    return apply(cmd, t);
}

Cycle
DramChannel::issueAtEarliest(const Command &cmd, Cycle not_before,
                             Cycle *issued_at)
{
    // `t` is legal by construction (>= earliest), so the JEDEC check
    // of issue() would price earliest() a second time for nothing.
    const Cycle t = std::max(earliest(cmd), not_before);
    if (issued_at)
        *issued_at = t;
    return apply(cmd, t);
}

Cycle
DramChannel::issueAccess(const Command &column, Cycle open_not_before,
                         Cycle column_not_before)
{
    CODIC_ASSERT(column.type == CommandType::Rd ||
                 column.type == CommandType::Wr);
    const Address &a = column.addr;
    checkAddress(a);
    const size_t r = static_cast<size_t>(a.rank);
    const size_t bi = bankIdx(a.rank, a.bank);
    // The prerequisite chain of a column access (ramulator's
    // decode): a row hit needs nothing, a closed bank an ACT, and a
    // bank holding another row a PRE first. Each command takes the
    // same horizon and state helpers as its own earliest()/apply().
    Cycle row_ready = open_not_before;
    if (!bank_active_[bi] || bank_open_row_[bi] != a.row) {
        if (bank_active_[bi]) {
            const Cycle t =
                std::max(earliestPre(r, bi), open_not_before);
            noteIssue(t);
            applyPre(bi, t);
        }
        const Cycle t = std::max(earliestAct(a, r, bi), open_not_before);
        noteIssue(t);
        row_ready = applyAct(a, bi, t);
    }
    const Cycle t = std::max(
        {earliestColumn(column, r, bi), row_ready, column_not_before});
    noteIssue(t);
    return column.type == CommandType::Rd ? applyRd(bi, t)
                                          : applyWr(column, bi, t);
}

void
DramChannel::noteIssue(Cycle t)
{
#ifndef NDEBUG
    // Ownership rule (class comment): a channel is confined to the
    // thread that first issues on it.
    if (!owner_bound_) {
        owner_bound_ = true;
        owner_ = std::this_thread::get_id();
    } else if (owner_ != std::this_thread::get_id()) {
        panic("DramChannel used from two threads without a hand-off; "
              "channels are owned by one DramSystem/campaign task");
    }
#endif
    last_issue_ = std::max(last_issue_, t);
}

Cycle
DramChannel::applyAct(const Address &addr, size_t bi, Cycle t)
{
    const auto &tt = config_.timing;
    ++counts_.act;
    ++counts_.per_bank[bi].act;
    if (!bank_active_[bi])
        bank_open_since_[bi] = t;
    bank_active_[bi] = 1;
    bank_open_row_[bi] = addr.row;
    bank_next_rdwr_[bi] = std::max(bank_next_rdwr_[bi], t + tt.trcd);
    bank_next_pre_[bi] = std::max(bank_next_pre_[bi], t + tt.tras);
    bank_next_act_[bi] = std::max(bank_next_act_[bi], t + tt.trc);
    // The second activation of a RowClone FPM pair may only issue
    // once the source row is fully restored (tRAS), otherwise the
    // copy is unreliable.
    bank_next_rowclone_[bi] = t + tt.tras;
    noteActClass(addr.rank, t);
    // Activating a half-Vdd row resolves it to signatures; the
    // data-state machine handles all cases.
    uint8_t &rs = row_state_[rowIdx(bi, addr.row)];
    rs = static_cast<uint8_t>(afterVariant(
        VariantClass::Activate, static_cast<RowDataState>(rs)));
    return t + tt.trcd;
}

Cycle
DramChannel::applyPre(size_t bi, Cycle t)
{
    const auto &tt = config_.timing;
    ++counts_.pre;
    if (bank_active_[bi] && t > bank_open_since_[bi])
        bank_open_cycles_[bi] += t - bank_open_since_[bi];
    bank_active_[bi] = 0;
    bank_open_row_[bi] = -1;
    bank_next_act_[bi] = std::max(bank_next_act_[bi], t + tt.trp);
    return t + tt.trp;
}

Cycle
DramChannel::applyRd(size_t bi, Cycle t)
{
    const auto &tt = config_.timing;
    ++counts_.rd;
    ++counts_.per_bank[bi].rd;
    if (last_bus_dir_ == BusDir::Write)
        ++counts_.wr_rd_turnarounds;
    last_bus_dir_ = BusDir::Read;
    next_rd_start_ = std::max(next_rd_start_, t + tt.tccd);
    // RD-to-WR bus turnaround: write burst must not collide with the
    // read burst on the shared bus.
    next_wr_start_ =
        std::max(next_wr_start_, t + tt.tcl + tt.tbl + 2 - tt.tcwl);
    bank_next_pre_[bi] = std::max(bank_next_pre_[bi], t + tt.trtp);
    return t + tt.tcl + tt.tbl;
}

Cycle
DramChannel::applyWr(const Command &cmd, size_t bi, Cycle t)
{
    const auto &tt = config_.timing;
    ++counts_.wr;
    ++counts_.per_bank[bi].wr;
    if (last_bus_dir_ == BusDir::Read)
        ++counts_.rd_wr_turnarounds;
    last_bus_dir_ = BusDir::Write;
    next_wr_start_ = std::max(next_wr_start_, t + tt.tccd);
    next_rd_start_ =
        std::max(next_rd_start_, t + tt.tcwl + tt.tbl + tt.twtr);
    bank_next_pre_[bi] =
        std::max(bank_next_pre_[bi], t + tt.tcwl + tt.tbl + tt.twr);
    row_state_[rowIdx(bi, cmd.addr.row)] = static_cast<uint8_t>(
        cmd.zero_fill ? RowDataState::Zeroes : RowDataState::Data);
    return t + tt.tcwl + tt.tbl + tt.twr;
}

Cycle
DramChannel::apply(const Command &cmd, Cycle t)
{
    noteIssue(t);

    const auto &tt = config_.timing;
    const size_t r = static_cast<size_t>(cmd.addr.rank);
    const size_t bi = bankIdx(cmd.addr.rank, cmd.addr.bank);

    switch (cmd.type) {
      case CommandType::Act:
        return applyAct(cmd.addr, bi, t);
      case CommandType::Pre:
        return applyPre(bi, t);
      case CommandType::PreAll: {
        ++counts_.pre;
        const size_t base = bankIdx(cmd.addr.rank, 0);
        for (int i = 0; i < config_.banks; ++i) {
            const size_t b = base + static_cast<size_t>(i);
            if (bank_active_[b] && t > bank_open_since_[b])
                bank_open_cycles_[b] += t - bank_open_since_[b];
            bank_active_[b] = 0;
            bank_open_row_[b] = -1;
            bank_next_act_[b] = std::max(bank_next_act_[b],
                                         t + tt.trp);
        }
        return t + tt.trp;
      }
      case CommandType::Rd:
        return applyRd(bi, t);
      case CommandType::Wr:
        return applyWr(cmd, bi, t);
      case CommandType::Ref: {
        ++counts_.ref;
        rank_next_any_[r] = std::max(rank_next_any_[r], t + tt.trfc);
        const size_t base = bankIdx(cmd.addr.rank, 0);
        for (int i = 0; i < config_.banks; ++i) {
            const size_t b = base + static_cast<size_t>(i);
            // A rank REF internally refreshes every bank: attribute
            // one per-bank REF to each (the energy splits ref_nj
            // evenly in the thermal model).
            ++counts_.per_bank[b].ref;
            counts_.per_bank[b].refresh_cycles +=
                static_cast<uint64_t>(tt.trfc);
            bank_next_act_[b] = std::max(bank_next_act_[b],
                                         t + tt.trfc);
        }
        return t + tt.trfc;
      }
      case CommandType::RefPb: {
        ++counts_.refpb;
        ++counts_.per_bank[bi].refpb;
        counts_.per_bank[bi].refresh_cycles +=
            static_cast<uint64_t>(tt.trfcpb);
        // Overlap stat: every sibling bank that keeps a row open
        // through this refresh is bank-parallelism an all-bank REF
        // would have forfeited.
        const size_t base = bankIdx(cmd.addr.rank, 0);
        for (int i = 0; i < config_.banks; ++i) {
            const size_t b = base + static_cast<size_t>(i);
            if (b != bi && bank_active_[b])
                counts_.refresh_overlap_cycles +=
                    static_cast<uint64_t>(tt.trfcpb);
        }
        bank_next_act_[bi] = std::max(bank_next_act_[bi],
                                      t + tt.trfcpb);
        return t + tt.trfcpb;
      }
      case CommandType::Mrs: {
        ++counts_.mrs;
        rank_next_any_[r] = std::max(rank_next_any_[r], t + tt.tmrd);
        return t + tt.tmrd;
      }
      case CommandType::Codic: {
        ++counts_.codic;
        const Variant &variant =
            variants_[static_cast<size_t>(cmd.codic_variant)];
        const VariantClass cls = variant.cls;
        const Cycle lat = variant.latency;
        if (lat > tt.trp)
            noteActClass(cmd.addr.rank, t);
        uint8_t &rs = row_state_[rowIdx(bi, cmd.addr.row)];
        rs = static_cast<uint8_t>(
            afterVariant(cls, static_cast<RowDataState>(rs)));
        if (cls == VariantClass::Activate) {
            // An activation-class CODIC command is a real activation
            // with programmable internal timing (the Section 5.3.2
            // use case): the row opens, and columns become usable
            // once the SA has sensed and amplified - i.e. the
            // variant's own sense_p start plus amplification time,
            // instead of the fixed worst-case tRCD.
            if (!bank_active_[bi])
                bank_open_since_[bi] = t;
            bank_active_[bi] = 1;
            bank_open_row_[bi] = cmd.addr.row;
            const auto sp = variant.schedule.pulse(Signal::SenseP);
            double ready_ns =
                static_cast<double>(sp ? sp->start_ns : 7) +
                kSenseAmplifyNs;
            if (cmd.codic_ready_ns > 0.0) {
                // Characterized override (Section 5.3.2); never
                // earlier than sense start plus a minimal latch time.
                ready_ns = std::max(
                    cmd.codic_ready_ns,
                    static_cast<double>(sp ? sp->start_ns : 7) + 3.0);
            }
            bank_next_rdwr_[bi] =
                std::max(bank_next_rdwr_[bi],
                         t + config_.nsToCycles(ready_ns));
            bank_next_pre_[bi] = std::max(bank_next_pre_[bi],
                                          t + tt.tras);
            bank_next_act_[bi] = std::max(bank_next_act_[bi],
                                          t + tt.trc);
            bank_next_rowclone_[bi] = t + tt.tras;
            return t + config_.nsToCycles(ready_ns);
        }
        bank_next_act_[bi] = std::max(bank_next_act_[bi], t + lat);
        bank_next_pre_[bi] = std::max(bank_next_pre_[bi], t + lat);
        return t + lat;
      }
      case CommandType::RowClone: {
        ++counts_.rowclone;
        // Second activation of an FPM copy pair: the open source
        // row's content lands in the destination row.
        const auto src_state = static_cast<RowDataState>(
            row_state_[rowIdx(bi, bank_open_row_[bi])]);
        row_state_[rowIdx(bi, cmd.addr.row)] =
            static_cast<uint8_t>(src_state);
        bank_open_row_[bi] = cmd.addr.row;
        bank_next_pre_[bi] = std::max(bank_next_pre_[bi],
                                      t + tt.tras);
        bank_next_act_[bi] = std::max(bank_next_act_[bi], t + tt.trc);
        noteActClass(cmd.addr.rank, t);
        return t + tt.tras;
      }
      case CommandType::LisaRbm: {
        ++counts_.lisa_rbm;
        // Row-buffer movement hop: short extra bank occupancy, and it
        // consumes an inter-activation (tRRD) slot on the rank since
        // the hop drives the intermediate subarray's row buffer. It
        // does not enter the tFAW window (it draws far less current
        // than a full activation).
        const Cycle trbm = config_.nsToCycles(tt.trbm_ns);
        bank_next_pre_[bi] = std::max(bank_next_pre_[bi], t + trbm);
        bank_next_rdwr_[bi] = std::max(bank_next_rdwr_[bi], t + trbm);
        bank_next_rowclone_[bi] =
            std::max(bank_next_rowclone_[bi], t + trbm);
        rank_next_act_[r] =
            std::max(rank_next_act_[r],
                     t + config_.nsToCycles(tt.trbm_hold_ns));
        return t + trbm;
      }
    }
    panic("unknown command type");
}

RowDataState
DramChannel::rowState(int rank, int bank_idx, int64_t row) const
{
    CODIC_ASSERT(row >= 0 && row < config_.rows);
    return static_cast<RowDataState>(
        row_state_[rowIdx(bankIdx(rank, bank_idx), row)]);
}

void
DramChannel::setRowState(int rank, int bank_idx, int64_t row,
                         RowDataState s)
{
    CODIC_ASSERT(row >= 0 && row < config_.rows);
    row_state_[rowIdx(bankIdx(rank, bank_idx), row)] =
        static_cast<uint8_t>(s);
}

void
DramChannel::fillAllRows(RowDataState s)
{
    std::fill(row_state_.begin(), row_state_.end(),
              static_cast<uint8_t>(s));
}

int64_t
DramChannel::countRowsInState(RowDataState s) const
{
    int64_t n = 0;
    for (uint8_t rs : row_state_)
        if (rs == static_cast<uint8_t>(s))
            ++n;
    return n;
}

} // namespace codic
