/**
 * @file
 * Cycle-accurate DRAM channel model with full JEDEC timing
 * enforcement, row data-state tracking, and the CODIC command
 * integrated into the command set.
 *
 * The model follows the Ramulator approach: instead of ticking every
 * cycle, each bank/rank keeps "earliest allowed issue time" horizons
 * per command class, and issuing a command pushes the horizons of the
 * commands it constrains. Any attempt to issue a command before its
 * horizon violates the JEDEC checker and panics, so every experiment
 * in the repository runs under continuous timing verification.
 */

#ifndef CODIC_DRAM_CHANNEL_H
#define CODIC_DRAM_CHANNEL_H

#include <cstdint>
#include <thread>
#include <vector>

#include "codic/functionality.h"
#include "codic/mode_regs.h"
#include "codic/variant.h"
#include "dram/command.h"
#include "dram/config.h"

namespace codic {

/**
 * Per-bank slice of the issue counters (thermal epoch accounting and
 * the REFpb ablation): the commands whose energy is bank-local.
 */
struct BankCounts
{
    uint64_t act = 0;
    uint64_t rd = 0;
    uint64_t wr = 0;
    uint64_t ref = 0; //!< Rank REFs attributed to each bank refreshed.
    uint64_t refpb = 0; //!< Per-bank REFpb commands issued to the bank.

    /**
     * Cycles the bank spent locked out under refresh (tRFC per rank
     * REF attributed to it, tRFCpb per REFpb) - the ramulator-style
     * per-node refresh-cycle stat the REFpb ablation reads.
     */
    uint64_t refresh_cycles = 0;

    BankCounts &operator+=(const BankCounts &other)
    {
        act += other.act;
        rd += other.rd;
        wr += other.wr;
        ref += other.ref;
        refpb += other.refpb;
        refresh_cycles += other.refresh_cycles;
        return *this;
    }
};

/** Issue counters for energy accounting and test assertions. */
struct CommandCounts
{
    uint64_t act = 0;
    uint64_t pre = 0;
    uint64_t rd = 0;
    uint64_t wr = 0;
    uint64_t ref = 0;
    uint64_t refpb = 0; //!< Per-bank refresh commands (REFpb mode).
    uint64_t mrs = 0;
    uint64_t codic = 0;
    uint64_t rowclone = 0;
    uint64_t lisa_rbm = 0;

    /**
     * Data-bus direction switches (not commands, so excluded from
     * total()): a RD issued while the bus last carried a write burst
     * counts one wr->rd turnaround and vice versa. Write-drain
     * batching exists to amortize exactly these switches, so the
     * scheduler ablations and tests assert on them.
     */
    uint64_t rd_wr_turnarounds = 0; //!< Bus switched read -> write.
    uint64_t wr_rd_turnarounds = 0; //!< Bus switched write -> read.

    /**
     * Cycles a refresh overlapped with other banks of the same rank
     * staying active (ramulator's refresh/active-overlap stat, not a
     * command so excluded from total()): each REFpb contributes
     * tRFCpb per sibling bank that stayed open through it. An
     * all-bank REF can never overlap (it requires the whole rank
     * idle), so this counter is exactly the bank-parallelism REFpb
     * reclaims.
     */
    uint64_t refresh_overlap_cycles = 0;

    /**
     * Per-bank ACT/RD/WR/REF breakdown, indexed by
     * rank * banks + bank (a DramChannel sizes it at construction).
     * Cumulative like every other counter; epoch deltas come from
     * snapshot differencing (thermal/epoch_stats.h), so existing
     * consumers of the scalar counters see no reset ever.
     */
    std::vector<BankCounts> per_bank;

    /** Commands issued (turnaround counters excluded). */
    uint64_t total() const;

    /** Roll a channel's counters into an aggregate (DramSystem). */
    CommandCounts &operator+=(const CommandCounts &other);
};

/** Aggregate of two counter sets. */
CommandCounts operator+(CommandCounts a, const CommandCounts &b);

/**
 * One DRAM channel: ranks x banks with per-row data-state tracking.
 *
 * Ownership rule: a channel has no internal synchronization and is
 * confined to a single thread. Channels belonging to a multi-channel
 * module are owned by a DramSystem (which also confines itself to one
 * simulation thread); the parallel campaign engine gives each worker
 * its own chips/channels and never shares one across tasks. Debug
 * builds enforce this: the first issue() binds the channel to the
 * calling thread, and any later issue() from a different thread
 * panics.
 */
class DramChannel
{
  public:
    /**
     * Sense-amplification time after sense_p/sense_n assert before a
     * column access may use the row buffer (used by activation-class
     * CODIC commands, whose column-ready time is programmable).
     */
    static constexpr double kSenseAmplifyNs = 7.0;

    /**
     * @param config Module configuration (validated; see
     *        DramConfig::validate()).
     * @param channel_id Which of config.channels this object models;
     *        commands whose address names another channel panic.
     */
    explicit DramChannel(const DramConfig &config, int channel_id = 0);

    /** Immutable configuration. */
    const DramConfig &config() const { return config_; }

    /** Index of this channel within its module. */
    int channelId() const { return channel_id_; }

    /**
     * Register a CODIC variant (models programming the four CODIC
     * mode registers via MRS; the returned id is passed in
     * Command::codic_variant). Timing cost of the MRS commands is
     * applied when the caller issues explicit Mrs commands.
     * @return Variant id.
     */
    int registerVariant(const SignalSchedule &sched);

    /** Schedule of a registered variant. */
    const SignalSchedule &variantSchedule(int id) const;

    /**
     * Earliest cycle at which the command may legally issue,
     * considering all bank, rank, and data-bus constraints.
     */
    Cycle earliest(const Command &cmd) const;

    /**
     * Issue a command at cycle `t`.
     * @throws PanicError if `t` violates any JEDEC constraint (the
     *         continuous timing checker).
     * @return Completion cycle: when the command's effect is done
     *         (data burst end for RD/WR, bank ready for ACT/PRE/CODIC).
     */
    Cycle issue(const Command &cmd, Cycle t);

    /** Issue at the earliest legal cycle >= `not_before`. */
    Cycle issueAtEarliest(const Command &cmd, Cycle not_before,
                          Cycle *issued_at = nullptr);

    /**
     * One column access with its row opened first, in one call: a
     * PRE if the bank holds another row, an ACT if the bank is then
     * closed, each at its earliest legal cycle >= `open_not_before`,
     * then `column` (RD or WR) at its earliest legal cycle no sooner
     * than `column_not_before`, `open_not_before` and the ACT's
     * row-ready cycle. The same commands at the same cycles as
     * issueAtEarliest() of each in turn, with the address checked
     * once.
     * @return The column command's completion cycle.
     */
    Cycle issueAccess(const Command &column, Cycle open_not_before,
                      Cycle column_not_before);

    /** Data state of one row. */
    RowDataState rowState(int rank, int bank, int64_t row) const;

    /** Force a row's data state (test/workload setup). */
    void setRowState(int rank, int bank, int64_t row, RowDataState s);

    /** Set every row in the module to a given state. */
    void fillAllRows(RowDataState s);

    /** Count rows currently in a given state (whole module). */
    int64_t countRowsInState(RowDataState s) const;

    /** True if the bank has an open (activated) row. */
    bool bankActive(int rank, int bank) const
    {
        return bank_active_[bankIdx(rank, bank)] != 0;
    }

    /** Open row of a bank; undefined if not active. */
    int64_t openRow(int rank, int bank) const
    {
        return bank_open_row_[bankIdx(rank, bank)];
    }

    /** Issue counters. */
    const CommandCounts &counts() const { return counts_; }

    /**
     * Cumulative cycles the bank has held a row open up to `now`
     * (row-open residency: the static open-page power term of the
     * thermal model). Monotone in `now`; epoch deltas come from
     * snapshot differencing like the per-bank counters.
     */
    Cycle openResidency(int rank, int bank, Cycle now) const
    {
        const size_t bi = bankIdx(rank, bank);
        Cycle r = bank_open_cycles_[bi];
        if (bank_active_[bi] && now > bank_open_since_[bi])
            r += now - bank_open_since_[bi];
        return r;
    }

    /** Largest issue time seen so far (campaign end time). */
    Cycle lastIssueCycle() const { return last_issue_; }

  private:
    /** Index into the per-bank SoA arrays. */
    size_t bankIdx(int rank, int bank) const
    {
        return static_cast<size_t>(rank * config_.banks + bank);
    }

    /** Index into the flat per-row data-state array. */
    size_t rowIdx(size_t bank_index, int64_t row) const
    {
        return bank_index * static_cast<size_t>(config_.rows) +
               static_cast<size_t>(row);
    }

    /** FAW-aware earliest ACT-class issue time for a rank. */
    Cycle earliestActClass(int rank) const;

    /** Record an ACT-class issue for tRRD/tFAW accounting. */
    void noteActClass(int rank, Cycle t);

    void checkAddress(const Address &addr) const;

    /**
     * The horizon rules of ACT, PRE and RD/WR at a checked address
     * (rank index `r`, bank index `bi`), shared by earliest() and
     * issueAccess(). Each panics where earliest() does.
     */
    Cycle earliestAct(const Address &addr, size_t r, size_t bi) const;
    Cycle earliestPre(size_t r, size_t bi) const;
    Cycle earliestColumn(const Command &cmd, size_t r, size_t bi) const;

    /**
     * Apply an already-legal command at cycle `t`: update horizons,
     * counters, and row states. Both issue() (after its JEDEC check)
     * and issueAtEarliest() (whose `t` is legal by construction)
     * funnel here, so a scheduled issue prices earliest() once, not
     * twice.
     */
    Cycle apply(const Command &cmd, Cycle t);

    /**
     * The state updates of ACT, PRE, RD and WR at cycle `t`, shared
     * by apply() and issueAccess(); each returns the completion
     * cycle. The caller has already called noteIssue(t).
     */
    Cycle applyAct(const Address &addr, size_t bi, Cycle t);
    Cycle applyPre(size_t bi, Cycle t);
    Cycle applyRd(size_t bi, Cycle t);
    Cycle applyWr(const Command &cmd, size_t bi, Cycle t);

    /**
     * What every issued command shares: the debug-mode ownership
     * check and the last issue cycle.
     */
    void noteIssue(Cycle t);

    DramConfig config_;
    int channel_id_;

    // Per-bank timing state as SoA arrays indexed by bankIdx(): the
    // FR-FCFS window scan, refresh readiness check, and PreAll sweep
    // are linear passes over contiguous memory (the ramulator /
    // dramsim3 idiom) instead of strided walks over fat structs.
    std::vector<uint8_t> bank_active_;
    std::vector<int64_t> bank_open_row_;
    std::vector<Cycle> bank_next_act_;
    std::vector<Cycle> bank_next_pre_;
    std::vector<Cycle> bank_next_rdwr_;
    std::vector<Cycle> bank_next_rowclone_; //!< 2nd ACT of copy pair.
    /** Accumulated closed-episode row-open cycles per bank. */
    std::vector<Cycle> bank_open_cycles_;
    /** Open timestamp of the current episode (valid while active). */
    std::vector<Cycle> bank_open_since_;
    /** RowDataState per row, flat: [bankIdx * rows + row]. */
    std::vector<uint8_t> row_state_;

    // Per-rank horizons.
    std::vector<Cycle> rank_next_act_; //!< tRRD horizon.
    std::vector<Cycle> rank_next_any_; //!< REF/MRS blocking horizon.
    /**
     * Issue times of the last 4 ACT-class commands per rank, as a
     * fixed 4-slot circular buffer: [rank * 4 + i], with
     * faw_head_[rank] the oldest entry once faw_count_[rank] == 4.
     */
    std::vector<Cycle> faw_times_;
    std::vector<uint8_t> faw_count_;
    std::vector<uint8_t> faw_head_;

    /** A registered CODIC variant, its timing resolved once. */
    struct Variant
    {
        SignalSchedule schedule;
        VariantClass cls;
        Cycle latency; //!< Bank occupancy (variantLatencyNs) in cycles.
    };
    std::vector<Variant> variants_;
    CommandCounts counts_;
    Cycle last_issue_ = 0;

    // Debug-mode single-thread ownership check (see class comment).
    bool owner_bound_ = false;
    std::thread::id owner_;

    // Channel-wide data-bus horizons.
    Cycle next_rd_start_ = 0;
    Cycle next_wr_start_ = 0;

    /** Last data-burst direction, for turnaround accounting. */
    enum class BusDir : uint8_t { None, Read, Write };
    BusDir last_bus_dir_ = BusDir::None;
};

} // namespace codic

#endif // CODIC_DRAM_CHANNEL_H
