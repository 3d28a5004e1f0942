/**
 * @file
 * Tests of the architectural DRAM model: configuration scaling, the
 * JEDEC timing checker, bank/rank state, FAW enforcement, row
 * data-state tracking, the CODIC command, RowClone / LISA commands,
 * the fused row access, and the refresh engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "dram/channel.h"
#include "dram/config.h"
#include "dram/refresh.h"

namespace codic {
namespace {

DramConfig
smallConfig()
{
    return DramConfig::ddr3_1600(64); // 64 MB: 1024 rows/bank.
}

Command
cmd(CommandType t, int bank = 0, int64_t row = 0, int col = 0)
{
    Command c;
    c.type = t;
    c.addr.bank = bank;
    c.addr.row = row;
    c.addr.column = col;
    return c;
}

// --- Configuration. ---

TEST(DramConfig, CapacityMatchesGeometry)
{
    const DramConfig cfg = DramConfig::ddr3_1600(8192);
    EXPECT_EQ(cfg.capacityBytes(), 8192ll << 20);
    EXPECT_EQ(cfg.rows * cfg.banks * cfg.row_bytes, 8192ll << 20);
}

class ConfigSizeTest : public ::testing::TestWithParam<int64_t>
{
};

TEST_P(ConfigSizeTest, RowsScaleLinearlyWithCapacity)
{
    const int64_t mb = GetParam();
    const DramConfig cfg = DramConfig::ddr3_1600(mb);
    EXPECT_EQ(cfg.capacityBytes(), mb << 20);
    EXPECT_EQ(cfg.totalRows(), (mb << 20) / cfg.row_bytes);
}

INSTANTIATE_TEST_SUITE_P(Fig7Sizes, ConfigSizeTest,
                         ::testing::Values(64, 256, 1024, 4096, 16384,
                                           65536));

TEST(DramConfig, CycleConversionRoundsUp)
{
    const DramConfig cfg = DramConfig::ddr3_1600(64);
    EXPECT_EQ(cfg.nsToCycles(1.25), 1);
    EXPECT_EQ(cfg.nsToCycles(1.26), 2);
    EXPECT_EQ(cfg.nsToCycles(35.0), 28);
    EXPECT_DOUBLE_EQ(cfg.cyclesToNs(28), 35.0);
}

TEST(DramConfig, TrfcGrowsWithDensity)
{
    EXPECT_LT(DramConfig::ddr3_1600(1024).timing.trfc,
              DramConfig::ddr3_1600(65536).timing.trfc);
}

TEST(DramConfig, Ddr3_1333SlowerClock)
{
    const DramConfig cfg = DramConfig::ddr3_1333(2048);
    EXPECT_DOUBLE_EQ(cfg.tck_ns, 1.5);
    EXPECT_EQ(cfg.timing.trcd, 9);
}

TEST(DramConfig, EveryNamedPresetValidatesAtAnyGeometry)
{
    for (const auto &name : DramConfig::presetNames()) {
        SCOPED_TRACE(name);
        const DramConfig cfg = DramConfig::preset(name, 2048, 2, 2);
        cfg.validate();
        EXPECT_EQ(cfg.channels, 2);
        EXPECT_EQ(cfg.ranks, 2);
        EXPECT_EQ(cfg.capacityBytes(), 2048ll << 20);
        EXPECT_EQ(static_cast<int64_t>(cfg.columns) * cfg.burst_bytes,
                  cfg.row_bytes);
    }
    EXPECT_THROW(DramConfig::preset("ddr5-6400", 64), FatalError);
}

TEST(DramConfig, Ddr4GradesHaveSixteenBanksAndFasterClocks)
{
    const DramConfig d24 = DramConfig::ddr4_2400(1024);
    EXPECT_EQ(d24.banks, 16);
    EXPECT_DOUBLE_EQ(d24.tck_ns, 0.833);
    EXPECT_EQ(d24.timing.trcd, 17);
    const DramConfig d32 = DramConfig::preset("ddr4-3200", 1024);
    EXPECT_EQ(d32.banks, 16);
    EXPECT_DOUBLE_EQ(d32.tck_ns, 0.625);
    EXPECT_EQ(d32.timing.trcd, 22);
    // The analog timings are fixed in nanoseconds, so their cycle
    // counts grow with the clock rate: tRAS = 32 ns is 39 cycles at
    // DDR4-2400 but 52 at DDR4-3200.
    EXPECT_LT(d24.timing.tras, d32.timing.tras);
    EXPECT_DOUBLE_EQ(d24.cyclesToNs(d24.nsToCycles(32.0)),
                     d24.timing.tras * d24.tck_ns);
    // 16 banks halve the rows-per-bank count at equal capacity.
    EXPECT_EQ(d24.rows * 2, DramConfig::ddr3_1600(1024).rows);
}

TEST(DramConfig, Ddr4ModuleRunsTimedCommands)
{
    // The JEDEC checker must accept a full ACT/RD/WR/PRE/REF round
    // trip under the DDR4 cycle counts (16-bank addressing included).
    const DramConfig cfg = DramConfig::ddr4_3200(64);
    DramChannel ch(cfg);
    Cycle t = ch.issueAtEarliest(cmd(CommandType::Act, 15, 3), 0);
    t = ch.issueAtEarliest(cmd(CommandType::Wr, 15, 3, 1), t);
    t = ch.issueAtEarliest(cmd(CommandType::Rd, 15, 3, 2), t);
    t = ch.issueAtEarliest(cmd(CommandType::Pre, 15, 3), t);
    t = ch.issueAtEarliest(cmd(CommandType::Ref), t);
    EXPECT_GT(t, cfg.timing.trcd + cfg.timing.tras);
    EXPECT_EQ(ch.counts().ref, 1u);
}

// --- Basic command legality and the timing checker. ---

TEST(Channel, ActThenReadRespectsTrcd)
{
    DramChannel ch(smallConfig());
    const auto &t = ch.config().timing;
    ch.issue(cmd(CommandType::Act), 0);
    EXPECT_EQ(ch.earliest(cmd(CommandType::Rd)), t.trcd);
    EXPECT_THROW(ch.issue(cmd(CommandType::Rd), t.trcd - 1), PanicError);
    EXPECT_NO_THROW(ch.issue(cmd(CommandType::Rd), t.trcd));
}

TEST(Channel, ActThenPreRespectsTras)
{
    DramChannel ch(smallConfig());
    const auto &t = ch.config().timing;
    ch.issue(cmd(CommandType::Act), 0);
    EXPECT_EQ(ch.earliest(cmd(CommandType::Pre)), t.tras);
    EXPECT_THROW(ch.issue(cmd(CommandType::Pre), t.tras - 1),
                 PanicError);
}

TEST(Channel, PreThenActRespectsTrp)
{
    DramChannel ch(smallConfig());
    const auto &t = ch.config().timing;
    ch.issue(cmd(CommandType::Act), 0);
    ch.issue(cmd(CommandType::Pre), t.tras);
    EXPECT_EQ(ch.earliest(cmd(CommandType::Act, 0, 1)),
              t.tras + t.trp);
}

TEST(Channel, SameBankActToActRespectsTrc)
{
    DramChannel ch(smallConfig());
    const auto &t = ch.config().timing;
    ch.issue(cmd(CommandType::Act), 0);
    ch.issue(cmd(CommandType::Pre), t.tras);
    // tRC = tRAS + tRP here, so the constraint coincides with
    // PRE + tRP; both must hold.
    EXPECT_GE(ch.earliest(cmd(CommandType::Act, 0, 1)), t.trc);
}

TEST(Channel, DifferentBankActsRespectTrrd)
{
    DramChannel ch(smallConfig());
    const auto &t = ch.config().timing;
    ch.issue(cmd(CommandType::Act, 0), 0);
    EXPECT_EQ(ch.earliest(cmd(CommandType::Act, 1)), t.trrd);
}

TEST(Channel, FawLimitsFourActivates)
{
    DramChannel ch(smallConfig());
    const auto &t = ch.config().timing;
    Cycle at = 0;
    for (int b = 0; b < 4; ++b) {
        Cycle issued;
        ch.issueAtEarliest(cmd(CommandType::Act, b), at, &issued);
        at = issued;
    }
    // The fifth activate must wait for the FAW window to roll over.
    EXPECT_GE(ch.earliest(cmd(CommandType::Act, 4)), t.tfaw);
}

TEST(Channel, ReadToClosedRowPanics)
{
    DramChannel ch(smallConfig());
    EXPECT_THROW(ch.earliest(cmd(CommandType::Rd)), PanicError);
}

TEST(Channel, ReadToWrongRowPanics)
{
    DramChannel ch(smallConfig());
    ch.issue(cmd(CommandType::Act, 0, 3), 0);
    EXPECT_THROW(ch.earliest(cmd(CommandType::Rd, 0, 4)), PanicError);
}

TEST(Channel, DoubleActivatePanics)
{
    DramChannel ch(smallConfig());
    ch.issue(cmd(CommandType::Act), 0);
    EXPECT_THROW(ch.earliest(cmd(CommandType::Act, 0, 1)), PanicError);
}

TEST(Channel, WriteRecoveryDelaysPrecharge)
{
    DramChannel ch(smallConfig());
    const auto &t = ch.config().timing;
    ch.issue(cmd(CommandType::Act), 0);
    const Cycle wr_at = t.trcd;
    ch.issue(cmd(CommandType::Wr), wr_at);
    EXPECT_GE(ch.earliest(cmd(CommandType::Pre)),
              wr_at + t.tcwl + t.tbl + t.twr);
}

TEST(Channel, ReadToPreRespectsTrtp)
{
    DramChannel ch(smallConfig());
    const auto &t = ch.config().timing;
    ch.issue(cmd(CommandType::Act), 0);
    const Cycle rd_at = t.trcd;
    ch.issue(cmd(CommandType::Rd), rd_at);
    EXPECT_GE(ch.earliest(cmd(CommandType::Pre)), rd_at + t.trtp);
}

TEST(Channel, ConsecutiveReadsRespectTccd)
{
    DramChannel ch(smallConfig());
    const auto &t = ch.config().timing;
    ch.issue(cmd(CommandType::Act), 0);
    const Cycle rd_at = t.trcd;
    ch.issue(cmd(CommandType::Rd, 0, 0, 0), rd_at);
    EXPECT_EQ(ch.earliest(cmd(CommandType::Rd, 0, 0, 1)),
              rd_at + t.tccd);
}

TEST(Channel, WriteToReadTurnaround)
{
    DramChannel ch(smallConfig());
    const auto &t = ch.config().timing;
    ch.issue(cmd(CommandType::Act), 0);
    const Cycle wr_at = t.trcd;
    ch.issue(cmd(CommandType::Wr), wr_at);
    EXPECT_GE(ch.earliest(cmd(CommandType::Rd)),
              wr_at + t.tcwl + t.tbl + t.twtr);
}

TEST(Channel, RefreshRequiresAllBanksPrecharged)
{
    DramChannel ch(smallConfig());
    ch.issue(cmd(CommandType::Act), 0);
    EXPECT_THROW(ch.earliest(cmd(CommandType::Ref)), PanicError);
}

TEST(Channel, RefreshBlocksSubsequentActivates)
{
    DramChannel ch(smallConfig());
    const auto &t = ch.config().timing;
    ch.issue(cmd(CommandType::Ref), 0);
    EXPECT_GE(ch.earliest(cmd(CommandType::Act)), t.trfc);
}

TEST(Channel, PreAllClosesEveryBank)
{
    DramChannel ch(smallConfig());
    const auto &t = ch.config().timing;
    Cycle at = 0;
    for (int b = 0; b < 3; ++b) {
        Cycle issued;
        ch.issueAtEarliest(cmd(CommandType::Act, b), at, &issued);
        at = issued;
    }
    ch.issueAtEarliest(cmd(CommandType::PreAll), at + t.tras);
    for (int b = 0; b < 3; ++b)
        EXPECT_FALSE(ch.bankActive(0, b));
}

TEST(Channel, AddressRangeChecked)
{
    DramChannel ch(smallConfig());
    Command bad = cmd(CommandType::Act);
    bad.addr.row = ch.config().rows; // One past the end.
    EXPECT_THROW(ch.earliest(bad), PanicError);
    bad = cmd(CommandType::Act);
    bad.addr.bank = ch.config().banks;
    EXPECT_THROW(ch.earliest(bad), PanicError);
}

// --- Row data-state tracking. ---

TEST(Channel, WriteMarksRowAsData)
{
    DramChannel ch(smallConfig());
    const auto &t = ch.config().timing;
    ch.issue(cmd(CommandType::Act, 0, 5), 0);
    ch.issue(cmd(CommandType::Wr, 0, 5), t.trcd);
    EXPECT_EQ(ch.rowState(0, 0, 5), RowDataState::Data);
}

TEST(Channel, ZeroFillWriteMarksRowAsZeroes)
{
    DramChannel ch(smallConfig());
    const auto &t = ch.config().timing;
    ch.issue(cmd(CommandType::Act, 0, 5), 0);
    Command wr = cmd(CommandType::Wr, 0, 5);
    wr.zero_fill = true;
    ch.issue(wr, t.trcd);
    EXPECT_EQ(ch.rowState(0, 0, 5), RowDataState::Zeroes);
}

TEST(Channel, CodicSigThenActivateYieldsSignature)
{
    DramChannel ch(smallConfig());
    const int sig = ch.registerVariant(variants::sig().schedule);
    ch.setRowState(0, 0, 7, RowDataState::Data);

    Command c = cmd(CommandType::Codic, 0, 7);
    c.codic_variant = sig;
    const Cycle done = ch.issue(c, 0);
    EXPECT_EQ(ch.rowState(0, 0, 7), RowDataState::HalfVdd);

    ch.issueAtEarliest(cmd(CommandType::Act, 0, 7), done);
    EXPECT_EQ(ch.rowState(0, 0, 7), RowDataState::SaSignature);
}

TEST(Channel, CodicDetZeroesRow)
{
    DramChannel ch(smallConfig());
    const int det = ch.registerVariant(variants::detZero().schedule);
    ch.setRowState(0, 0, 9, RowDataState::Data);
    Command c = cmd(CommandType::Codic, 0, 9);
    c.codic_variant = det;
    ch.issue(c, 0);
    EXPECT_EQ(ch.rowState(0, 0, 9), RowDataState::Zeroes);
}

TEST(Channel, CodicToActiveBankPanics)
{
    DramChannel ch(smallConfig());
    const int det = ch.registerVariant(variants::detZero().schedule);
    ch.issue(cmd(CommandType::Act), 0);
    Command c = cmd(CommandType::Codic, 0, 1);
    c.codic_variant = det;
    EXPECT_THROW(ch.earliest(c), PanicError);
}

TEST(Channel, CodicWithUnregisteredVariantPanics)
{
    DramChannel ch(smallConfig());
    Command c = cmd(CommandType::Codic);
    c.codic_variant = 42;
    EXPECT_THROW(ch.earliest(c), PanicError);
}

TEST(Channel, CodicOccupiesBankForVariantLatency)
{
    DramChannel ch(smallConfig());
    const int det = ch.registerVariant(variants::detZero().schedule);
    Command c = cmd(CommandType::Codic, 0, 0);
    c.codic_variant = det;
    ch.issue(c, 0);
    // 35 ns at 1.25 ns/cycle = 28 cycles.
    EXPECT_EQ(ch.earliest(cmd(CommandType::Act, 0, 1)), 28);
    // registerVariant fixes each variant's latency in the registering
    // channel's cycles: CODIC-det (35 ns) and CODIC-sig-opt (13 ns)
    // at the DDR3-1600 and DDR4-3200 clocks.
    for (const DramConfig &config :
         {smallConfig(), DramConfig::preset("ddr4-3200", 64)}) {
        for (const auto &variant : {variants::detZero(), variants::sigOpt()}) {
            DramChannel fresh(config);
            Command op = cmd(CommandType::Codic, 0, 0);
            op.codic_variant = fresh.registerVariant(variant.schedule);
            const Cycle done = fresh.issue(op, 0);
            EXPECT_EQ(done,
                      config.nsToCycles(variantLatencyNs(variant.schedule)));
            EXPECT_EQ(fresh.earliest(cmd(CommandType::Act, 0, 1)), done);
        }
    }
}

TEST(Channel, ActivationClassCodicCountsTowardFaw)
{
    DramChannel ch(smallConfig());
    const int det = ch.registerVariant(variants::detZero().schedule);
    Cycle at = 0;
    for (int b = 0; b < 4; ++b) {
        Command c = cmd(CommandType::Codic, b, 0);
        c.codic_variant = det;
        Cycle issued;
        ch.issueAtEarliest(c, at, &issued);
        at = issued;
    }
    EXPECT_GE(ch.earliest(cmd(CommandType::Act, 4)),
              ch.config().timing.tfaw);
}

TEST(Channel, PrechargeClassCodicDoesNotCountTowardFaw)
{
    DramChannel ch(smallConfig());
    const int opt = ch.registerVariant(variants::sigOpt().schedule);
    Cycle at = 0;
    for (int b = 0; b < 4; ++b) {
        Command c = cmd(CommandType::Codic, b, 0);
        c.codic_variant = opt;
        Cycle issued;
        ch.issueAtEarliest(c, at, &issued);
        at = issued;
    }
    EXPECT_LT(ch.earliest(cmd(CommandType::Act, 4)),
              ch.config().timing.tfaw);
}

TEST(Channel, RegisterVariantRoundTripsThroughModeRegisters)
{
    DramChannel ch(smallConfig());
    const int id = ch.registerVariant(variants::sigsa().schedule);
    EXPECT_EQ(ch.variantSchedule(id), variants::sigsa().schedule);
}

// --- RowClone / LISA. ---

TEST(Channel, RowCloneCopiesRowState)
{
    DramChannel ch(smallConfig());
    const auto &t = ch.config().timing;
    ch.setRowState(0, 0, 0, RowDataState::Zeroes);
    ch.setRowState(0, 0, 5, RowDataState::Data);
    ch.issue(cmd(CommandType::Act, 0, 0), 0);
    ch.issueAtEarliest(cmd(CommandType::RowClone, 0, 5), t.tras);
    EXPECT_EQ(ch.rowState(0, 0, 5), RowDataState::Zeroes);
    EXPECT_EQ(ch.openRow(0, 0), 5);
}

TEST(Channel, RowCloneRequiresOpenSourceRow)
{
    DramChannel ch(smallConfig());
    EXPECT_THROW(ch.earliest(cmd(CommandType::RowClone, 0, 5)),
                 PanicError);
}

TEST(Channel, RowCloneGatedOnSourceRestore)
{
    DramChannel ch(smallConfig());
    const auto &t = ch.config().timing;
    ch.issue(cmd(CommandType::Act, 0, 0), 0);
    EXPECT_GE(ch.earliest(cmd(CommandType::RowClone, 0, 5)), t.tras);
}

TEST(Channel, LisaRbmRequiresOpenRow)
{
    DramChannel ch(smallConfig());
    EXPECT_THROW(ch.earliest(cmd(CommandType::LisaRbm)), PanicError);
}

TEST(Channel, LisaRbmHoldsRankActivations)
{
    DramChannel ch(smallConfig());
    const auto &t = ch.config().timing;
    ch.issue(cmd(CommandType::Act, 0, 0), 0);
    const Cycle rbm_at = t.trcd;
    ch.issueAtEarliest(cmd(CommandType::LisaRbm, 0, 0), rbm_at);
    EXPECT_GE(ch.earliest(cmd(CommandType::Act, 1)),
              rbm_at + ch.config().nsToCycles(t.trbm_hold_ns));
}

// --- Bulk state helpers and counters. ---

TEST(Channel, FillAndCountRows)
{
    DramChannel ch(smallConfig());
    ch.fillAllRows(RowDataState::Data);
    EXPECT_EQ(ch.countRowsInState(RowDataState::Data),
              ch.config().totalRows());
    ch.setRowState(0, 0, 0, RowDataState::Zeroes);
    EXPECT_EQ(ch.countRowsInState(RowDataState::Data),
              ch.config().totalRows() - 1);
}

TEST(Channel, CommandCountersTrackIssues)
{
    DramChannel ch(smallConfig());
    const auto &t = ch.config().timing;
    ch.issue(cmd(CommandType::Act), 0);
    ch.issue(cmd(CommandType::Rd), t.trcd);
    ch.issue(cmd(CommandType::Wr), t.trcd + t.tccd + 20);
    EXPECT_EQ(ch.counts().act, 1u);
    EXPECT_EQ(ch.counts().rd, 1u);
    EXPECT_EQ(ch.counts().wr, 1u);
    EXPECT_EQ(ch.counts().total(), 3u);
}

TEST(Channel, MrsBlocksRankBriefly)
{
    DramChannel ch(smallConfig());
    const auto &t = ch.config().timing;
    ch.issue(cmd(CommandType::Mrs), 0);
    EXPECT_EQ(ch.earliest(cmd(CommandType::Act)), t.tmrd);
}

// --- The fused row access. ---

/**
 * The per-command row opening issueAccess() replaces (the
 * controller's former openRowFor): PRE on a conflict, then ACT on a
 * miss, each through issueAtEarliest(). Returns the row-ready cycle.
 */
Cycle
openRowPerCommand(DramChannel &ch, const Address &addr, Cycle now)
{
    if (ch.bankActive(addr.rank, addr.bank)) {
        if (ch.openRow(addr.rank, addr.bank) == addr.row)
            return now;
        ch.issueAtEarliest(Command{CommandType::Pre, addr, 0}, now);
    }
    return ch.issueAtEarliest(Command{CommandType::Act, addr, 0}, now);
}

void
expectSameBankCounts(const BankCounts &a, const BankCounts &b)
{
    EXPECT_EQ(a.act, b.act);
    EXPECT_EQ(a.rd, b.rd);
    EXPECT_EQ(a.wr, b.wr);
    EXPECT_EQ(a.ref, b.ref);
    EXPECT_EQ(a.refpb, b.refpb);
    EXPECT_EQ(a.refresh_cycles, b.refresh_cycles);
}

/** Every counter, the bank states and the open-row residency. */
void
expectSameChannels(const DramChannel &a, const DramChannel &b, Cycle now)
{
    const CommandCounts &x = a.counts();
    const CommandCounts &y = b.counts();
    EXPECT_EQ(x.act, y.act);
    EXPECT_EQ(x.pre, y.pre);
    EXPECT_EQ(x.rd, y.rd);
    EXPECT_EQ(x.wr, y.wr);
    EXPECT_EQ(x.ref, y.ref);
    EXPECT_EQ(x.refpb, y.refpb);
    EXPECT_EQ(x.mrs, y.mrs);
    EXPECT_EQ(x.codic, y.codic);
    EXPECT_EQ(x.rowclone, y.rowclone);
    EXPECT_EQ(x.lisa_rbm, y.lisa_rbm);
    EXPECT_EQ(x.rd_wr_turnarounds, y.rd_wr_turnarounds);
    EXPECT_EQ(x.wr_rd_turnarounds, y.wr_rd_turnarounds);
    EXPECT_EQ(x.refresh_overlap_cycles, y.refresh_overlap_cycles);
    ASSERT_EQ(x.per_bank.size(), y.per_bank.size());
    for (size_t i = 0; i < x.per_bank.size(); ++i)
        expectSameBankCounts(x.per_bank[i], y.per_bank[i]);
    EXPECT_EQ(a.lastIssueCycle(), b.lastIssueCycle());
    const DramConfig &cfg = a.config();
    for (int r = 0; r < cfg.ranks; ++r) {
        for (int k = 0; k < cfg.banks; ++k) {
            ASSERT_EQ(a.bankActive(r, k), b.bankActive(r, k));
            if (a.bankActive(r, k)) {
                EXPECT_EQ(a.openRow(r, k), b.openRow(r, k));
            }
            EXPECT_EQ(a.openResidency(r, k, now),
                      b.openResidency(r, k, now));
        }
    }
}

/**
 * Twin channels under one random command stream: `fused` takes every
 * column access and write batch through issueAccess(), `ref` through
 * openRowPerCommand() and issueAtEarliest(), as the controller did
 * before; refreshes and row ops go per command on both.
 */
void
checkFusedAccessMatchesPerCommand(const DramConfig &cfg, uint64_t seed)
{
    DramChannel fused(cfg);
    DramChannel ref(cfg);
    const int det = fused.registerVariant(variants::detZero().schedule);
    ASSERT_EQ(ref.registerVariant(variants::detZero().schedule), det);
    Rng rng(seed);
    // Four rows per bank, so a random access is often a row hit, a
    // conflict, or (after a PRE, REF or row op) a closed bank.
    const auto randomAddr = [&] {
        Address a;
        a.rank = static_cast<int>(rng.below(cfg.ranks));
        a.bank = static_cast<int>(rng.below(cfg.banks));
        a.row = static_cast<int64_t>(rng.below(4)) * 37;
        a.column = static_cast<int>(rng.below(cfg.columns));
        return a;
    };
    const auto both = [&](const Command &c, Cycle now) {
        const Cycle x = fused.issueAtEarliest(c, now);
        EXPECT_EQ(x, ref.issueAtEarliest(c, now));
    };
    const auto precharge = [&](int rank, int bank, Cycle now) {
        if (!ref.bankActive(rank, bank))
            return;
        Address a;
        a.rank = rank;
        a.bank = bank;
        both(Command{CommandType::Pre, a, 0}, now);
    };

    Cycle now = 0;
    int hits = 0;
    int conflicts = 0;
    int closed = 0;
    int late_batch_writes = 0;
    for (int step = 0; step < 3000; ++step) {
        now += rng.below(rng.below(8) == 0 ? 400 : 24);
        const uint64_t pick = rng.below(100);
        if (pick < 50) {
            // One RD or WR, its column bound sometimes past the row's.
            const Address a = randomAddr();
            if (!ref.bankActive(a.rank, a.bank))
                ++closed;
            else if (ref.openRow(a.rank, a.bank) == a.row)
                ++hits;
            else
                ++conflicts;
            const Command col{rng.below(2) ? CommandType::Rd
                                           : CommandType::Wr,
                              a, 0};
            const Cycle col_bound = now + rng.below(3) * rng.below(30);
            const Cycle ready = openRowPerCommand(ref, a, now);
            const Cycle expect =
                ref.issueAtEarliest(col, std::max(ready, col_bound));
            ASSERT_EQ(fused.issueAccess(col, now, col_bound), expect)
                << "step " << step;
        } else if (pick < 70) {
            // A same-row write batch: accepted cycles in order, many
            // past the cycle the batch's own ACT makes the row ready.
            const Address row = randomAddr();
            std::vector<Cycle> accepted(1 + rng.below(6));
            for (Cycle &c : accepted)
                c = now + rng.below(80);
            std::sort(accepted.begin(), accepted.end());
            const Cycle ready = openRowPerCommand(ref, row, now);
            for (size_t i = 0; i < accepted.size(); ++i) {
                Address a = row;
                a.column = static_cast<int>(rng.below(cfg.columns));
                const Command wr{CommandType::Wr, a, 0};
                const Cycle expect = ref.issueAtEarliest(
                    wr, std::max(ready, accepted[i]));
                ASSERT_EQ(fused.issueAccess(wr, now, accepted[i]),
                          expect)
                    << "step " << step << " write " << i;
                late_batch_writes += i > 0 && ready > now &&
                                     accepted[i] > ready;
            }
        } else if (pick < 80) {
            const Address a = randomAddr();
            precharge(a.rank, a.bank, now);
        } else if (pick < 85) {
            // Rank REF: every bank of the rank precharged first.
            const int rank = static_cast<int>(rng.below(cfg.ranks));
            for (int k = 0; k < cfg.banks; ++k)
                precharge(rank, k, now);
            Command c{CommandType::Ref, Address{}, 0};
            c.addr.rank = rank;
            both(c, now);
        } else if (pick < 90) {
            // REFpb: only the target bank precharged.
            const Address a = randomAddr();
            precharge(a.rank, a.bank, now);
            both(Command{CommandType::RefPb, a, 0}, now);
        } else if (pick < 95) {
            const Address a = randomAddr();
            precharge(a.rank, a.bank, now);
            both(Command{CommandType::Codic, a, det}, now);
        } else {
            // RowClone (or LISA-clone) copy of a reserved row.
            const Address dst = randomAddr();
            Address src = dst;
            src.row = cfg.rows - 1;
            precharge(dst.rank, dst.bank, now);
            both(Command{CommandType::Act, src, 0}, now);
            if (rng.below(2))
                both(Command{CommandType::LisaRbm, src, 0}, now);
            both(Command{CommandType::RowClone, dst, 0}, now);
            both(Command{CommandType::Pre, dst, 0}, now);
        }
        expectSameChannels(fused, ref, now + 100);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_GT(hits, 100);
    EXPECT_GT(conflicts, 100);
    EXPECT_GT(closed, 100);
    EXPECT_GT(late_batch_writes, 20);
    for (int r = 0; r < cfg.ranks; ++r) {
        for (int k = 0; k < cfg.banks; ++k) {
            for (int64_t row = 0; row < cfg.rows; ++row) {
                ASSERT_EQ(fused.rowState(r, k, row),
                          ref.rowState(r, k, row));
            }
        }
    }
}

TEST(FusedAccess, MatchesPerCommandIssueOnDdr3)
{
    for (uint64_t seed : {1u, 2u, 3u})
        checkFusedAccessMatchesPerCommand(DramConfig::ddr3_1600(64),
                                          seed);
}

TEST(FusedAccess, MatchesPerCommandIssueOnTwoRankDdr4)
{
    for (uint64_t seed : {4u, 5u, 6u})
        checkFusedAccessMatchesPerCommand(
            DramConfig::ddr4_2400(128, 1, 2), seed);
}

TEST(FusedAccess, RejectsANonColumnCommand)
{
    DramChannel ch(smallConfig());
    EXPECT_THROW(ch.issueAccess(cmd(CommandType::Act), 0, 0),
                 PanicError);
    EXPECT_THROW(ch.issueAccess(cmd(CommandType::Rd, 9), 0, 0),
                 PanicError); // Bank out of range.
}

// --- Refresh engine. ---

TEST(Refresh, CatchUpIssuesDueRefreshes)
{
    DramChannel ch(smallConfig());
    RefreshEngine ref(ch, 0);
    const Cycle trefi = ch.config().timing.trefi;
    EXPECT_EQ(ref.catchUp(trefi * 3), 3);
    EXPECT_EQ(ch.counts().ref, 3u);
    EXPECT_EQ(ref.nextDue(), trefi * 4);
}

TEST(Refresh, DutyCycleMatchesTimingRatio)
{
    DramChannel ch(smallConfig());
    RefreshEngine ref(ch, 0);
    const auto &t = ch.config().timing;
    EXPECT_DOUBLE_EQ(ref.dutyCycle(),
                     static_cast<double>(t.trfc) /
                         static_cast<double>(t.trefi));
}

} // namespace
} // namespace codic
