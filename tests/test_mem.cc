/**
 * @file
 * Tests of the memory-controller layer: address mapping, FR-FCFS
 * open-row behaviour, write-queue back-pressure, and the bulk row-op
 * paths used by secure deallocation.
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "mem/address_map.h"
#include "mem/controller.h"

namespace codic {
namespace {

DramConfig
cfg()
{
    return DramConfig::ddr3_1600(256);
}

// --- Address map. ---

class MapSchemeTest : public ::testing::TestWithParam<MapScheme>
{
};

TEST_P(MapSchemeTest, DecodeEncodeRoundTrip)
{
    AddressMap map(cfg(), GetParam());
    Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        const uint64_t addr =
            rng.below(static_cast<uint64_t>(map.capacityBytes()) / 64) *
            64;
        EXPECT_EQ(map.encode(map.decode(addr)), addr);
    }
}

INSTANTIATE_TEST_SUITE_P(Schemes, MapSchemeTest,
                         ::testing::Values(MapScheme::RowBankColumn,
                                           MapScheme::BankRowColumn));

TEST(AddressMap, SequentialLinesWalkColumnsFirst)
{
    AddressMap map(cfg());
    const Address a0 = map.decode(0);
    const Address a1 = map.decode(64);
    EXPECT_EQ(a0.column + 1, a1.column);
    EXPECT_EQ(a0.row, a1.row);
    EXPECT_EQ(a0.bank, a1.bank);
}

TEST(AddressMap, RowBankColumnInterleavesBanksAtRowGranularity)
{
    AddressMap map(cfg(), MapScheme::RowBankColumn);
    const Address a = map.decode(0);
    const Address b = map.decode(static_cast<uint64_t>(map.rowBytes()));
    EXPECT_EQ(a.bank + 1, b.bank);
    EXPECT_EQ(a.row, b.row);
}

TEST(AddressMap, OutOfRangePanics)
{
    AddressMap map(cfg());
    EXPECT_THROW(
        map.decode(static_cast<uint64_t>(map.capacityBytes())),
        PanicError);
}

// --- Controller. ---

TEST(Controller, RowHitReadIsFasterThanRowConflict)
{
    DramChannel ch(cfg());
    MemoryController mc(ch);
    const Cycle first = mc.read(0, 0);
    // Same row: only a CAS.
    const Cycle hit = mc.read(64, first);
    // Different row, same bank: PRE + ACT + CAS.
    const uint64_t conflict_addr =
        static_cast<uint64_t>(ch.config().row_bytes) *
        static_cast<uint64_t>(ch.config().banks) * 3;
    const Cycle conflict_done = mc.read(conflict_addr, hit);
    EXPECT_LT(hit - first, conflict_done - hit);
}

TEST(Controller, WriteAcceptedImmediatelyWhenQueueEmpty)
{
    DramChannel ch(cfg());
    MemoryController mc(ch);
    EXPECT_EQ(mc.write(0, 100), 100);
}

TEST(Controller, WriteQueueBackpressureStallsAcceptance)
{
    DramChannel ch(cfg());
    ControllerConfig cc;
    cc.write_queue_entries = 4;
    MemoryController mc(ch, cc);
    // Flood the queue with row-conflicting writes so they drain
    // slowly; the fifth write's acceptance must stall.
    const uint64_t stride =
        static_cast<uint64_t>(ch.config().row_bytes) *
        static_cast<uint64_t>(ch.config().banks);
    Cycle accepted = 0;
    for (int i = 0; i < 12; ++i)
        accepted = mc.write(stride * static_cast<uint64_t>(i), 0);
    EXPECT_GT(accepted, 0);
}

TEST(Controller, DrainWritesCoversAllQueued)
{
    DramChannel ch(cfg());
    MemoryController mc(ch);
    for (int i = 0; i < 8; ++i)
        mc.write(static_cast<uint64_t>(i) * 64, 0);
    const Cycle drained = mc.drainAll();
    EXPECT_GE(drained, ch.lastIssueCycle());
    EXPECT_EQ(ch.counts().wr, 8u);
}

class RowOpTest : public ::testing::TestWithParam<RowOpMechanism>
{
};

TEST_P(RowOpTest, RowOpDestroysTargetRowData)
{
    DramChannel ch(cfg());
    MemoryController mc(ch);
    const uint64_t addr = 3 * 8192ull * 8ull; // Row 3 of bank 0.
    const Address target = mc.map().decode(addr);
    ch.setRowState(target.rank, target.bank, target.row,
                   RowDataState::Data);
    // Clone sources: the reserved zero row of the bank.
    ch.setRowState(target.rank, target.bank, 0, RowDataState::Zeroes);

    const Cycle done = mc.rowOp(addr, 0, GetParam(), 0);
    EXPECT_GT(done, 0);
    const RowDataState s =
        ch.rowState(target.rank, target.bank, target.row);
    EXPECT_EQ(s, RowDataState::Zeroes);
}

INSTANTIATE_TEST_SUITE_P(Mechanisms, RowOpTest,
                         ::testing::Values(RowOpMechanism::CodicDet,
                                           RowOpMechanism::RowClone,
                                           RowOpMechanism::LisaClone));

TEST(Controller, CodicRowOpIsSingleCommand)
{
    DramChannel ch(cfg());
    MemoryController mc(ch);
    mc.rowOp(0, 0, RowOpMechanism::CodicDet);
    EXPECT_EQ(ch.counts().codic, 1u);
    EXPECT_EQ(ch.counts().act, 0u);
}

TEST(Controller, CloneRowOpsUseMoreCommands)
{
    DramChannel ch(cfg());
    MemoryController mc(ch);
    const uint64_t addr = 8192ull * 8ull; // Row 1 (not the zero row).
    mc.rowOp(addr, 0, RowOpMechanism::RowClone, 0);
    EXPECT_EQ(ch.counts().act, 1u);
    EXPECT_EQ(ch.counts().rowclone, 1u);
    EXPECT_EQ(ch.counts().lisa_rbm, 0u);

    mc.rowOp(addr + 8192ull * 8ull, ch.lastIssueCycle(),
             RowOpMechanism::LisaClone, 0);
    EXPECT_EQ(ch.counts().lisa_rbm, 1u);
}

TEST(Controller, RowOpClosesConflictingOpenRow)
{
    DramChannel ch(cfg());
    MemoryController mc(ch);
    mc.read(0, 0); // Opens row 0 of bank 0.
    EXPECT_TRUE(ch.bankActive(0, 0));
    const uint64_t addr = 8192ull * 8ull * 5;
    EXPECT_NO_THROW(mc.rowOp(addr, ch.lastIssueCycle() + 100,
                             RowOpMechanism::CodicDet));
}

} // namespace
} // namespace codic
