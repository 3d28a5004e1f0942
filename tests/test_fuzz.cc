/**
 * @file
 * Property/fuzz tests: long random-but-legal command streams through
 * the DRAM channel, random schedule classification totality, random
 * cache traffic against a reference model, and end-to-end
 * determinism checks. These guard three invariants: the JEDEC
 * checker never admits an illegal issue, classification is total,
 * and simulations are reproducible from seeds.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "dram/channel.h"
#include "puf/sig_puf.h"
#include "sim/cache.h"

namespace codic {
namespace {

/**
 * Random legal command-stream generator: picks any command whose
 * preconditions hold and issues it via issueAtEarliest. The checker
 * inside the channel verifies every issue; the test asserts the
 * whole stream completes without a timing panic and that tracked
 * state stays consistent.
 */
class ChannelFuzzTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ChannelFuzzTest, RandomLegalStreamsNeverViolateTiming)
{
    DramChannel ch(DramConfig::ddr3_1600(64));
    const int sig = ch.registerVariant(variants::sig().schedule);
    const int det = ch.registerVariant(variants::detZero().schedule);
    Rng rng(GetParam());
    Cycle now = 0;

    for (int step = 0; step < 4000; ++step) {
        const int bank = static_cast<int>(rng.below(8));
        const int64_t row =
            static_cast<int64_t>(rng.below(64));
        Command cmd;
        cmd.addr.bank = bank;
        cmd.addr.row = row;
        cmd.addr.column = static_cast<int>(rng.below(128));

        if (ch.bankActive(0, bank)) {
            // Open bank: column ops on the open row, or precharge.
            switch (rng.below(4)) {
              case 0:
                cmd.type = CommandType::Rd;
                cmd.addr.row = ch.openRow(0, bank);
                break;
              case 1:
                cmd.type = CommandType::Wr;
                cmd.addr.row = ch.openRow(0, bank);
                break;
              case 2:
                cmd.type = CommandType::RowClone;
                break;
              default:
                cmd.type = CommandType::Pre;
                break;
            }
        } else {
            switch (rng.below(4)) {
              case 0:
                cmd.type = CommandType::Act;
                break;
              case 1:
                cmd.type = CommandType::Codic;
                cmd.codic_variant = rng.chance(0.5) ? sig : det;
                break;
              case 2:
                cmd.type = CommandType::Mrs;
                break;
              default: {
                // REF requires every bank precharged.
                bool all_idle = true;
                for (int b = 0; b < 8; ++b)
                    all_idle = all_idle && !ch.bankActive(0, b);
                cmd.type = all_idle ? CommandType::Ref
                                    : CommandType::Act;
                break;
              }
            }
        }
        Cycle issued = 0;
        ASSERT_NO_THROW(
            now = ch.issueAtEarliest(cmd, now, &issued))
            << "step " << step << ": " << cmd.str();
        // Monotone progress: issue times never go backwards.
        ASSERT_GE(issued, 0);
        // Occasionally jump time forward (idle periods).
        if (rng.chance(0.05))
            now += static_cast<Cycle>(rng.below(500));
    }
    EXPECT_GT(ch.counts().total(), 3000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(ChannelFuzz, EarliestIsAlwaysLegalToIssue)
{
    // Property: whatever earliest() returns must be accepted by
    // issue() - the two must agree exactly.
    DramChannel ch(DramConfig::ddr3_1600(64));
    Rng rng(77);
    Cycle now = 0;
    for (int step = 0; step < 2000; ++step) {
        const int bank = static_cast<int>(rng.below(8));
        Command cmd;
        cmd.addr.bank = bank;
        cmd.addr.row = static_cast<int64_t>(rng.below(1024));
        if (ch.bankActive(0, bank)) {
            cmd.type = rng.chance(0.5) ? CommandType::Pre
                                       : CommandType::Rd;
            if (cmd.type == CommandType::Rd)
                cmd.addr.row = ch.openRow(0, bank);
        } else {
            cmd.type = CommandType::Act;
        }
        const Cycle earliest = ch.earliest(cmd);
        ASSERT_NO_THROW(now = ch.issue(cmd, std::max(earliest, now)));
    }
}

/** Reference cache: a map-based fully-precise model. */
class ReferenceCache
{
  public:
    ReferenceCache(uint64_t size, int ways, int line)
        : line_(line), ways_(ways),
          sets_(size / static_cast<uint64_t>(line * ways))
    {
    }

    bool
    access(uint64_t addr, bool write, uint64_t *victim, bool *dirty_evict)
    {
        const uint64_t line_addr = addr / static_cast<uint64_t>(line_);
        const uint64_t set = line_addr % sets_;
        auto &entries = sets_map_[set];
        ++tick_;
        auto it = entries.find(line_addr);
        if (it != entries.end()) {
            it->second.lru = tick_;
            it->second.dirty = it->second.dirty || write;
            return true;
        }
        *dirty_evict = false;
        if (entries.size() >= static_cast<size_t>(ways_)) {
            auto victim_it = entries.begin();
            for (auto e = entries.begin(); e != entries.end(); ++e)
                if (e->second.lru < victim_it->second.lru)
                    victim_it = e;
            if (victim_it->second.dirty) {
                *dirty_evict = true;
                *victim =
                    victim_it->first * static_cast<uint64_t>(line_);
            }
            entries.erase(victim_it);
        }
        entries[line_addr] = {tick_, write};
        return false;
    }

  private:
    struct Entry
    {
        uint64_t lru;
        bool dirty;
    };
    int line_;
    int ways_;
    uint64_t sets_;
    uint64_t tick_ = 0;
    std::map<uint64_t, std::map<uint64_t, Entry>> sets_map_;
};

TEST(CacheFuzz, MatchesReferenceModelOnRandomTraffic)
{
    Cache cache(16384, 4, 64);
    ReferenceCache ref(16384, 4, 64);
    Rng rng(31);
    for (int i = 0; i < 50000; ++i) {
        const uint64_t addr = rng.below(1 << 20);
        const bool write = rng.chance(0.3);
        uint64_t ref_victim = 0;
        bool ref_dirty = false;
        const bool ref_hit =
            ref.access(addr, write, &ref_victim, &ref_dirty);
        const auto got = cache.access(addr, write);
        ASSERT_EQ(got.hit, ref_hit) << "access " << i;
        ASSERT_EQ(got.writeback, ref_dirty) << "access " << i;
        if (got.writeback) {
            ASSERT_EQ(got.victim_addr, ref_victim) << "access " << i;
        }
    }
}

TEST(ClassifyFuzz, ClassificationIsTotalAndStable)
{
    Rng rng(17);
    for (int i = 0; i < 100000; ++i) {
        SignalSchedule s;
        for (size_t sig = 0; sig < kNumSignals; ++sig) {
            if (!rng.chance(0.75))
                continue;
            const int start = static_cast<int>(rng.below(24));
            const int end =
                start + 1 +
                static_cast<int>(
                    rng.below(static_cast<uint64_t>(24 - start)));
            s.set(static_cast<Signal>(sig), start, end);
        }
        const VariantClass a = classifySchedule(s);
        const VariantClass b = classifySchedule(s);
        ASSERT_EQ(a, b);
        ASSERT_STRNE(variantClassName(a), "");
        // The latency model is total too.
        ASSERT_GE(variantLatencyNs(s), 0.0);
    }
}

TEST(DeterminismFuzz, PufCampaignsAreSeedStable)
{
    const auto chips = buildPaperPopulation(99);
    const auto chips2 = buildPaperPopulation(99);
    CodicSigPuf puf;
    for (int i = 0; i < 50; ++i) {
        Challenge ch{static_cast<uint64_t>(i * 101), 65536};
        QueryEnv env{30.0, false, static_cast<uint64_t>(i)};
        EXPECT_EQ(puf.evaluate(chips[7], ch, env),
                  puf.evaluate(chips2[7], ch, env));
    }
}

} // namespace
} // namespace codic
