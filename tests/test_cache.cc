/**
 * @file
 * Direct unit tests of the set-associative write-back cache model
 * (sim/cache.h). Until the trace subsystem made it a public
 * ingestion dependency (trace/cache_filter.h), the cache was only
 * exercised indirectly through the trace-driven core; these tests
 * pin its replacement, write-allocate, writeback, and flush
 * semantics on their own.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "sim/cache.h"

namespace codic {
namespace {

constexpr uint64_t kLine = 64;

// One set, four ways: eviction order is fully observable.
Cache
oneSetCache()
{
    return Cache(4 * kLine, 4, static_cast<int>(kLine));
}

TEST(Cache, MissThenHitWithinOneLine)
{
    Cache c(1 << 20, 16);
    EXPECT_FALSE(c.access(0x1000, false).hit);
    // Any byte of the same 64 B line hits.
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x103F, false).hit);
    EXPECT_FALSE(c.access(0x1040, false).hit);
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, WriteAllocateMakesStoresHitAfterMiss)
{
    Cache c(1 << 20, 16);
    EXPECT_FALSE(c.access(0x2000, true).hit);
    EXPECT_TRUE(c.access(0x2000, false).hit);
}

TEST(Cache, LruEvictsLeastRecentlyUsedWay)
{
    Cache c = oneSetCache();
    // Fill the set: lines 0..3.
    for (uint64_t i = 0; i < 4; ++i)
        EXPECT_FALSE(c.access(i * kLine, false).hit);
    // Touch line 0 so line 1 becomes LRU.
    EXPECT_TRUE(c.access(0, false).hit);
    // A fifth line evicts line 1 (clean: no writeback).
    const CacheAccessResult r = c.access(4 * kLine, false);
    EXPECT_FALSE(r.hit);
    EXPECT_FALSE(r.writeback);
    EXPECT_TRUE(c.access(0, false).hit) << "recently used survived";
    EXPECT_FALSE(c.access(1 * kLine, false).hit) << "LRU evicted";
}

TEST(Cache, DirtyVictimReportsWritebackWithVictimLineAddress)
{
    Cache c = oneSetCache();
    c.access(0 * kLine, true); // Dirty: the future LRU victim.
    c.access(1 * kLine, false);
    c.access(2 * kLine, false);
    c.access(3 * kLine, false);
    const CacheAccessResult r = c.access(4 * kLine, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.victim_addr, 0u * kLine);
}

TEST(Cache, FlushLineReportsDirtyAndInvalidates)
{
    Cache c(1 << 20, 16);
    c.access(0x3000, true);
    c.access(0x4000, false);
    EXPECT_TRUE(c.flushLine(0x3000)) << "dirty line needs writeback";
    EXPECT_FALSE(c.flushLine(0x4000)) << "clean line does not";
    EXPECT_FALSE(c.flushLine(0x5000)) << "absent line does not";
    // Both flushed lines are gone.
    EXPECT_FALSE(c.access(0x3000, false).hit);
    EXPECT_FALSE(c.access(0x4000, false).hit);
}

TEST(Cache, InvalidateRangeDropsCoveredLinesWithoutWriteback)
{
    Cache c(1 << 20, 16);
    c.access(0x8000, true);  // Dirty, inside the range.
    c.access(0x8040, false); // Clean, inside.
    c.access(0x9000, true);  // Dirty, outside.
    c.invalidateRange(0x8000, 0x1000);
    EXPECT_FALSE(c.access(0x8000, false).hit);
    EXPECT_FALSE(c.access(0x8040, false).hit);
    EXPECT_TRUE(c.access(0x9000, false).hit);
    // The dirty line inside the range was discarded, not written
    // back (hardware deallocation semantics): flushing its address
    // now reports clean.
    EXPECT_FALSE(c.flushLine(0x8000));
}

TEST(Cache, CountersTallyEveryAccess)
{
    Cache c = oneSetCache();
    for (uint64_t i = 0; i < 8; ++i)
        c.access(i * kLine, i % 2 == 0);
    EXPECT_EQ(c.hits() + c.misses(), 8u);
    EXPECT_EQ(c.misses(), 8u) << "8 distinct lines in a 4-way set";
    EXPECT_EQ(c.lineBytes(), static_cast<int>(kLine));
}

TEST(Cache, GeometryErrorsAreConfigurationErrors)
{
    // Every cache the simulator builds stays valid.
    EXPECT_NO_THROW(Cache(65536, 4));
    EXPECT_NO_THROW(Cache(524288, 8));
    EXPECT_NO_THROW(Cache(2 << 20, 16));
    EXPECT_NO_THROW(Cache(64, 1, 64)); // One line.

    EXPECT_THROW(Cache(65536, 0), FatalError);
    EXPECT_THROW(Cache(65536, -4), FatalError);
    EXPECT_THROW(Cache(65536, 17), FatalError) << "recency word holds 16";
    EXPECT_THROW(Cache(65536, 32), FatalError);
    EXPECT_THROW(Cache(65536, 4, 48), FatalError) << "line not pow2";
    EXPECT_THROW(Cache(65536, 4, 4), FatalError) << "line under 8 B";
    EXPECT_THROW(Cache(65536, 4, 0), FatalError);
    EXPECT_THROW(Cache(3 * 64, 4), FatalError) << "fewer lines than ways";
    EXPECT_THROW(Cache(0, 1), FatalError);
    EXPECT_THROW(Cache(3 * 4 * 64, 4), FatalError) << "3 sets";
    EXPECT_THROW(Cache(65536, 3), FatalError) << "341 sets";
    try {
        Cache(3 * 4 * 64, 4);
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("768 B, 4-way, 64 B lines"), std::string::npos)
            << what;
    }
}

// --- Exactness against the stamp-scan design ------------------------------

/**
 * The cache as it was before tag words and recency words: 32-byte
 * Line structs, a global access stamp, and a scan of every way's
 * stamp for the victim. Kept verbatim as the reference Cache must
 * match bit for bit.
 */
class StampCache
{
  public:
    StampCache(uint64_t size_bytes, int ways, int line_bytes)
        : line_bytes_(line_bytes), ways_(ways)
    {
        const uint64_t lines =
            size_bytes / static_cast<uint64_t>(line_bytes);
        sets_ = static_cast<size_t>(lines / static_cast<uint64_t>(ways));
        lines_.resize(sets_ * static_cast<size_t>(ways_));
    }

    CacheAccessResult
    access(uint64_t addr, bool write)
    {
        ++tick_;
        const size_t set = setIndex(addr);
        const uint64_t tag = tagOf(addr);
        Line *entries = &lines_[set * static_cast<size_t>(ways_)];

        CacheAccessResult result;
        Line *victim = &entries[0];
        for (int w = 0; w < ways_; ++w) {
            Line &line = entries[w];
            if (line.valid && line.tag == tag) {
                line.lru = tick_;
                line.dirty = line.dirty || write;
                ++hits_;
                result.hit = true;
                return result;
            }
            if (!line.valid) {
                victim = &line;
            } else if (victim->valid && line.lru < victim->lru) {
                victim = &line;
            }
        }
        ++misses_;
        if (victim->valid && victim->dirty) {
            result.writeback = true;
            result.victim_addr =
                (victim->tag * sets_ + set) *
                static_cast<uint64_t>(line_bytes_);
        }
        victim->valid = true;
        victim->dirty = write;
        victim->tag = tag;
        victim->lru = tick_;
        return result;
    }

    bool
    flushLine(uint64_t addr)
    {
        const size_t set = setIndex(addr);
        const uint64_t tag = tagOf(addr);
        Line *entries = &lines_[set * static_cast<size_t>(ways_)];
        for (int w = 0; w < ways_; ++w) {
            Line &line = entries[w];
            if (line.valid && line.tag == tag) {
                const bool dirty = line.dirty;
                line.valid = false;
                line.dirty = false;
                return dirty;
            }
        }
        return false;
    }

    void
    invalidateRange(uint64_t addr, uint64_t bytes)
    {
        const uint64_t line = static_cast<uint64_t>(line_bytes_);
        const uint64_t first = addr / line * line;
        for (uint64_t a = first; a < addr + bytes; a += line)
            flushLine(a);
    }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

  private:
    struct Line
    {
        uint64_t tag = 0;
        bool valid = false;
        bool dirty = false;
        uint64_t lru = 0;
    };

    size_t
    setIndex(uint64_t addr) const
    {
        return static_cast<size_t>(
            (addr / static_cast<uint64_t>(line_bytes_)) & (sets_ - 1));
    }

    uint64_t
    tagOf(uint64_t addr) const
    {
        return addr / static_cast<uint64_t>(line_bytes_) / sets_;
    }

    int line_bytes_;
    int ways_;
    size_t sets_;
    std::vector<Line> lines_;
    uint64_t tick_ = 0;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

/**
 * Drive Cache and StampCache with one seeded stream of `ops`
 * accesses, CLFLUSHes and range invalidations, and compare every
 * result. Addresses mix a hot set the size of a few sets' ways (hits,
 * and LRU order decides every eviction), a footprint twice the
 * capacity, sequential runs, and high address bits (wide tags).
 */
void
expectMatchesStampCache(uint64_t size_bytes, int ways, int line_bytes,
                        uint64_t seed, int ops)
{
    SCOPED_TRACE(testing::Message() << size_bytes << " B, " << ways
                                    << "-way, " << line_bytes << " B");
    Cache fast(size_bytes, ways, line_bytes);
    StampCache ref(size_bytes, ways, line_bytes);
    Rng rng(seed);
    const uint64_t line = static_cast<uint64_t>(line_bytes);
    const uint64_t lines = size_bytes / line;
    const uint64_t sets = lines / static_cast<uint64_t>(ways);
    const uint64_t footprint = 2 * lines;
    // A hot set of 8 sets' worth of lines plus one extra way each.
    const uint64_t hot_sets = std::min<uint64_t>(sets, 8);
    uint64_t cursor = 0;
    for (int i = 0; i < ops; ++i) {
        const uint64_t kind = rng.below(100);
        uint64_t addr;
        if (kind < 45) {
            const uint64_t s = rng.below(hot_sets);
            const uint64_t w = rng.below(static_cast<uint64_t>(ways) + 1);
            addr = (w * sets + s) * line;
        } else if (kind < 75) {
            addr = rng.below(footprint) * line;
        } else if (kind < 90) {
            cursor += line;
            addr = cursor % (footprint * line);
        } else {
            addr = rng.below(footprint) * line + (rng.below(4) << 40);
        }
        addr += rng.below(line); // Any byte of the line.

        const uint64_t op = rng.below(100);
        if (op < 90) {
            const bool write = rng.below(3) == 0;
            const CacheAccessResult a = fast.access(addr, write);
            const CacheAccessResult b = ref.access(addr, write);
            ASSERT_EQ(a.hit, b.hit) << "op " << i;
            ASSERT_EQ(a.writeback, b.writeback) << "op " << i;
            ASSERT_EQ(a.victim_addr, b.victim_addr) << "op " << i;
        } else if (op < 98) {
            ASSERT_EQ(fast.flushLine(addr), ref.flushLine(addr))
                << "op " << i;
        } else {
            const uint64_t bytes = rng.below(64 * line);
            fast.invalidateRange(addr, bytes);
            ref.invalidateRange(addr, bytes);
        }
    }
    EXPECT_EQ(fast.hits(), ref.hits());
    EXPECT_EQ(fast.misses(), ref.misses());
    EXPECT_GT(fast.hits(), static_cast<uint64_t>(ops) / 10);
    EXPECT_GT(fast.misses(), static_cast<uint64_t>(ops) / 10);
}

TEST(Cache, RecencyWordsMatchStampScanExactly)
{
    constexpr int kOps = 1000000;
    expectMatchesStampCache(65536, 4, 64, 1, kOps);         // L1
    expectMatchesStampCache(524288, 8, 64, 2, kOps);        // L2
    expectMatchesStampCache(2 << 20, 16, 64, 3, kOps);      // Full word.
    expectMatchesStampCache(4 * 64, 4, 64, 4, kOps);        // One set.
    expectMatchesStampCache(16 * 64, 16, 64, 5, kOps);      // One set, 16.
    expectMatchesStampCache(32768, 1, 64, 6, kOps);         // Direct-mapped.
    expectMatchesStampCache(16384, 4, 32, 7, kOps);         // 32 B lines.
}

} // namespace
} // namespace codic
