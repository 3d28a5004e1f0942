#include "sim/cache.h"

#include <bit>

#include "common/logging.h"

namespace codic {

Cache::Cache(uint64_t size_bytes, int ways, int line_bytes)
    : line_bytes_(line_bytes), ways_(ways)
{
    const auto reject = [&](const auto &...why) {
        fatal("Cache: ", size_bytes, " B, ", ways, "-way, ", line_bytes,
              " B lines: ", why...);
    };
    if (ways < 1 || ways > kMaxWays)
        reject("ways must be in [1, ", kMaxWays, "]");
    if (line_bytes < 8 ||
        !std::has_single_bit(static_cast<uint64_t>(line_bytes)))
        reject("the line size must be a power of two of at least 8 B");
    const uint64_t lines = size_bytes / static_cast<uint64_t>(line_bytes);
    if (lines < static_cast<uint64_t>(ways))
        reject("fewer lines than ways");
    const uint64_t sets = lines / static_cast<uint64_t>(ways);
    if (!std::has_single_bit(sets))
        reject("the set count must be a power of two");

    line_shift_ = std::countr_zero(static_cast<uint64_t>(line_bytes));
    set_shift_ = std::countr_zero(sets);
    set_mask_ = sets - 1;
    tags_.assign(static_cast<size_t>(sets) * static_cast<size_t>(ways),
                 kEmpty);
    // Every way starts empty; any order of empty ways is valid.
    uint64_t identity = 0;
    for (int w = 0; w < ways; ++w)
        identity |= static_cast<uint64_t>(w) << (4 * w);
    recency_.assign(static_cast<size_t>(sets), identity);
}

int
Cache::findWay(size_t set, uint64_t tag) const
{
    const uint64_t *words = &tags_[set * static_cast<size_t>(ways_)];
    for (int w = 0; w < ways_; ++w)
        if ((words[w] >> 1) == tag)
            return w;
    return -1;
}

void
Cache::rerank(size_t set, int way, bool to_mru)
{
    uint64_t &order = recency_[set];
    int rank = 0;
    while (static_cast<int>((order >> (4 * rank)) & 0xF) != way)
        ++rank;
    // rank <= 15, so no shift below reaches 64.
    const uint64_t below = (uint64_t{1} << (4 * rank)) - 1;
    const uint64_t id = static_cast<uint64_t>(way);
    if (to_mru) {
        // Ranks above `rank` slide down one; the way takes the top.
        order = (order & below) | ((order >> 4) & ~below) |
                (id << (4 * (ways_ - 1)));
    } else {
        // Ranks below `rank` slide up one; the way takes rank 0.
        const uint64_t upto = below | (uint64_t{0xF} << (4 * rank));
        order = (order & ~upto) | ((order & below) << 4) | id;
    }
}

CacheAccessResult
Cache::access(uint64_t addr, bool write)
{
    const uint64_t line = addr >> line_shift_;
    const size_t set = static_cast<size_t>(line & set_mask_);
    const uint64_t tag = line >> set_shift_;
    uint64_t *words = &tags_[set * static_cast<size_t>(ways_)];

    CacheAccessResult result;
    const int way = findWay(set, tag);
    if (way >= 0) {
        words[way] |= static_cast<uint64_t>(write);
        rerank(set, way, true);
        ++hits_;
        result.hit = true;
        return result;
    }
    ++misses_;
    uint64_t &order = recency_[set];
    const int victim = static_cast<int>(order & 0xF);
    const uint64_t old = words[victim];
    if (old != kEmpty && (old & 1)) {
        result.writeback = true;
        result.victim_addr =
            (((old >> 1) << set_shift_) | set) << line_shift_;
    }
    words[victim] = (tag << 1) | static_cast<uint64_t>(write);
    // The victim held rank 0: every rank slides down one and the
    // filled way takes the top.
    order = (order >> 4) |
            (static_cast<uint64_t>(victim) << (4 * (ways_ - 1)));
    return result;
}

bool
Cache::flushLine(uint64_t addr)
{
    const uint64_t line = addr >> line_shift_;
    const size_t set = static_cast<size_t>(line & set_mask_);
    const int way = findWay(set, line >> set_shift_);
    if (way < 0)
        return false;
    uint64_t &word = tags_[set * static_cast<size_t>(ways_) +
                           static_cast<size_t>(way)];
    const bool dirty = (word & 1) != 0;
    word = kEmpty;
    rerank(set, way, false);
    return dirty;
}

void
Cache::invalidateRange(uint64_t addr, uint64_t bytes)
{
    const uint64_t line = static_cast<uint64_t>(line_bytes_);
    const uint64_t first = addr & ~(line - 1);
    for (uint64_t a = first; a < addr + bytes; a += line)
        flushLine(a);
}

} // namespace codic
