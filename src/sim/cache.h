/**
 * @file
 * Set-associative write-back, write-allocate cache with LRU
 * replacement and CLFLUSH support, used for the L1/L2 hierarchy of
 * the trace-driven core (paper Tables 5 and 7).
 */

#ifndef CODIC_SIM_CACHE_H
#define CODIC_SIM_CACHE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace codic {

/** Result of a cache access. */
struct CacheAccessResult
{
    bool hit = false;
    bool writeback = false;     //!< A dirty victim was evicted.
    uint64_t victim_addr = 0;   //!< Line address of the dirty victim.
};

/** One level of cache. */
class Cache
{
  public:
    /** Most ways a set may have: its recency word holds 16 way ids. */
    static constexpr int kMaxWays = 16;

    /**
     * @param size_bytes Total capacity.
     * @param ways Associativity, 1 to kMaxWays.
     * @param line_bytes Line size (64 B throughout the paper).
     * @throws FatalError when the geometry cannot be built: ways
     *         outside [1, kMaxWays], a line size that is not a power
     *         of two of at least 8 bytes, fewer lines than ways, or a
     *         set count that is not a power of two.
     */
    Cache(uint64_t size_bytes, int ways, int line_bytes = 64);

    /**
     * Access a byte address; allocates on miss.
     * @param addr Byte address.
     * @param write True for stores (marks the line dirty).
     */
    CacheAccessResult access(uint64_t addr, bool write);

    /**
     * CLFLUSH: invalidate the line if present.
     * @return Present-and-dirty (a writeback is required).
     */
    bool flushLine(uint64_t addr);

    /** Invalidate a whole address range (hardware deallocation). */
    void invalidateRange(uint64_t addr, uint64_t bytes);

    /** Line size in bytes. */
    int lineBytes() const { return line_bytes_; }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

  private:
    /** Tag word of an empty way (no real tag word has every bit set). */
    static constexpr uint64_t kEmpty = ~uint64_t{0};

    /** Way of `set` holding `tag`, or -1 when absent. */
    int findWay(size_t set, uint64_t tag) const;

    /**
     * Move `way` of `set` to the most-recent rank (`to_mru`) or to
     * rank 0, the next victim, keeping the other ranks in order.
     */
    void rerank(size_t set, int way, bool to_mru);

    int line_bytes_;
    int ways_;
    int line_shift_ = 0; //!< log2(line_bytes_).
    int set_shift_ = 0;  //!< log2(number of sets).
    uint64_t set_mask_ = 0;
    /**
     * sets x ways tag words: (tag << 1) | dirty, or kEmpty. Tags stay
     * below 2^61 (lines are >= 8 B), so the shift cannot overflow and
     * kEmpty never equals a real word.
     */
    std::vector<uint64_t> tags_;
    /**
     * Per set, the exact LRU order: 4-bit way ids by recency rank,
     * rank 0 (least recent) in the low nibble and rank ways-1 (most
     * recent) above it; nibbles past ways-1 stay zero. Empty ways
     * always hold the lowest ranks, so rank 0 is the victim of every
     * miss: an empty way while one exists, else the LRU line.
     */
    std::vector<uint64_t> recency_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

} // namespace codic

#endif // CODIC_SIM_CACHE_H
