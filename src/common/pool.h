/**
 * @file
 * Allocation-free hot-path storage primitives: a growable slot arena
 * with free-list recycling and generation-tagged handles, and a
 * growable power-of-two ring buffer.
 *
 * Both containers exist for the simulator hot path (the FR-FCFS
 * controller tracks one record per live ticket, and completion queues
 * push/pop on every transaction): after warm-up they never touch the
 * allocator again, which is where the ramulator-style tight-loop
 * throughput comes from.
 */

#ifndef CODIC_COMMON_POOL_H
#define CODIC_COMMON_POOL_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace codic {

/**
 * Growable slot arena handing out stable 64-bit handles with
 * free-list recycling.
 *
 * A handle packs (generation << 32) | (slot + 1), so it is never 0
 * (callers reuse their existing "0 = invalid" sentinel) and a handle
 * released once goes permanently stale: the slot's generation is
 * bumped on release, so a later find() with the old handle returns
 * nullptr instead of aliasing the slot's next occupant.
 *
 * The arena grows on demand (a campaign that keeps thousands of
 * tickets live, like a row-granular zeroing sweep, just widens the
 * slot vector) but recycles aggressively: a submit/resolve loop with
 * bounded in-flight count reaches a steady state where allocate() and
 * release() are a pop/push on the free list and never allocate.
 */
template <typename T>
class SlotArena
{
  public:
    /** Store `value` in a fresh or recycled slot; returns its handle. */
    uint64_t allocate(const T &value)
    {
        uint32_t slot;
        if (!free_.empty()) {
            slot = free_.back();
            free_.pop_back();
            slots_[slot].value = value;
        } else {
            slot = static_cast<uint32_t>(slots_.size());
            slots_.push_back(Slot{value, 1});
        }
        ++live_;
        return (static_cast<uint64_t>(slots_[slot].generation) << 32) |
               (static_cast<uint64_t>(slot) + 1);
    }

    /** Live slot behind `handle`, or nullptr if stale/never issued. */
    T *find(uint64_t handle)
    {
        const uint64_t low = handle & 0xffffffffull;
        if (low == 0 || low > slots_.size())
            return nullptr;
        Slot &s = slots_[static_cast<size_t>(low - 1)];
        if (s.generation != static_cast<uint32_t>(handle >> 32))
            return nullptr;
        return &s.value;
    }

    const T *find(uint64_t handle) const
    {
        return const_cast<SlotArena *>(this)->find(handle);
    }

    /** Recycle `handle`'s slot; a stale handle is a no-op. */
    void release(uint64_t handle)
    {
        const uint64_t low = handle & 0xffffffffull;
        if (low == 0 || low > slots_.size())
            return;
        Slot &s = slots_[static_cast<size_t>(low - 1)];
        if (s.generation != static_cast<uint32_t>(handle >> 32))
            return;
        ++s.generation; // Stale-ify every outstanding copy.
        free_.push_back(static_cast<uint32_t>(low - 1));
        --live_;
    }

    /** Handles currently live (allocated, not yet released). */
    size_t liveCount() const { return live_; }

    /** Slots ever allocated (live + recyclable). */
    size_t slotCount() const { return slots_.size(); }

  private:
    struct Slot
    {
        T value{};
        /** Bumped on release; a handle must match to resolve. */
        uint32_t generation = 1;
    };

    std::vector<Slot> slots_;
    std::vector<uint32_t> free_;
    size_t live_ = 0;
};

/**
 * Growable FIFO ring buffer over a power-of-two slab.
 *
 * Index math is a mask, growth doubles the slab (rare: steady-state
 * occupancy is bounded by the consumer), and unlike std::deque there
 * is no per-chunk indirection or allocation on the push/pop path.
 * Entries are indexed from the front; insert() and erase() keep that
 * order, so a queue that is mostly FIFO pays a shift only for the
 * entries it takes or places out of order.
 */
template <typename T>
class RingBuffer
{
  public:
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }

    const T &front() const
    {
        CODIC_ASSERT(size_ > 0);
        return slab_[head_];
    }

    const T &back() const
    {
        CODIC_ASSERT(size_ > 0);
        return (*this)[size_ - 1];
    }

    /** Entry `i` counted from the front (unchecked). */
    T &operator[](size_t i)
    {
        return slab_[(head_ + i) & (slab_.size() - 1)];
    }

    const T &operator[](size_t i) const
    {
        return slab_[(head_ + i) & (slab_.size() - 1)];
    }

    /** Grow the slab now so that `n` entries fit without allocating. */
    void reserve(size_t n)
    {
        while (slab_.size() < n)
            grow();
    }

    void push_back(const T &value)
    {
        if (size_ == slab_.size())
            grow();
        slab_[(head_ + size_) & (slab_.size() - 1)] = value;
        ++size_;
    }

    void pop_front()
    {
        CODIC_ASSERT(size_ > 0);
        head_ = (head_ + 1) & (slab_.size() - 1);
        --size_;
    }

    /** Insert `value` before entry `i` (i == size() appends). */
    void insert(size_t i, const T &value)
    {
        CODIC_ASSERT(i <= size_);
        push_back(value);
        for (size_t k = size_ - 1; k > i; --k)
            (*this)[k] = (*this)[k - 1];
        (*this)[i] = value;
    }

    /** Remove entry `i`; the front pops without moving the rest. */
    void erase(size_t i)
    {
        CODIC_ASSERT(i < size_);
        if (i == 0) {
            pop_front();
            return;
        }
        for (size_t k = i; k + 1 < size_; ++k)
            (*this)[k] = (*this)[k + 1];
        --size_;
    }

    void clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    void grow()
    {
        const size_t cap = slab_.empty() ? 16 : slab_.size() * 2;
        std::vector<T> next(cap);
        for (size_t i = 0; i < size_; ++i)
            next[i] = slab_[(head_ + i) & (slab_.size() - 1)];
        slab_.swap(next);
        head_ = 0;
    }

    std::vector<T> slab_;
    size_t head_ = 0;
    size_t size_ = 0;
};

} // namespace codic

#endif // CODIC_COMMON_POOL_H
