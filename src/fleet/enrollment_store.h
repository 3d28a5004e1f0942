/**
 * @file
 * Golden-signature database for fleet authentication.
 *
 * The store maps device ids to enrolled PUF signatures. Records are
 * held compactly (varint delta-encoded cell positions) and decoded
 * on demand through a bounded LRU cache, so a million-device store
 * costs a few bytes per signature cell and a lookup of a hot device
 * never re-decodes.
 *
 * The store persists in one binary format (store_format.h): records
 * sorted by device id, so a store built by a parallel enrollment
 * campaign serializes byte-identically at any shard/thread count,
 * followed by a sorted (device id, record offset) index that the
 * mmap read path (store_mmap.h) binary-searches to serve lookups
 * without decoding the store into heap. Both read paths parse the
 * file with the same StoreFileView, which rejects a bad magic, an
 * unsupported format version, a truncated file or an inconsistent
 * record or index with a clear FatalError instead of misparsing -
 * enrollment written by one run can be trusted by a later run.
 */

#ifndef CODIC_FLEET_ENROLLMENT_STORE_H
#define CODIC_FLEET_ENROLLMENT_STORE_H

#include <cstdint>
#include <iosfwd>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "puf/puf.h"

namespace codic {

/**
 * Recency index of a bounded LRU set (list + map bookkeeping). One
 * implementation backs both the store's decode cache and
 * AuthService's deterministic cache plan, so the planned store
 * latencies can never drift from the eviction policy actually
 * served. Not thread-safe; callers synchronize.
 */
class LruIndex
{
  public:
    explicit LruIndex(size_t capacity)
        : capacity_(std::max<size_t>(1, capacity))
    {
    }

    /**
     * Record an access: true when the id was already indexed (moved
     * to the front); otherwise inserts it at the front. Callers
     * drain evictIfOver() after inserting.
     */
    bool
    touch(uint64_t id)
    {
        auto it = pos_.find(id);
        if (it != pos_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            return true;
        }
        lru_.push_front(id);
        pos_[id] = lru_.begin();
        return false;
    }

    /** Evict and return the least-recent id while over capacity. */
    std::optional<uint64_t>
    evictIfOver()
    {
        if (pos_.size() <= capacity_)
            return std::nullopt;
        const uint64_t victim = lru_.back();
        pos_.erase(victim);
        lru_.pop_back();
        return victim;
    }

    size_t capacity() const { return capacity_; }

    /** Is the id indexed? Pure peek: recency is not updated. */
    bool
    contains(uint64_t id) const
    {
        return pos_.count(id) != 0;
    }

    /** Drop an id (invalidation); true when it was present. */
    bool
    erase(uint64_t id)
    {
        auto it = pos_.find(id);
        if (it == pos_.end())
            return false;
        lru_.erase(it->second);
        pos_.erase(it);
        return true;
    }

  private:
    size_t capacity_;
    std::list<uint64_t> lru_;
    std::unordered_map<uint64_t, std::list<uint64_t>::iterator> pos_;
};

/**
 * The bounded LRU cache of decoded signatures that both store
 * implementations serve lookups through. Not thread-safe; the owning
 * store holds its lock around every call.
 */
class DecodeCache
{
  public:
    explicit DecodeCache(size_t capacity) : index_(capacity) {}

    size_t capacity() const { return index_.capacity(); }
    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

    /**
     * The cached decode of `device_id`; on a miss, the signature
     * `decode()` returns (std::optional<Response>, empty for an
     * unknown device), cached. nullptr when the device is unknown.
     */
    template <typename Decode>
    std::shared_ptr<const Response>
    get(uint64_t device_id, Decode decode)
    {
        auto hit = cache_.find(device_id);
        if (hit != cache_.end()) {
            ++hits_;
            index_.touch(device_id);
            return hit->second;
        }
        std::optional<Response> decoded = decode();
        if (!decoded)
            return nullptr;
        ++misses_;
        auto shared =
            std::make_shared<const Response>(std::move(*decoded));
        index_.touch(device_id);
        cache_[device_id] = shared;
        while (const auto victim = index_.evictIfOver())
            cache_.erase(*victim);
        return shared;
    }

    /** Drop a device's cached decode (its signature changed). */
    void
    invalidate(uint64_t device_id)
    {
        if (index_.erase(device_id))
            cache_.erase(device_id);
    }

  private:
    LruIndex index_;
    std::unordered_map<uint64_t, std::shared_ptr<const Response>>
        cache_;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

/** One enrolled device's golden signature (encoded at rest). */
struct EnrollmentRecord
{
    uint64_t device_id = 0;
    uint64_t segment_id = 0;   //!< Golden challenge segment.
    uint32_t segment_bits = 0; //!< Golden challenge width.
    uint32_t cell_count = 0;   //!< Cells in the signature.
    std::vector<uint8_t> blob; //!< Varint delta-encoded positions.
};

/**
 * What AuthService needs from a golden-signature database. Two
 * implementations: the in-memory EnrollmentStore below, and the
 * mmap-backed MmapEnrollmentStore (store_mmap.h) that serves a
 * 10^7-device store file with flat per-request memory. Every method
 * is thread-safe and deterministic: outcomes depend only on store
 * content and call order per device, never on scheduling.
 */
class EnrollmentBackend
{
  public:
    virtual ~EnrollmentBackend() = default;

    /** Population the signatures were enrolled from. */
    virtual uint64_t populationSeed() const = 0;

    /** Enrolled devices. */
    virtual size_t size() const = 0;

    /** Insert or replace a device's golden signature. */
    virtual void put(uint64_t device_id, const Challenge &challenge,
                     const Response &signature) = 0;

    /** Is the device enrolled? */
    virtual bool contains(uint64_t device_id) const = 0;

    /**
     * Decoded golden signature through the LRU decode cache, or
     * nullptr when the device is unknown. The shared_ptr stays
     * valid after eviction.
     */
    virtual std::shared_ptr<const Response>
    lookup(uint64_t device_id) const = 0;

    /** Decode-cache capacity (what AuthService's LRU plan models). */
    virtual size_t cacheCapacity() const = 0;

    /** Decode-cache telemetry (scheduling-dependent; timings only). */
    virtual uint64_t cacheHits() const = 0;
    virtual uint64_t cacheMisses() const = 0;
};

/** Golden-signature database with an LRU decode cache. */
class EnrollmentStore : public EnrollmentBackend
{
  public:
    /** @param cache_capacity Decoded signatures kept hot (>= 1). */
    explicit EnrollmentStore(uint64_t population_seed = 0,
                             size_t cache_capacity = 4096);

    /**
     * Moves transfer the records and leave the decode cache cold
     * (the mutex is not movable). Never move a store that another
     * thread is using.
     */
    EnrollmentStore(EnrollmentStore &&other) noexcept;
    EnrollmentStore &operator=(EnrollmentStore &&other) noexcept;
    EnrollmentStore(const EnrollmentStore &) = delete;
    EnrollmentStore &operator=(const EnrollmentStore &) = delete;

    /** Population the signatures were enrolled from. */
    uint64_t populationSeed() const override
    {
        return population_seed_;
    }

    /** Enrolled devices. Thread-safe. */
    size_t size() const override;

    /**
     * Insert or replace a device's golden signature. Thread-safe;
     * the final store content depends only on the per-device last
     * write, never on cross-device interleaving.
     */
    void put(uint64_t device_id, const Challenge &challenge,
             const Response &signature) override;

    /** O(1): is the device enrolled? Thread-safe. */
    bool contains(uint64_t device_id) const override;

    /**
     * Encoded record, or nullptr when the device is unknown.
     * Records are never erased, so the pointer stays valid; do not
     * read it concurrently with a put() for the same device (the
     * record content is overwritten in place).
     */
    const EnrollmentRecord *record(uint64_t device_id) const;

    /**
     * Decoded golden signature through the LRU cache, or nullptr
     * when the device is unknown. Thread-safe; the shared_ptr stays
     * valid after eviction.
     */
    std::shared_ptr<const Response>
    lookup(uint64_t device_id) const override;

    /** Enrolled device ids, ascending (deterministic iteration). */
    std::vector<uint64_t> deviceIds() const;

    /** Decode-cache capacity (what AuthService's LRU plan models). */
    size_t cacheCapacity() const override { return cache_.capacity(); }

    /** Decode-cache telemetry (scheduling-dependent; timings only). */
    uint64_t cacheHits() const override { return cache_.hits(); }
    uint64_t cacheMisses() const override { return cache_.misses(); }

    // --- Serialization (store_format.h) ---

    /** Write the store file (records sorted by device id). */
    void saveBinary(std::ostream &out) const;

    /** Binary size without writing (campaign reporting). */
    size_t binarySizeBytes() const;

    /**
     * Parse a store file image. The decode-cache capacity is a
     * runtime tuning knob, not part of the stored data - pass the
     * capacity the serving process wants (files carry records
     * only). @throws FatalError on a bad magic, a format-version
     * mismatch, a truncated file, or a record or index entry that
     * disagrees with the layout (records in index order, each index
     * entry naming its record's id and offset).
     */
    static EnrollmentStore loadBinary(std::string_view bytes,
                                      size_t cache_capacity = 4096);

    /**
     * Path helpers over saveBinary/loadBinary. @throws FatalError
     * when the file cannot be opened or fails to parse.
     */
    void saveFile(const std::string &path) const;
    static EnrollmentStore loadFile(const std::string &path,
                                    size_t cache_capacity = 4096);

    /**
     * Decode one record's blob into a Response (cache bypass).
     * @throws FatalError on a malformed varint, a cell count the blob
     *         cannot hold, trailing blob bytes, or cells that do not
     *         ascend strictly below the record's segment_bits.
     */
    static Response decode(const EnrollmentRecord &record);

    /** Encode one signature into a record (varint delta cells). */
    static EnrollmentRecord encode(uint64_t device_id,
                                   const Challenge &challenge,
                                   const Response &signature);

  private:
    static EnrollmentStore parse(std::string_view bytes,
                                 std::string what,
                                 size_t cache_capacity);

    uint64_t population_seed_;
    std::unordered_map<uint64_t, EnrollmentRecord> records_;

    mutable std::mutex mutex_;
    mutable DecodeCache cache_;
};

} // namespace codic

#endif // CODIC_FLEET_ENROLLMENT_STORE_H
