/**
 * @file
 * Mmap-backed serving path for the enrollment store.
 *
 * A production fleet store holds 10^7+ golden signatures; decoding
 * it into heap (EnrollmentStore::loadBinary) costs gigabytes and
 * minutes before the first request is served. MmapEnrollmentStore
 * instead maps the store file read-only (common/mapped_file.h, as
 * the trace reader does) and serves lookups directly from it through
 * the same StoreFileView parser the heap load uses: a binary search
 * over the sorted on-disk record index touches O(log n) pages, the
 * record's blob is decoded on demand through the same DecodeCache
 * the in-memory store uses, and per-request memory stays flat no
 * matter how many devices the file holds - only the touched working
 * set is ever resident.
 *
 * Writes (re-enrollments) go to an in-memory overlay that shadows
 * the mapped base file; an overlay entry supersedes ("tombstones")
 * its base record. compactTo() streams base and overlay into a
 * fresh file in one sorted merge, dropping the superseded record
 * bytes - the maintenance pass a long-serving store runs to shed
 * re-enrollment garbage.
 *
 * EnrollmentStoreWriter is the streaming producer of the same
 * format: records are appended in ascending device-id order and the
 * index footer is assembled on disk, so a 10^7-record store is
 * written with flat memory too (enrollment campaigns and compaction
 * both use it).
 */

#ifndef CODIC_FLEET_STORE_MMAP_H
#define CODIC_FLEET_STORE_MMAP_H

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/mapped_file.h"
#include "fleet/enrollment_store.h"
#include "fleet/store_format.h"

namespace codic {

/**
 * Streaming writer of the store format. Append records in
 * strictly ascending device-id order, then finish(); the index
 * footer is staged in a side file and spliced on, so writer memory
 * stays flat at any record count. @throws FatalError on unsorted
 * appends or I/O failure.
 */
class EnrollmentStoreWriter
{
  public:
    EnrollmentStoreWriter(const std::string &path,
                          uint64_t population_seed);

    /** Unfinished writers clean up their partial files. */
    ~EnrollmentStoreWriter();

    EnrollmentStoreWriter(const EnrollmentStoreWriter &) = delete;
    EnrollmentStoreWriter &
    operator=(const EnrollmentStoreWriter &) = delete;

    /** Append one encoded record (ids strictly ascending). */
    void append(const EnrollmentRecord &record);

    /** Encode and append one signature (ids strictly ascending). */
    void append(uint64_t device_id, const Challenge &challenge,
                const Response &signature);

    /** Records appended so far. */
    uint64_t records() const { return count_; }

    /** Splice the index, patch the header, close. Call once. */
    void finish();

  private:
    std::string path_;
    std::string index_path_;
    std::ofstream out_;
    std::ofstream index_out_;
    uint64_t population_seed_;
    uint64_t count_ = 0;
    uint64_t offset_ = 0;   //!< Next record's file offset.
    uint64_t last_id_ = 0;  //!< Highest id appended (count_ > 0).
    bool finished_ = false;
};

/**
 * Read-mostly enrollment backend over an mmap'd store file plus an
 * in-memory write overlay. Thread-safe like EnrollmentStore; the
 * mapped file is never modified. @throws FatalError when the file
 * is missing or its header is corrupt, and from lookups whose
 * record is corrupt.
 */
class MmapEnrollmentStore : public EnrollmentBackend
{
  public:
    explicit MmapEnrollmentStore(const std::string &path,
                                 size_t cache_capacity = 4096);

    MmapEnrollmentStore(const MmapEnrollmentStore &) = delete;
    MmapEnrollmentStore &
    operator=(const MmapEnrollmentStore &) = delete;

    // --- EnrollmentBackend ---

    uint64_t populationSeed() const override
    {
        return view_.populationSeed();
    }

    /** Base records plus overlay entries for new devices. */
    size_t size() const override;

    /** Re-enrollments land in the overlay; the file is untouched. */
    void put(uint64_t device_id, const Challenge &challenge,
             const Response &signature) override;

    bool contains(uint64_t device_id) const override;

    std::shared_ptr<const Response>
    lookup(uint64_t device_id) const override;

    size_t cacheCapacity() const override { return cache_.capacity(); }
    uint64_t cacheHits() const override { return cache_.hits(); }
    uint64_t cacheMisses() const override { return cache_.misses(); }

    // --- Serving telemetry ---

    const std::string &path() const { return path_; }

    /** Records in the mapped base file. */
    uint64_t baseRecords() const { return view_.records(); }

    /** Overlay entries (new devices + re-enrollments). */
    size_t overlayRecords() const;

    /** Overlay entries shadowing a base record (tombstoned bytes). */
    uint64_t supersededRecords() const;

    /** Mapped file size in bytes. */
    uint64_t mappedBytes() const { return file_.size(); }

    /**
     * Merged device ids, ascending. O(n) and materializes the full
     * id list - diagnostics and tests only, never the serving path.
     */
    std::vector<uint64_t> deviceIds() const;

    // --- Compaction ---

    struct CompactStats
    {
        uint64_t base_records = 0;    //!< Records in the old file.
        uint64_t overlay_records = 0; //!< Overlay entries merged in.
        uint64_t superseded = 0;      //!< Base records dropped.
        uint64_t records_written = 0; //!< Records in the new file.
    };

    /**
     * Stream base + overlay into a fresh v2 file at `path` (sorted
     * merge; overlay supersedes base). Flat memory at any store
     * size. The open store is unchanged - reopen the new file to
     * serve from it.
     */
    CompactStats compactTo(const std::string &path) const;

  private:
    /** Is the device in the mapped base file? */
    bool inBase(uint64_t device_id) const
    {
        return view_.findSlot(device_id) != view_.records();
    }

    std::string path_;
    MappedFile file_;
    StoreFileView view_; //!< Parses file_'s bytes.

    mutable std::mutex mutex_;
    std::unordered_map<uint64_t, EnrollmentRecord> overlay_;
    uint64_t overlay_new_ = 0; //!< Overlay ids absent from the base.
    mutable DecodeCache cache_;
};

/**
 * Stream a deterministic stand-in population of `devices` synthetic
 * enrollment records to `path` (sorted, v2, flat memory). Scale
 * studies use it to exercise the 10^7-device serving path: building
 * that store from real PUF enrollments takes hours of simulated
 * silicon, and the store/serving data path under test never depends
 * on signature content. Each record is a pure function of
 * (population_seed, device_id).
 */
uint64_t writeSyntheticStore(const std::string &path,
                             uint64_t population_seed,
                             uint64_t devices, int segment_bits,
                             int cells_per_record);

} // namespace codic

#endif // CODIC_FLEET_STORE_MMAP_H
