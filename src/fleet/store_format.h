/**
 * @file
 * The enrollment store's on-disk format: the one definition of its
 * layout, with the one parser and the one set of writers that both
 * stores (EnrollmentStore, MmapEnrollmentStore) and the streaming
 * EnrollmentStoreWriter use.
 *
 * Layout (v2, little-endian):
 *   header, 40 bytes:
 *     char[8] magic "CODICENR", u32 format version (2), u32 reserved
 *     flags (0), u64 population seed, u64 record count,
 *     u64 index offset
 *   records, sorted by device id, each a 28-byte prefix then a blob:
 *     u64 device_id, u64 segment_id, u32 segment_bits,
 *     u32 cell_count, u32 blob_len, u8[blob_len] blob (varint
 *     delta-encoded cell positions)
 *   index, at the index offset and ending the file, sorted by id:
 *     record count x (u64 device_id, u64 record offset)
 *
 * The index makes the file directly servable: the mmap read path
 * binary-searches it in place, so a lookup touches O(log n) index
 * pages plus the record's own bytes and never decodes the store into
 * heap.
 */

#ifndef CODIC_FLEET_STORE_FORMAT_H
#define CODIC_FLEET_STORE_FORMAT_H

#include <cstdint>
#include <iosfwd>
#include <string>

#include "fleet/enrollment_store.h"

namespace codic {

/** On-disk format version this build writes and reads. */
constexpr uint32_t kStoreFormatVersion = 2;

constexpr uint64_t kStoreHeaderBytes = 40;
constexpr uint64_t kStoreRecordPrefixBytes = 28;
constexpr uint64_t kStoreIndexEntryBytes = 16;

/**
 * Parser over a store image in memory (a mapped file or a buffer the
 * caller owns and keeps alive). Construction validates the header;
 * record() validates the one record an index slot names. Every
 * malformed byte raises FatalError prefixed with `what`, never a read
 * outside the image or an allocation larger than it.
 */
class StoreFileView
{
  public:
    /**
     * @throws FatalError on a bad magic, a format version other than
     *         kStoreFormatVersion, or a record count and index offset
     *         that do not fit the image (truncation, trailing bytes).
     */
    StoreFileView(const uint8_t *data, uint64_t size, std::string what);

    uint64_t populationSeed() const { return population_seed_; }

    /** Records (and index entries) the header declares. */
    uint64_t records() const { return count_; }

    /** Where the records end and the index starts. */
    uint64_t indexOffset() const { return index_offset_; }

    /** Device id of index entry `slot` (< records()). */
    uint64_t idAt(uint64_t slot) const;

    /** Record offset of index entry `slot` (< records()). */
    uint64_t offsetAt(uint64_t slot) const;

    /** Index slot of a device id, or records() when absent. */
    uint64_t findSlot(uint64_t device_id) const;

    /**
     * The record index entry `slot` points at. @throws FatalError
     * when the offset is outside the record area, the record there
     * carries another device id, or its blob overruns the area.
     */
    EnrollmentRecord record(uint64_t slot) const;

    const std::string &what() const { return what_; }

  private:
    const uint8_t *data_;
    std::string what_;
    uint64_t population_seed_ = 0;
    uint64_t count_ = 0;
    uint64_t index_offset_ = 0;
};

/** Bytes a record occupies in the record area. */
inline uint64_t
storeRecordBytes(const EnrollmentRecord &record)
{
    return kStoreRecordPrefixBytes + record.blob.size();
}

// Writers. The caller checks the stream once at the end.

void writeStoreHeader(std::ostream &out, uint64_t population_seed,
                      uint64_t records, uint64_t index_offset);
void writeStoreRecord(std::ostream &out, const EnrollmentRecord &record);
void writeStoreIndexEntry(std::ostream &out, uint64_t device_id,
                          uint64_t record_offset);

} // namespace codic

#endif // CODIC_FLEET_STORE_FORMAT_H
