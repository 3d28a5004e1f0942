#include "fleet/store_format.h"

#include <cstring>
#include <ostream>

#include "common/logging.h"
#include "common/varint.h"

namespace codic {

namespace {

constexpr char kMagic[8] = {'C', 'O', 'D', 'I', 'C', 'E', 'N', 'R'};

void
writeBytes(std::ostream &out, const uint8_t *bytes, size_t n)
{
    out.write(reinterpret_cast<const char *>(bytes),
              static_cast<std::streamsize>(n));
}

} // namespace

StoreFileView::StoreFileView(const uint8_t *data, uint64_t size,
                             std::string what)
    : data_(data), what_(std::move(what))
{
    if (size < kStoreHeaderBytes)
        fatal(what_, " is truncated (", size, " bytes, smaller than the ",
              kStoreHeaderBytes, "-byte header)");
    if (std::memcmp(data_, kMagic, sizeof(kMagic)) != 0)
        fatal(what_, " is not a CODIC enrollment store (bad magic)");
    const uint32_t version = loadLe<uint32_t>(data_ + 8);
    if (version != kStoreFormatVersion)
        fatal(what_, " has format v", version, " but this build reads v",
              kStoreFormatVersion);
    population_seed_ = loadLe<uint64_t>(data_ + 16);
    count_ = loadLe<uint64_t>(data_ + 24);
    index_offset_ = loadLe<uint64_t>(data_ + 32);
    // Untrusted counts and offsets: compare by subtraction and
    // division so no sum or product can wrap past the image.
    if (index_offset_ < kStoreHeaderBytes || index_offset_ > size ||
        count_ != (size - index_offset_) / kStoreIndexEntryBytes ||
        (size - index_offset_) % kStoreIndexEntryBytes != 0)
        fatal(what_, " has a corrupt index (", count_,
              " records, index at ", index_offset_, ", file is ", size,
              " bytes)");
    if (count_ > (index_offset_ - kStoreHeaderBytes) /
                     kStoreRecordPrefixBytes)
        fatal(what_, " declares ", count_, " records but only ",
              index_offset_ - kStoreHeaderBytes, " record bytes");
}

uint64_t
StoreFileView::idAt(uint64_t slot) const
{
    return loadLe<uint64_t>(data_ + index_offset_ +
                            slot * kStoreIndexEntryBytes);
}

uint64_t
StoreFileView::offsetAt(uint64_t slot) const
{
    return loadLe<uint64_t>(data_ + index_offset_ +
                            slot * kStoreIndexEntryBytes + 8);
}

uint64_t
StoreFileView::findSlot(uint64_t device_id) const
{
    uint64_t lo = 0;
    uint64_t hi = count_;
    while (lo < hi) {
        const uint64_t mid = lo + (hi - lo) / 2;
        if (idAt(mid) < device_id)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < count_ && idAt(lo) == device_id ? lo : count_;
}

EnrollmentRecord
StoreFileView::record(uint64_t slot) const
{
    const uint64_t offset = offsetAt(slot);
    // With a slot to read, the header check left room for at least
    // one record prefix before the index.
    if (offset < kStoreHeaderBytes ||
        offset > index_offset_ - kStoreRecordPrefixBytes)
        fatal(what_, " index entry ", slot,
              " has out-of-range record offset ", offset);
    const uint8_t *p = data_ + offset;
    EnrollmentRecord rec;
    rec.device_id = loadLe<uint64_t>(p);
    if (rec.device_id != idAt(slot))
        fatal(what_, " index entry ", slot, " names device ",
              idAt(slot), " but its record offset ", offset,
              " holds device ", rec.device_id);
    rec.segment_id = loadLe<uint64_t>(p + 8);
    rec.segment_bits = loadLe<uint32_t>(p + 16);
    rec.cell_count = loadLe<uint32_t>(p + 20);
    const uint32_t blob_len = loadLe<uint32_t>(p + 24);
    // Every cell costs at least one blob byte.
    if (rec.cell_count > blob_len ||
        blob_len > index_offset_ - offset - kStoreRecordPrefixBytes)
        fatal(what_, " has a corrupt record at offset ", offset,
              " (cell count ", rec.cell_count, ", blob length ",
              blob_len, ")");
    rec.blob.assign(p + kStoreRecordPrefixBytes,
                    p + kStoreRecordPrefixBytes + blob_len);
    return rec;
}

void
writeStoreHeader(std::ostream &out, uint64_t population_seed,
                 uint64_t records, uint64_t index_offset)
{
    uint8_t header[kStoreHeaderBytes] = {};
    std::memcpy(header, kMagic, sizeof(kMagic));
    storeLe(header + 8, kStoreFormatVersion);
    // Bytes 12-15: reserved flags, zero.
    storeLe(header + 16, population_seed);
    storeLe(header + 24, records);
    storeLe(header + 32, index_offset);
    writeBytes(out, header, sizeof(header));
}

void
writeStoreRecord(std::ostream &out, const EnrollmentRecord &record)
{
    uint8_t prefix[kStoreRecordPrefixBytes];
    storeLe(prefix, record.device_id);
    storeLe(prefix + 8, record.segment_id);
    storeLe(prefix + 16, record.segment_bits);
    storeLe(prefix + 20, record.cell_count);
    storeLe(prefix + 24, static_cast<uint32_t>(record.blob.size()));
    writeBytes(out, prefix, sizeof(prefix));
    writeBytes(out, record.blob.data(), record.blob.size());
}

void
writeStoreIndexEntry(std::ostream &out, uint64_t device_id,
                     uint64_t record_offset)
{
    uint8_t entry[kStoreIndexEntryBytes];
    storeLe(entry, device_id);
    storeLe(entry + 8, record_offset);
    writeBytes(out, entry, sizeof(entry));
}

} // namespace codic
