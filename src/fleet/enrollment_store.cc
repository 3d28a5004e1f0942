#include "fleet/enrollment_store.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <ostream>

#include "common/logging.h"
#include "common/mapped_file.h"
#include "common/varint.h"
#include "fleet/store_format.h"

namespace codic {

namespace {

/** Sorted record views for deterministic serialization. */
std::vector<const EnrollmentRecord *>
sortedRecords(const std::unordered_map<uint64_t, EnrollmentRecord> &map)
{
    std::vector<const EnrollmentRecord *> out;
    out.reserve(map.size());
    for (const auto &[id, rec] : map)
        out.push_back(&rec);
    std::sort(out.begin(), out.end(),
              [](const EnrollmentRecord *a, const EnrollmentRecord *b) {
                  return a->device_id < b->device_id;
              });
    return out;
}

/**
 * Report cell `index` of a record: the delta that follows the
 * smallest allowed cell `next` repeats the previous cell, overflows
 * 32 bits, or leaves the segment.
 */
[[noreturn]] void
corruptCell(const EnrollmentRecord &record, uint32_t index, uint64_t next,
            uint64_t delta)
{
    const uint64_t prev = next - 1;
    if (index > 0 && delta == 0)
        fatal("enrollment store: corrupt record for device ",
              record.device_id, " (cell ", index, " repeats cell ", prev,
              ")");
    const uint64_t base = index > 0 ? prev : 0;
    if (delta > std::numeric_limits<uint32_t>::max() - base)
        fatal("enrollment store: corrupt record for device ",
              record.device_id, " (cell ", index, ": delta ", delta,
              " from ", base, " overflows 32 bits)");
    fatal("enrollment store: corrupt record for device ",
          record.device_id, " (cell ", index, " = ", base + delta,
          " lies outside its ", record.segment_bits, "-bit segment)");
}

} // namespace

EnrollmentStore::EnrollmentStore(uint64_t population_seed,
                                 size_t cache_capacity)
    : population_seed_(population_seed), cache_(cache_capacity)
{
}

EnrollmentStore::EnrollmentStore(EnrollmentStore &&other) noexcept
    : population_seed_(other.population_seed_),
      records_(std::move(other.records_)),
      cache_(other.cache_.capacity())
{
}

EnrollmentStore &
EnrollmentStore::operator=(EnrollmentStore &&other) noexcept
{
    population_seed_ = other.population_seed_;
    records_ = std::move(other.records_);
    cache_ = DecodeCache(other.cache_.capacity());
    return *this;
}

EnrollmentRecord
EnrollmentStore::encode(uint64_t device_id, const Challenge &challenge,
                        const Response &signature)
{
    EnrollmentRecord rec;
    rec.device_id = device_id;
    rec.segment_id = challenge.segment_id;
    rec.segment_bits = static_cast<uint32_t>(challenge.segment_bits);
    rec.cell_count = static_cast<uint32_t>(signature.cells.size());
    rec.blob.reserve(signature.cells.size() * 2);
    uint32_t prev = 0;
    for (uint32_t c : signature.cells) {
        // Responses are sorted and deduplicated, so deltas fit in
        // one or two varint bytes for typical signature densities.
        putVarint(rec.blob, c - prev);
        prev = c;
    }
    return rec;
}

void
EnrollmentStore::put(uint64_t device_id, const Challenge &challenge,
                     const Response &signature)
{
    EnrollmentRecord rec = encode(device_id, challenge, signature);

    std::lock_guard<std::mutex> lock(mutex_);
    records_[device_id] = std::move(rec);
    // A re-enrollment invalidates any cached decode of the old
    // signature.
    cache_.invalidate(device_id);
}

bool
EnrollmentStore::contains(uint64_t device_id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.count(device_id) != 0;
}

size_t
EnrollmentStore::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
}

const EnrollmentRecord *
EnrollmentStore::record(uint64_t device_id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = records_.find(device_id);
    // unordered_map guarantees element-address stability, so the
    // pointer outlives the lock; see the header's aliasing caveat.
    return it == records_.end() ? nullptr : &it->second;
}

Response
EnrollmentStore::decode(const EnrollmentRecord &record)
{
    // Every cell costs at least one varint byte, so a count above
    // the blob size is corruption - reject before allocating.
    if (record.cell_count > record.blob.size())
        fatal("enrollment store: corrupt record for device ",
              record.device_id, " (cell count ", record.cell_count,
              " exceeds blob size ", record.blob.size(), ")");
    Response r;
    r.cells.reserve(record.cell_count);
    uint64_t pos = 0;
    // Cells ascend strictly inside the segment. The first delta is
    // the first cell, and a later one steps at least 1 past its
    // predecessor, so cell i is next + step with next the smallest
    // cell allowed there and step = delta - (i > 0). A zero later
    // delta wraps step past any bound, and next <= segment_bits keeps
    // the bound from wrapping: one comparison rejects a repeat, a
    // cell outside the segment and one past 32 bits.
    uint64_t next = 0;
    for (uint32_t i = 0; i < record.cell_count; ++i) {
        const uint64_t delta =
            getVarint(record.blob.data(), pos, record.blob.size(),
                      "enrollment store: record blob");
        const uint64_t step = delta - (i > 0);
        if (step >= record.segment_bits - next)
            corruptCell(record, i, next, delta);
        r.cells.push_back(static_cast<uint32_t>(next + step));
        next += step + 1;
    }
    if (pos != record.blob.size())
        fatal("enrollment store: trailing bytes in record blob for "
              "device ", record.device_id);
    return r;
}

std::shared_ptr<const Response>
EnrollmentStore::lookup(uint64_t device_id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cache_.get(device_id, [&]() -> std::optional<Response> {
        auto it = records_.find(device_id);
        if (it == records_.end())
            return std::nullopt;
        return decode(it->second);
    });
}

std::vector<uint64_t>
EnrollmentStore::deviceIds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<uint64_t> ids;
    ids.reserve(records_.size());
    for (const auto &[id, rec] : records_)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    return ids;
}

// --- Store file (store_format.h) ---------------------------------------------

void
EnrollmentStore::saveBinary(std::ostream &out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto sorted = sortedRecords(records_);
    uint64_t index_offset = kStoreHeaderBytes;
    for (const EnrollmentRecord *rec : sorted)
        index_offset += storeRecordBytes(*rec);

    writeStoreHeader(out, population_seed_, sorted.size(), index_offset);
    for (const EnrollmentRecord *rec : sorted)
        writeStoreRecord(out, *rec);
    uint64_t offset = kStoreHeaderBytes;
    for (const EnrollmentRecord *rec : sorted) {
        writeStoreIndexEntry(out, rec->device_id, offset);
        offset += storeRecordBytes(*rec);
    }
    if (!out)
        fatal("enrollment store: write failed");
}

size_t
EnrollmentStore::binarySizeBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t bytes = kStoreHeaderBytes;
    for (const auto &[id, rec] : records_)
        bytes += storeRecordBytes(rec) + kStoreIndexEntryBytes;
    return bytes;
}

EnrollmentStore
EnrollmentStore::parse(std::string_view bytes, std::string what,
                       size_t cache_capacity)
{
    const StoreFileView view(
        reinterpret_cast<const uint8_t *>(bytes.data()), bytes.size(),
        std::move(what));
    EnrollmentStore store(view.populationSeed(), cache_capacity);
    // Records must follow one another in index order: entry i names
    // record i's offset (and record() checks its id), so the heap
    // and mmap paths can never resolve a device to different bytes.
    uint64_t offset = kStoreHeaderBytes;
    for (uint64_t slot = 0; slot < view.records(); ++slot) {
        if (view.offsetAt(slot) != offset)
            fatal(view.what(), " index entry ", slot,
                  " points at offset ", view.offsetAt(slot),
                  " but record ", slot, " starts at ", offset);
        if (slot > 0 && view.idAt(slot) <= view.idAt(slot - 1))
            fatal(view.what(), " index entry ", slot,
                  " is not sorted by device id");
        EnrollmentRecord rec = view.record(slot);
        offset += storeRecordBytes(rec);
        store.records_[rec.device_id] = std::move(rec);
    }
    if (offset != view.indexOffset())
        fatal(view.what(), " records end at ", offset,
              " but the index starts at ", view.indexOffset());
    return store;
}

EnrollmentStore
EnrollmentStore::loadBinary(std::string_view bytes, size_t cache_capacity)
{
    return parse(bytes, "enrollment store", cache_capacity);
}

void
EnrollmentStore::saveFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("enrollment store: cannot open '", path,
              "' for writing");
    saveBinary(out);
}

EnrollmentStore
EnrollmentStore::loadFile(const std::string &path, size_t cache_capacity)
{
    const MappedFile file(path, MappedFile::Access::Sequential,
                          "enrollment store");
    return parse({reinterpret_cast<const char *>(file.data()),
                  file.size()},
                 "enrollment store '" + path + "'", cache_capacity);
}

} // namespace codic
