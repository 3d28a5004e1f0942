#include "fleet/store_mmap.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"
#include "common/rng.h"

namespace codic {

// --- EnrollmentStoreWriter ---------------------------------------------------

EnrollmentStoreWriter::EnrollmentStoreWriter(const std::string &path,
                                             uint64_t population_seed)
    : path_(path), index_path_(path + ".idx"),
      out_(path, std::ios::binary),
      index_out_(index_path_, std::ios::binary),
      population_seed_(population_seed)
{
    if (!out_)
        fatal("enrollment store writer: cannot open '", path_,
              "' for writing");
    if (!index_out_)
        fatal("enrollment store writer: cannot open '", index_path_,
              "' for writing");
    // Record count and index offset are rewritten by finish().
    writeStoreHeader(out_, population_seed_, 0, 0);
    offset_ = kStoreHeaderBytes;
}

EnrollmentStoreWriter::~EnrollmentStoreWriter()
{
    if (finished_)
        return;
    // An unfinished file has no index and a zero record count: it
    // would never load. Remove the partial outputs.
    out_.close();
    index_out_.close();
    std::remove(path_.c_str());
    std::remove(index_path_.c_str());
}

void
EnrollmentStoreWriter::append(const EnrollmentRecord &record)
{
    CODIC_ASSERT(!finished_);
    if (count_ > 0 && record.device_id <= last_id_)
        fatal("enrollment store writer: device ", record.device_id,
              " appended after ", last_id_,
              " (records must be sorted by device id)");
    writeStoreRecord(out_, record);
    writeStoreIndexEntry(index_out_, record.device_id, offset_);
    offset_ += storeRecordBytes(record);
    last_id_ = record.device_id;
    ++count_;
}

void
EnrollmentStoreWriter::append(uint64_t device_id,
                              const Challenge &challenge,
                              const Response &signature)
{
    append(EnrollmentStore::encode(device_id, challenge, signature));
}

void
EnrollmentStoreWriter::finish()
{
    CODIC_ASSERT(!finished_);
    index_out_.flush();
    index_out_.close();
    if (!index_out_)
        fatal("enrollment store writer: write to '", index_path_,
              "' failed");

    // Splice the staged index onto the record stream in bounded
    // chunks, then rewrite the header with the final counts.
    {
        std::ifstream index_in(index_path_, std::ios::binary);
        if (!index_in)
            fatal("enrollment store writer: cannot reopen '",
                  index_path_, "'");
        std::vector<char> chunk(1u << 20);
        while (index_in) {
            index_in.read(chunk.data(),
                          static_cast<std::streamsize>(chunk.size()));
            out_.write(chunk.data(), index_in.gcount());
        }
    }
    out_.seekp(0);
    writeStoreHeader(out_, population_seed_, count_, offset_);
    out_.flush();
    if (!out_)
        fatal("enrollment store writer: write to '", path_,
              "' failed");
    out_.close();
    std::remove(index_path_.c_str());
    finished_ = true;
}

// --- MmapEnrollmentStore -----------------------------------------------------

MmapEnrollmentStore::MmapEnrollmentStore(const std::string &path,
                                         size_t cache_capacity)
    : path_(path),
      // Serving access is index binary search plus point record
      // reads: readahead would be wasted.
      file_(path, MappedFile::Access::Random, "mmap enrollment store"),
      view_(file_.data(), file_.size(),
            "mmap enrollment store '" + path + "'"),
      cache_(cache_capacity)
{
}

size_t
MmapEnrollmentStore::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<size_t>(view_.records() + overlay_new_);
}

size_t
MmapEnrollmentStore::overlayRecords() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return overlay_.size();
}

uint64_t
MmapEnrollmentStore::supersededRecords() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<uint64_t>(overlay_.size()) - overlay_new_;
}

void
MmapEnrollmentStore::put(uint64_t device_id,
                         const Challenge &challenge,
                         const Response &signature)
{
    EnrollmentRecord rec =
        EnrollmentStore::encode(device_id, challenge, signature);
    std::lock_guard<std::mutex> lock(mutex_);
    if (overlay_.count(device_id) == 0 && !inBase(device_id))
        ++overlay_new_;
    overlay_[device_id] = std::move(rec);
    // A re-enrollment invalidates any cached decode of the old
    // signature.
    cache_.invalidate(device_id);
}

bool
MmapEnrollmentStore::contains(uint64_t device_id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return overlay_.count(device_id) != 0 || inBase(device_id);
}

std::shared_ptr<const Response>
MmapEnrollmentStore::lookup(uint64_t device_id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cache_.get(device_id, [&]() -> std::optional<Response> {
        auto ov = overlay_.find(device_id);
        if (ov != overlay_.end())
            return EnrollmentStore::decode(ov->second);
        const uint64_t slot = view_.findSlot(device_id);
        if (slot == view_.records())
            return std::nullopt;
        return EnrollmentStore::decode(view_.record(slot));
    });
}

std::vector<uint64_t>
MmapEnrollmentStore::deviceIds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<uint64_t> ids;
    ids.reserve(static_cast<size_t>(view_.records()) + overlay_.size());
    for (uint64_t slot = 0; slot < view_.records(); ++slot)
        ids.push_back(view_.idAt(slot));
    for (const auto &[id, rec] : overlay_)
        if (!inBase(id))
            ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    return ids;
}

MmapEnrollmentStore::CompactStats
MmapEnrollmentStore::compactTo(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<uint64_t> overlay_ids;
    overlay_ids.reserve(overlay_.size());
    for (const auto &[id, rec] : overlay_)
        overlay_ids.push_back(id);
    std::sort(overlay_ids.begin(), overlay_ids.end());

    CompactStats stats;
    stats.base_records = view_.records();
    stats.overlay_records = overlay_.size();

    // Sorted two-pointer merge, overlay superseding base; streamed
    // through the writer so compaction memory stays flat at any
    // store size.
    EnrollmentStoreWriter writer(path, view_.populationSeed());
    size_t ov = 0;
    for (uint64_t slot = 0; slot < view_.records(); ++slot) {
        const uint64_t base_id = view_.idAt(slot);
        while (ov < overlay_ids.size() &&
               overlay_ids[ov] < base_id) {
            writer.append(overlay_.at(overlay_ids[ov]));
            ++ov;
        }
        if (ov < overlay_ids.size() && overlay_ids[ov] == base_id) {
            // Tombstoned base record: the overlay re-enrollment
            // supersedes it, so its bytes are the garbage this pass
            // sheds.
            writer.append(overlay_.at(overlay_ids[ov]));
            ++ov;
            ++stats.superseded;
            continue;
        }
        writer.append(view_.record(slot));
    }
    for (; ov < overlay_ids.size(); ++ov)
        writer.append(overlay_.at(overlay_ids[ov]));
    stats.records_written = writer.records();
    writer.finish();
    return stats;
}

// --- Synthetic population ----------------------------------------------------

uint64_t
writeSyntheticStore(const std::string &path, uint64_t population_seed,
                    uint64_t devices, int segment_bits,
                    int cells_per_record)
{
    CODIC_ASSERT(devices > 0);
    CODIC_ASSERT(segment_bits > 0);
    CODIC_ASSERT(cells_per_record > 0);
    EnrollmentStoreWriter writer(path, population_seed);
    std::vector<uint32_t> cells;
    for (uint64_t id = 0; id < devices; ++id) {
        // A fresh root per device keeps every record a pure function
        // of (population_seed, device_id), like DeviceFleet's own
        // seed derivation.
        Rng root(population_seed ^ 0x53594E54ull); // "SYNT"
        Rng rng = root.fork(id);
        cells.clear();
        for (int c = 0; c < cells_per_record; ++c)
            cells.push_back(static_cast<uint32_t>(
                rng.below(static_cast<uint64_t>(segment_bits))));
        std::sort(cells.begin(), cells.end());
        cells.erase(std::unique(cells.begin(), cells.end()),
                    cells.end());
        Response sig;
        sig.cells = cells;
        const Challenge ch{rng.next64() % (1u << 20),
                           segment_bits};
        writer.append(id, ch, sig);
    }
    const uint64_t written = writer.records();
    writer.finish();
    return written;
}

} // namespace codic
