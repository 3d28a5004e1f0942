#include "fleet/store_mmap.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/logging.h"
#include "common/rng.h"

#if defined(__unix__) || defined(__APPLE__)
#define CODIC_STORE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace codic {

namespace {

// v2 binary layout constants (see enrollment_store.cc for the full
// layout comment): 40-byte header, 28-byte fixed record prefix,
// 16-byte index entries.
constexpr char kMagic[8] = {'C', 'O', 'D', 'I', 'C', 'E', 'N', 'R'};
constexpr uint64_t kHeaderBytes = 8 + 4 + 4 + 8 + 8 + 8;
constexpr uint64_t kRecordFixedBytes = 8 + 8 + 4 + 4 + 4;
constexpr uint64_t kIndexEntryBytes = 16;

template <typename T>
void
putLe(std::ostream &out, T v)
{
    uint8_t bytes[sizeof(T)];
    for (size_t i = 0; i < sizeof(T); ++i)
        bytes[i] = static_cast<uint8_t>(v >> (8 * i));
    out.write(reinterpret_cast<const char *>(bytes), sizeof(T));
}

template <typename T>
T
loadLe(const uint8_t *p)
{
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i)
        v |= static_cast<T>(p[i]) << (8 * i);
    return v;
}

uint64_t
recordBytes(const EnrollmentRecord &rec)
{
    return kRecordFixedBytes + rec.blob.size();
}

void
writeRecord(std::ostream &out, const EnrollmentRecord &rec)
{
    putLe<uint64_t>(out, rec.device_id);
    putLe<uint64_t>(out, rec.segment_id);
    putLe<uint32_t>(out, rec.segment_bits);
    putLe<uint32_t>(out, rec.cell_count);
    putLe<uint32_t>(out, static_cast<uint32_t>(rec.blob.size()));
    out.write(reinterpret_cast<const char *>(rec.blob.data()),
              static_cast<std::streamsize>(rec.blob.size()));
}

} // namespace

// --- EnrollmentStoreWriter ---------------------------------------------------

EnrollmentStoreWriter::EnrollmentStoreWriter(const std::string &path,
                                             uint64_t population_seed)
    : path_(path), index_path_(path + ".idx"),
      out_(path, std::ios::binary),
      index_out_(index_path_, std::ios::binary)
{
    if (!out_)
        fatal("enrollment store writer: cannot open '", path_,
              "' for writing");
    if (!index_out_)
        fatal("enrollment store writer: cannot open '", index_path_,
              "' for writing");
    out_.write(kMagic, sizeof(kMagic));
    putLe<uint32_t>(out_, EnrollmentStore::kFormatVersion);
    putLe<uint32_t>(out_, 0);
    putLe<uint64_t>(out_, population_seed);
    // Record count and index offset are patched by finish().
    putLe<uint64_t>(out_, 0);
    putLe<uint64_t>(out_, 0);
    offset_ = kHeaderBytes;
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
    writeRecord(out_, record);
    putLe<uint64_t>(index_out_, record.device_id);
    putLe<uint64_t>(index_out_, offset_);
    offset_ += recordBytes(record);
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
    // chunks, then patch the header fields left blank.
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
    out_.seekp(24);
    putLe<uint64_t>(out_, count_);
    putLe<uint64_t>(out_, offset_);
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
      cache_capacity_(std::max<size_t>(1, cache_capacity)),
      index_(cache_capacity_)
{
#ifdef CODIC_STORE_HAVE_MMAP
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0)
        fatal("mmap enrollment store: cannot open '", path, "'");
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
        ::close(fd_);
        fatal("mmap enrollment store: cannot stat '", path, "'");
    }
    size_ = static_cast<uint64_t>(st.st_size);
    if (size_ > 0) {
        void *map = ::mmap(nullptr, size_, PROT_READ, MAP_SHARED,
                           fd_, 0);
        if (map == MAP_FAILED) {
            ::close(fd_);
            fatal("mmap enrollment store: mmap of '", path,
                  "' failed");
        }
        data_ = static_cast<const uint8_t *>(map);
        // Serving access is index binary search plus point record
        // reads: tell the pager not to waste readahead.
        ::madvise(const_cast<uint8_t *>(data_), size_, MADV_RANDOM);
    }
#else
    fatal("mmap enrollment store: mmap is not available on this "
          "platform");
#endif

    if (size_ < kHeaderBytes)
        fatal("mmap enrollment store: '", path, "' is truncated (",
              size_, " bytes, smaller than the ", kHeaderBytes,
              "-byte header)");
    if (std::memcmp(data_, kMagic, sizeof(kMagic)) != 0)
        fatal("mmap enrollment store: '", path,
              "' is not a CODIC enrollment store (bad magic)");
    const uint32_t version = loadLe<uint32_t>(data_ + 8);
    if (version != EnrollmentStore::kFormatVersion)
        fatal("mmap enrollment store: '", path, "' has format v",
              version, " but the serving path needs the indexed v",
              EnrollmentStore::kFormatVersion,
              " format; re-save the store with this build");
    population_seed_ = loadLe<uint64_t>(data_ + 16);
    count_ = loadLe<uint64_t>(data_ + 24);
    index_offset_ = loadLe<uint64_t>(data_ + 32);
    if (index_offset_ < kHeaderBytes || index_offset_ > size_ ||
        count_ > (size_ - index_offset_) / kIndexEntryBytes ||
        index_offset_ + count_ * kIndexEntryBytes != size_)
        fatal("mmap enrollment store: '", path,
              "' has a corrupt index (", count_,
              " records, index at ", index_offset_, ", file is ",
              size_, " bytes)");
    if (count_ * kRecordFixedBytes > index_offset_ - kHeaderBytes)
        fatal("mmap enrollment store: '", path, "' declares ", count_,
              " records but only ", index_offset_ - kHeaderBytes,
              " record bytes");
}

MmapEnrollmentStore::~MmapEnrollmentStore()
{
#ifdef CODIC_STORE_HAVE_MMAP
    if (data_)
        ::munmap(const_cast<uint8_t *>(data_), size_);
    if (fd_ >= 0)
        ::close(fd_);
#endif
}

uint64_t
MmapEnrollmentStore::findSlot(uint64_t device_id) const
{
    const uint8_t *index = data_ + index_offset_;
    uint64_t lo = 0;
    uint64_t hi = count_;
    while (lo < hi) {
        const uint64_t mid = lo + (hi - lo) / 2;
        const uint64_t id =
            loadLe<uint64_t>(index + mid * kIndexEntryBytes);
        if (id < device_id)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo < count_ &&
        loadLe<uint64_t>(index + lo * kIndexEntryBytes) == device_id)
        return lo;
    return count_;
}

EnrollmentRecord
MmapEnrollmentStore::baseRecord(uint64_t slot) const
{
    const uint8_t *index = data_ + index_offset_;
    const uint64_t offset =
        loadLe<uint64_t>(index + slot * kIndexEntryBytes + 8);
    // Compare by subtraction: an offset near 2^64 must not wrap past
    // the check (the constructor guarantees index_offset_ leaves room
    // for at least one fixed record part).
    if (offset < kHeaderBytes ||
        offset > index_offset_ - kRecordFixedBytes)
        fatal("mmap enrollment store: '", path_, "' index slot ",
              slot, " has out-of-range record offset ", offset);
    const uint8_t *p = data_ + offset;
    EnrollmentRecord rec;
    rec.device_id = loadLe<uint64_t>(p);
    rec.segment_id = loadLe<uint64_t>(p + 8);
    rec.segment_bits = loadLe<uint32_t>(p + 16);
    rec.cell_count = loadLe<uint32_t>(p + 20);
    const uint32_t blob_len = loadLe<uint32_t>(p + 24);
    if (rec.cell_count > blob_len ||
        blob_len > index_offset_ - offset - kRecordFixedBytes)
        fatal("mmap enrollment store: '", path_,
              "' has a corrupt record at offset ", offset,
              " (cell count ", rec.cell_count, ", blob length ",
              blob_len, ")");
    rec.blob.assign(p + kRecordFixedBytes,
                    p + kRecordFixedBytes + blob_len);
    return rec;
}

size_t
MmapEnrollmentStore::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<size_t>(count_ + overlay_new_);
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
    if (overlay_.count(device_id) == 0 &&
        findSlot(device_id) == count_)
        ++overlay_new_;
    overlay_[device_id] = std::move(rec);
    // A re-enrollment invalidates any cached decode of the old
    // signature.
    if (index_.erase(device_id))
        cache_.erase(device_id);
}

bool
MmapEnrollmentStore::contains(uint64_t device_id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return overlay_.count(device_id) != 0 ||
           findSlot(device_id) != count_;
}

std::shared_ptr<const Response>
MmapEnrollmentStore::lookup(uint64_t device_id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto hit = cache_.find(device_id);
    if (hit != cache_.end()) {
        ++hits_;
        index_.touch(device_id);
        return hit->second;
    }
    std::shared_ptr<const Response> decoded;
    auto ov = overlay_.find(device_id);
    if (ov != overlay_.end()) {
        decoded = std::make_shared<const Response>(
            EnrollmentStore::decode(ov->second));
    } else {
        const uint64_t slot = findSlot(device_id);
        if (slot == count_)
            return nullptr;
        decoded = std::make_shared<const Response>(
            EnrollmentStore::decode(baseRecord(slot)));
    }
    ++misses_;
    index_.touch(device_id);
    cache_[device_id] = decoded;
    while (const auto victim = index_.evictIfOver())
        cache_.erase(*victim);
    return decoded;
}

std::vector<uint64_t>
MmapEnrollmentStore::deviceIds() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<uint64_t> ids;
    ids.reserve(static_cast<size_t>(count_) + overlay_.size());
    const uint8_t *index = data_ + index_offset_;
    for (uint64_t slot = 0; slot < count_; ++slot)
        ids.push_back(
            loadLe<uint64_t>(index + slot * kIndexEntryBytes));
    for (const auto &[id, rec] : overlay_)
        if (findSlot(id) == count_)
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
    stats.base_records = count_;
    stats.overlay_records = overlay_.size();

    // Sorted two-pointer merge, overlay superseding base; streamed
    // through the writer so compaction memory stays flat at any
    // store size.
    EnrollmentStoreWriter writer(path, population_seed_);
    const uint8_t *index = data_ + index_offset_;
    size_t ov = 0;
    for (uint64_t slot = 0; slot < count_; ++slot) {
        const uint64_t base_id =
            loadLe<uint64_t>(index + slot * kIndexEntryBytes);
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
        writer.append(baseRecord(slot));
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
