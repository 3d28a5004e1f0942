#include "trace/trace_io.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

#if defined(__unix__) || defined(__APPLE__)
#define CODIC_TRACE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace codic {

namespace {

// Fixed-width header/index integers are explicitly little-endian so
// a trace recorded on one host replays on any other.

void
putLe32(std::vector<uint8_t> &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
putLe64(std::vector<uint8_t> &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint32_t
getLe32(const uint8_t *p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(p[i]) << (8 * i);
    return v;
}

uint64_t
getLe64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
}

/** Zigzag map so small negative deltas stay short varints. */
uint64_t
zigzagEncode(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
}

int64_t
zigzagDecode(uint64_t v)
{
    return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

constexpr uint64_t kFixedHeaderBytes = 56;
constexpr uint64_t kEpochEntryBytes = 24;
constexpr uint64_t kReleaseGranularity = 1u << 20;

} // namespace

const char *
traceOpKindName(TraceOpKind kind)
{
    switch (kind) {
    case TraceOpKind::Load: return "load";
    case TraceOpKind::Store: return "store";
    case TraceOpKind::Flush: return "flush";
    case TraceOpKind::Read: return "read";
    case TraceOpKind::Write: return "write";
    case TraceOpKind::RowOp: return "rowop";
    }
    return "?";
}

// --- TraceWriter ------------------------------------------------------------

TraceWriter::TraceWriter(const std::string &path, const TraceMeta &meta)
    : path_(path), meta_(meta)
{
    if (meta_.epoch_stride == 0)
        fatal("trace writer: epoch_stride must be >= 1");
    out_.open(path, std::ios::binary | std::ios::trunc);
    if (!out_)
        fatal("trace writer: cannot create '", path, "'");

    std::vector<uint8_t> header;
    header.insert(header.end(), kTraceMagic,
                  kTraceMagic + sizeof(kTraceMagic));
    putLe32(header, kTraceFormatVersion);
    header_bytes_ = static_cast<uint32_t>(
        kFixedHeaderBytes + meta_.scenario.size());
    putLe32(header, header_bytes_);
    putLe64(header, 0); // record_count, patched by finish().
    putLe64(header, 0); // index_offset, patched by finish().
    putLe64(header, 0); // max_addr, patched by finish().
    putLe64(header, meta_.seed);
    putLe32(header, meta_.epoch_stride);
    putLe32(header, static_cast<uint32_t>(meta_.scenario.size()));
    header.insert(header.end(), meta_.scenario.begin(),
                  meta_.scenario.end());
    out_.write(reinterpret_cast<const char *>(header.data()),
               static_cast<std::streamsize>(header.size()));
    buffer_.reserve(1u << 16);
}

TraceWriter::~TraceWriter()
{
    try {
        finish();
    } catch (...) {
        // Destructors must not throw; an explicit finish() call is
        // the place to observe write failures.
    }
}

void
TraceWriter::putVarint(uint64_t v)
{
    while (v >= 0x80) {
        putByte(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    putByte(static_cast<uint8_t>(v));
}

void
TraceWriter::flushBuffer()
{
    if (buffer_.empty())
        return;
    out_.write(reinterpret_cast<const char *>(buffer_.data()),
               static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
}

void
TraceWriter::append(const TraceRecord &record)
{
    CODIC_ASSERT(!finished_);
    CODIC_ASSERT(static_cast<uint8_t>(record.kind) < kTraceOpKinds);
    if (record_count_ % meta_.epoch_stride == 0) {
        // Epoch boundary: reset delta state so the record is
        // self-contained, and remember where it starts.
        prev_tick_ = 0;
        prev_addr_ = 0;
        epochs_.push_back({header_bytes_ + payload_offset_,
                           record_count_, record.tick});
    }
    const size_t before = buffer_.size();
    putByte(static_cast<uint8_t>(record.kind));
    putVarint(zigzagEncode(
        static_cast<int64_t>(record.tick - prev_tick_)));
    putVarint(zigzagEncode(
        static_cast<int64_t>(record.addr - prev_addr_)));
    putVarint(record.origin);
    if (record.kind == TraceOpKind::RowOp) {
        putByte(record.mech);
        putVarint(zigzagEncode(record.reserved_row));
    }
    payload_offset_ += buffer_.size() - before;
    max_addr_ = std::max(max_addr_, record.addr);
    prev_tick_ = record.tick;
    prev_addr_ = record.addr;
    ++record_count_;
    if (buffer_.size() >= (1u << 16))
        flushBuffer();
}

void
TraceWriter::finish()
{
    if (finished_)
        return;
    finished_ = true;
    flushBuffer();

    const uint64_t index_offset = header_bytes_ + payload_offset_;
    std::vector<uint8_t> index;
    putLe64(index, static_cast<uint64_t>(epochs_.size()));
    for (const TraceEpoch &e : epochs_) {
        putLe64(index, e.file_offset);
        putLe64(index, e.start_record);
        putLe64(index, e.start_tick);
    }
    out_.write(reinterpret_cast<const char *>(index.data()),
               static_cast<std::streamsize>(index.size()));

    // Patch the counts the header had to leave blank.
    std::vector<uint8_t> patch;
    putLe64(patch, record_count_);
    putLe64(patch, index_offset);
    putLe64(patch, max_addr_);
    out_.seekp(16);
    out_.write(reinterpret_cast<const char *>(patch.data()),
               static_cast<std::streamsize>(patch.size()));
    out_.flush();
    if (!out_)
        fatal("trace writer: write to '", path_, "' failed");
    out_.close();
}

// --- TraceReader ------------------------------------------------------------

TraceReader::TraceReader(const std::string &path) : path_(path)
{
#ifdef CODIC_TRACE_HAVE_MMAP
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0)
        fatal("trace reader: cannot open '", path, "'");
    struct stat st;
    if (::fstat(fd_, &st) != 0) {
        ::close(fd_);
        fatal("trace reader: cannot stat '", path, "'");
    }
    size_ = static_cast<uint64_t>(st.st_size);
    if (size_ > 0) {
        void *map = ::mmap(nullptr, size_, PROT_READ, MAP_SHARED,
                           fd_, 0);
        if (map == MAP_FAILED) {
            ::close(fd_);
            fatal("trace reader: mmap of '", path, "' failed");
        }
        data_ = static_cast<const uint8_t *>(map);
        // The cursor streams front to back; tell the pager.
        ::madvise(const_cast<uint8_t *>(data_), size_,
                  MADV_SEQUENTIAL);
    }
#else
    fatal("trace reader: mmap is not available on this platform");
#endif

    if (size_ < kFixedHeaderBytes)
        fatal("trace reader: '", path, "' is truncated (", size_,
              " bytes, smaller than the ", kFixedHeaderBytes,
              "-byte header)");
    if (std::memcmp(data_, kTraceMagic, sizeof(kTraceMagic)) != 0)
        fatal("trace reader: '", path,
              "' is not a CODIC trace (bad magic)");
    version_ = getLe32(data_ + 8);
    if (version_ != kTraceFormatVersion)
        fatal("trace reader: '", path, "' has format version ",
              version_, " but this build reads version ",
              kTraceFormatVersion,
              "; re-record the trace with this build");
    header_bytes_ = getLe32(data_ + 12);
    record_count_ = getLe64(data_ + 16);
    index_offset_ = getLe64(data_ + 24);
    max_addr_ = getLe64(data_ + 32);
    meta_.seed = getLe64(data_ + 40);
    meta_.epoch_stride = getLe32(data_ + 48);
    const uint32_t scenario_len = getLe32(data_ + 52);
    if (header_bytes_ != kFixedHeaderBytes + scenario_len ||
        header_bytes_ > size_)
        fatal("trace reader: '", path,
              "' header is inconsistent (truncated or corrupt)");
    meta_.scenario.assign(
        reinterpret_cast<const char *>(data_ + kFixedHeaderBytes),
        scenario_len);
    if (meta_.epoch_stride == 0)
        fatal("trace reader: '", path, "' has a zero epoch stride");

    // An unpatched index offset means the writer never finished -
    // the file is an aborted recording, not a trace.
    if (index_offset_ == 0)
        fatal("trace reader: '", path,
              "' was never finalized (recording aborted?)");
    // Offsets and counts are untrusted: compare by subtraction and
    // division so no sum or product can wrap past the mapping.
    if (index_offset_ < header_bytes_ || index_offset_ > size_ - 8)
        fatal("trace reader: '", path,
              "' index offset is out of bounds (truncated file?)");
    const uint64_t epoch_count = getLe64(data_ + index_offset_);
    const uint64_t expected_epochs =
        record_count_ / meta_.epoch_stride +
        (record_count_ % meta_.epoch_stride != 0);
    if (epoch_count != expected_epochs ||
        epoch_count > (size_ - index_offset_ - 8) / kEpochEntryBytes)
        fatal("trace reader: '", path,
              "' epoch index is truncated or corrupt");
    epochs_.reserve(epoch_count);
    for (uint64_t i = 0; i < epoch_count; ++i) {
        const uint8_t *p =
            data_ + index_offset_ + 8 + i * kEpochEntryBytes;
        TraceEpoch e;
        e.file_offset = getLe64(p);
        e.start_record = getLe64(p + 8);
        e.start_tick = getLe64(p + 16);
        if (e.file_offset < header_bytes_ ||
            e.file_offset > index_offset_ ||
            e.start_record != i * meta_.epoch_stride)
            fatal("trace reader: '", path,
                  "' epoch index entry ", i, " is corrupt");
        epochs_.push_back(e);
    }
}

TraceReader::~TraceReader()
{
#ifdef CODIC_TRACE_HAVE_MMAP
    if (data_)
        ::munmap(const_cast<uint8_t *>(data_), size_);
    if (fd_ >= 0)
        ::close(fd_);
#endif
}

TraceCursor
TraceReader::cursor(bool streaming) const
{
    TraceCursor c(this, streaming);
    c.offset_ = header_bytes_;
    c.released_below_ = 0;
    return c;
}

TraceCursor
TraceReader::seekToRecord(uint64_t record_index) const
{
    if (record_index > record_count_)
        fatal("trace reader: seek to record ", record_index,
              " beyond the trace's ", record_count_, " records");
    // Seeks jump around; never a page-releasing cursor.
    TraceCursor c(this, false);
    if (epochs_.empty() || record_index == record_count_) {
        c.offset_ = index_offset_;
        c.record_index_ = record_count_;
        return c;
    }
    const size_t epoch = static_cast<size_t>(
        record_index / meta_.epoch_stride);
    c.moveToEpoch(epochs_[std::min(epoch, epochs_.size() - 1)]);
    TraceRecord skipped;
    while (c.record_index_ < record_index)
        c.next(skipped);
    return c;
}

TraceCursor
TraceReader::seekToTick(uint64_t tick) const
{
    // Last epoch whose first record is at or before `tick` (epoch
    // start ticks are non-decreasing for the monotone arrival
    // streams recording produces).
    TraceCursor c(this, false);
    if (epochs_.empty()) {
        c.offset_ = index_offset_;
        c.record_index_ = record_count_;
        return c;
    }
    size_t lo = 0;
    size_t hi = epochs_.size() - 1;
    while (lo < hi) {
        const size_t mid = (lo + hi + 1) / 2;
        if (epochs_[mid].start_tick <= tick)
            lo = mid;
        else
            hi = mid - 1;
    }
    c.moveToEpoch(epochs_[lo]);
    return c;
}

std::string
TraceReader::describe() const
{
    std::string out;
    out += "trace: " + path_ + "\n";
    out += "format_version: " + std::to_string(version_) + "\n";
    out += "scenario: " +
           (meta_.scenario.empty() ? std::string("(unknown)")
                                   : meta_.scenario) +
           "\n";
    out += "seed: " + std::to_string(meta_.seed) + "\n";
    out += "records: " + std::to_string(record_count_) + "\n";
    out += "epochs: " + std::to_string(epochs_.size()) +
           " (stride " + std::to_string(meta_.epoch_stride) + ")\n";
    out += "file_bytes: " + std::to_string(size_) + "\n";
    out += "max_addr: " + std::to_string(max_addr_) + "\n";
    if (record_count_ > 0) {
        // First tick from the index; last by decoding the final
        // epoch (bounded by one stride, never the whole file).
        TraceCursor c = seekToRecord(
            (epochs_.size() - 1) * meta_.epoch_stride);
        TraceRecord r;
        uint64_t last_tick = epochs_.back().start_tick;
        uint64_t counts[kTraceOpKinds] = {};
        while (c.next(r))
            last_tick = std::max(last_tick, r.tick);
        TraceCursor all = cursor(false);
        while (all.next(r))
            ++counts[static_cast<size_t>(r.kind)];
        out += "first_tick: " +
               std::to_string(epochs_.front().start_tick) + "\n";
        out += "last_tick: " + std::to_string(last_tick) + "\n";
        out += "ops:";
        for (uint8_t k = 0; k < kTraceOpKinds; ++k)
            if (counts[k] > 0)
                out += std::string(" ") +
                       traceOpKindName(static_cast<TraceOpKind>(k)) +
                       "=" + std::to_string(counts[k]);
        out += "\n";
    }
    return out;
}

// --- TraceCursor ------------------------------------------------------------

void
TraceCursor::moveToEpoch(const TraceEpoch &epoch)
{
    offset_ = epoch.file_offset;
    record_index_ = epoch.start_record;
    prev_tick_ = 0;
    prev_addr_ = 0;
}

uint64_t
TraceCursor::getVarint()
{
    uint64_t v = 0;
    int shift = 0;
    while (true) {
        if (offset_ >= reader_->index_offset_)
            fatal("trace reader: '", reader_->path_,
                  "' record stream ends mid-record (truncated or "
                  "corrupt trace)");
        const uint8_t b = reader_->data()[offset_++];
        v |= static_cast<uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return v;
        shift += 7;
        if (shift >= 64)
            fatal("trace reader: '", reader_->path_,
                  "' contains an overlong varint (corrupt trace)");
    }
}

void
TraceCursor::releaseConsumedPages()
{
#ifdef CODIC_TRACE_HAVE_MMAP
    // Drop fully consumed pages so streaming a trace keeps resident
    // memory flat regardless of its length. The pages re-fault from
    // the file if another cursor (or a seek) revisits them.
    const uint64_t page = 4096;
    const uint64_t consumed = (offset_ / page) * page;
    if (consumed > released_below_ &&
        consumed - released_below_ >= kReleaseGranularity) {
        ::madvise(const_cast<uint8_t *>(reader_->data() +
                                        released_below_),
                  consumed - released_below_, MADV_DONTNEED);
        released_below_ = consumed;
    }
#endif
}

bool
TraceCursor::next(TraceRecord &record)
{
    if (record_index_ >= reader_->record_count_)
        return false;
    if (record_index_ % reader_->meta_.epoch_stride == 0) {
        prev_tick_ = 0;
        prev_addr_ = 0;
    }
    if (offset_ >= reader_->index_offset_)
        fatal("trace reader: '", reader_->path_,
              "' record stream is shorter than its header's record "
              "count (truncated trace)");
    const uint8_t kind = reader_->data()[offset_++];
    if (kind >= kTraceOpKinds)
        fatal("trace reader: '", reader_->path_,
              "' contains an unknown op kind ", int(kind),
              " (corrupt trace)");
    record.kind = static_cast<TraceOpKind>(kind);
    record.tick =
        prev_tick_ + static_cast<uint64_t>(zigzagDecode(getVarint()));
    record.addr =
        prev_addr_ + static_cast<uint64_t>(zigzagDecode(getVarint()));
    record.origin = getVarint();
    if (record.kind == TraceOpKind::RowOp) {
        if (offset_ >= reader_->index_offset_)
            fatal("trace reader: '", reader_->path_,
                  "' record stream ends mid-record (truncated or "
                  "corrupt trace)");
        record.mech = reader_->data()[offset_++];
        if (record.mech >= kTraceRowOpMechanisms)
            fatal("trace reader: '", reader_->path_,
                  "' contains an unknown row-op mechanism ",
                  int(record.mech), " (corrupt trace)");
        record.reserved_row = zigzagDecode(getVarint());
    } else {
        record.mech = 0;
        record.reserved_row = 0;
    }
    prev_tick_ = record.tick;
    prev_addr_ = record.addr;
    ++record_index_;
    if (streaming_)
        releaseConsumedPages();
    return true;
}

} // namespace codic
