#include "trace/trace_io.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/varint.h"

namespace codic {

namespace {

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

    // record_count, index_offset and max_addr (bytes 16-39) stay
    // zero until finish() patches them.
    std::vector<uint8_t> header(kFixedHeaderBytes);
    std::memcpy(header.data(), kTraceMagic, sizeof(kTraceMagic));
    storeLe<uint32_t>(&header[8], kTraceFormatVersion);
    header_bytes_ = static_cast<uint32_t>(
        kFixedHeaderBytes + meta_.scenario.size());
    storeLe<uint32_t>(&header[12], header_bytes_);
    storeLe<uint64_t>(&header[40], meta_.seed);
    storeLe<uint32_t>(&header[48], meta_.epoch_stride);
    storeLe<uint32_t>(&header[52],
                      static_cast<uint32_t>(meta_.scenario.size()));
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
    buffer_.push_back(static_cast<uint8_t>(record.kind));
    putVarint(buffer_, zigzagEncode(
        static_cast<int64_t>(record.tick - prev_tick_)));
    putVarint(buffer_, zigzagEncode(
        static_cast<int64_t>(record.addr - prev_addr_)));
    putVarint(buffer_, record.origin);
    if (record.kind == TraceOpKind::RowOp) {
        buffer_.push_back(record.mech);
        putVarint(buffer_, zigzagEncode(record.reserved_row));
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
    std::vector<uint8_t> index(8 + epochs_.size() * kEpochEntryBytes);
    storeLe<uint64_t>(index.data(), epochs_.size());
    for (size_t i = 0; i < epochs_.size(); ++i) {
        uint8_t *p = &index[8 + i * kEpochEntryBytes];
        storeLe(p, epochs_[i].file_offset);
        storeLe(p + 8, epochs_[i].start_record);
        storeLe(p + 16, epochs_[i].start_tick);
    }
    out_.write(reinterpret_cast<const char *>(index.data()),
               static_cast<std::streamsize>(index.size()));

    // Patch the counts the header had to leave blank.
    uint8_t patch[24];
    storeLe(patch, record_count_);
    storeLe(patch + 8, index_offset);
    storeLe(patch + 16, max_addr_);
    out_.seekp(16);
    out_.write(reinterpret_cast<const char *>(patch), sizeof(patch));
    out_.flush();
    if (!out_)
        fatal("trace writer: write to '", path_, "' failed");
    out_.close();
}

// --- TraceReader ------------------------------------------------------------

TraceReader::TraceReader(const std::string &path)
    : path_(path),
      file_(path, MappedFile::Access::Sequential, "trace reader"),
      stream_what_("trace reader: '" + path + "' record stream")
{
    const uint8_t *data = file_.data();
    const uint64_t size = file_.size();
    if (size < kFixedHeaderBytes)
        fatal("trace reader: '", path, "' is truncated (", size,
              " bytes, smaller than the ", kFixedHeaderBytes,
              "-byte header)");
    if (std::memcmp(data, kTraceMagic, sizeof(kTraceMagic)) != 0)
        fatal("trace reader: '", path,
              "' is not a CODIC trace (bad magic)");
    version_ = loadLe<uint32_t>(data + 8);
    if (version_ != kTraceFormatVersion)
        fatal("trace reader: '", path, "' has format version ",
              version_, " but this build reads version ",
              kTraceFormatVersion,
              "; re-record the trace with this build");
    header_bytes_ = loadLe<uint32_t>(data + 12);
    record_count_ = loadLe<uint64_t>(data + 16);
    index_offset_ = loadLe<uint64_t>(data + 24);
    max_addr_ = loadLe<uint64_t>(data + 32);
    meta_.seed = loadLe<uint64_t>(data + 40);
    meta_.epoch_stride = loadLe<uint32_t>(data + 48);
    const uint32_t scenario_len = loadLe<uint32_t>(data + 52);
    if (header_bytes_ != kFixedHeaderBytes + scenario_len ||
        header_bytes_ > size)
        fatal("trace reader: '", path,
              "' header is inconsistent (truncated or corrupt)");
    meta_.scenario.assign(
        reinterpret_cast<const char *>(data + kFixedHeaderBytes),
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
    if (index_offset_ < header_bytes_ || index_offset_ > size - 8)
        fatal("trace reader: '", path,
              "' index offset is out of bounds (truncated file?)");
    const uint64_t epoch_count = loadLe<uint64_t>(data + index_offset_);
    const uint64_t expected_epochs =
        record_count_ / meta_.epoch_stride +
        (record_count_ % meta_.epoch_stride != 0);
    if (epoch_count != expected_epochs ||
        epoch_count > (size - index_offset_ - 8) / kEpochEntryBytes)
        fatal("trace reader: '", path,
              "' epoch index is truncated or corrupt");
    epochs_.reserve(epoch_count);
    for (uint64_t i = 0; i < epoch_count; ++i) {
        const uint8_t *p =
            data + index_offset_ + 8 + i * kEpochEntryBytes;
        TraceEpoch e;
        e.file_offset = loadLe<uint64_t>(p);
        e.start_record = loadLe<uint64_t>(p + 8);
        e.start_tick = loadLe<uint64_t>(p + 16);
        if (e.file_offset < header_bytes_ ||
            e.file_offset > index_offset_ ||
            e.start_record != i * meta_.epoch_stride)
            fatal("trace reader: '", path,
                  "' epoch index entry ", i, " is corrupt");
        epochs_.push_back(e);
    }
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
    out += "file_bytes: " + std::to_string(file_.size()) + "\n";
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
TraceCursor::nextVarint()
{
    return getVarint(reader_->file_.data(), offset_,
                     reader_->index_offset_, reader_->stream_what_);
}

void
TraceCursor::releaseConsumedPages()
{
    // Drop fully consumed pages so streaming a trace keeps resident
    // memory flat regardless of its length. The pages re-fault from
    // the file if another cursor (or a seek) revisits them.
    const uint64_t page = 4096;
    const uint64_t consumed = (offset_ / page) * page;
    if (consumed > released_below_ &&
        consumed - released_below_ >= kReleaseGranularity) {
        reader_->file_.release(released_below_,
                               consumed - released_below_);
        released_below_ = consumed;
    }
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
    const uint8_t kind = reader_->file_.data()[offset_++];
    if (kind >= kTraceOpKinds)
        fatal("trace reader: '", reader_->path_,
              "' contains an unknown op kind ", int(kind),
              " (corrupt trace)");
    record.kind = static_cast<TraceOpKind>(kind);
    record.tick =
        prev_tick_ + static_cast<uint64_t>(zigzagDecode(nextVarint()));
    record.addr =
        prev_addr_ + static_cast<uint64_t>(zigzagDecode(nextVarint()));
    // Replay sizes its module from the header's max_addr, so an
    // address above it would fault inside the memory model.
    if (record.addr > reader_->max_addr_)
        fatal("trace reader: '", reader_->path_, "' record ",
              record_index_, " addresses byte ", record.addr,
              " above the header's max_addr ", reader_->max_addr_,
              " (corrupt trace)");
    record.origin = nextVarint();
    if (record.kind == TraceOpKind::RowOp) {
        if (offset_ >= reader_->index_offset_)
            fatal("trace reader: '", reader_->path_,
                  "' record stream ends mid-record (truncated or "
                  "corrupt trace)");
        record.mech = reader_->file_.data()[offset_++];
        if (record.mech >= kTraceRowOpMechanisms)
            fatal("trace reader: '", reader_->path_,
                  "' contains an unknown row-op mechanism ",
                  int(record.mech), " (corrupt trace)");
        record.reserved_row = zigzagDecode(nextVarint());
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
