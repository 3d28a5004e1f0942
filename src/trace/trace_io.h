/**
 * @file
 * Trace serialization: a buffered TraceWriter and an mmap-backed
 * streaming TraceReader over the format in trace_format.h.
 *
 * The reader maps the file read-only and decodes records on demand
 * through a cursor, so memory stays O(1) in the trace length: as the
 * cursor streams forward it releases the pages it has fully consumed
 * (madvise(MADV_DONTNEED)), keeping resident memory flat across a
 * 10^7-record trace. The epoch index in the file footer makes
 * seekToRecord / seekToTick a binary search plus a bounded forward
 * decode instead of a scan from byte zero.
 *
 * Both ends are loud about corruption: bad magic, a format-version
 * mismatch, a truncated header or record stream, an out-of-bounds
 * index, an overlong varint, and a record above the header's
 * max_addr all raise FatalError with an actionable message (never a
 * misparse). The mapping and the byte codecs are the ones the
 * enrollment store uses (common/mapped_file.h, common/varint.h).
 */

#ifndef CODIC_TRACE_TRACE_IO_H
#define CODIC_TRACE_TRACE_IO_H

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/mapped_file.h"
#include "trace/trace_format.h"

namespace codic {

/** One footer-index entry (epoch start). */
struct TraceEpoch
{
    uint64_t file_offset = 0;  //!< First record byte of the epoch.
    uint64_t start_record = 0; //!< Record index of that record.
    uint64_t start_tick = 0;   //!< Absolute tick of that record.
};

/**
 * Streaming trace writer. Records append in call order; finish()
 * (or the destructor) writes the epoch index and patches the header
 * counts. Output is a pure function of (meta, record sequence), so
 * rewriting a decoded trace reproduces the input byte-for-byte.
 */
class TraceWriter
{
  public:
    /** @throws FatalError when the file cannot be created. */
    TraceWriter(const std::string &path, const TraceMeta &meta);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one record (ticks need not be monotone). */
    void append(const TraceRecord &record);

    /** Records appended so far. */
    uint64_t recordCount() const { return record_count_; }

    /**
     * Flush buffered records, write the epoch index, and patch the
     * header. Idempotent; run by the destructor if not called.
     * @throws FatalError when the filesystem write fails.
     */
    void finish();

  private:
    void flushBuffer();

    std::string path_;
    std::ofstream out_;
    TraceMeta meta_;
    std::vector<uint8_t> buffer_;
    std::vector<TraceEpoch> epochs_;
    uint64_t max_addr_ = 0;
    uint64_t record_count_ = 0;
    uint64_t payload_offset_ = 0; //!< Bytes of records written+buffered.
    uint32_t header_bytes_ = 0;
    uint64_t prev_tick_ = 0;
    uint64_t prev_addr_ = 0;
    bool finished_ = false;
};

class TraceReader;

/**
 * Streaming decode position inside a mapped trace. Cursors are
 * cheap; several can stream one reader concurrently (the reader is
 * immutable after construction), but page releases only happen on
 * the cursor the reader handed out with streaming = true.
 */
class TraceCursor
{
  public:
    /**
     * Decode the next record. @return false at end of trace.
     * @throws FatalError when the stream ends mid-record, or holds an
     *         overlong varint, an unknown kind or mechanism, or an
     *         address above the header's max_addr (truncated or
     *         corrupt file).
     */
    bool next(TraceRecord &record);

    /** Index of the record next() will produce. */
    uint64_t position() const { return record_index_; }

  private:
    friend class TraceReader;

    TraceCursor(const TraceReader *reader, bool streaming)
        : reader_(reader), streaming_(streaming)
    {
    }

    void moveToEpoch(const TraceEpoch &epoch);
    uint64_t nextVarint();
    void releaseConsumedPages();

    const TraceReader *reader_ = nullptr;
    uint64_t offset_ = 0;       //!< Next undecoded byte.
    uint64_t record_index_ = 0; //!< Next record's index.
    uint64_t prev_tick_ = 0;
    uint64_t prev_addr_ = 0;
    bool streaming_ = false;
    uint64_t released_below_ = 0; //!< Pages below this are dropped.
};

/**
 * mmap-backed trace reader: validates the header eagerly, decodes
 * records lazily. The mapping is read-only and shared, so a reader
 * never copies the file; a cursor() streams it front to back in
 * O(1) resident memory, and seek uses the epoch index.
 */
class TraceReader
{
  public:
    /**
     * Map and validate a trace file.
     * @throws FatalError on open/map failure, bad magic, version
     *         mismatch, or a header/index that overruns the file.
     */
    explicit TraceReader(const std::string &path);

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /** Header provenance (scenario, seed, epoch stride). */
    const TraceMeta &meta() const { return meta_; }

    /** On-disk format version (always kTraceFormatVersion today). */
    uint32_t version() const { return version_; }

    /** Records in the trace. */
    uint64_t recordCount() const { return record_count_; }

    /**
     * Highest byte address any record touches (0 for an empty
     * trace): replay sizes its DRAM module to cover it, so a trace
     * recorded on a large module replays without address faults.
     * Cursors reject a record above it.
     */
    uint64_t maxAddr() const { return max_addr_; }

    /** Total file size in bytes. */
    uint64_t fileBytes() const { return file_.size(); }

    /** The footer epoch index (one entry per epoch). */
    const std::vector<TraceEpoch> &epochs() const { return epochs_; }

    /**
     * Cursor at record 0. With streaming = true the cursor releases
     * fully consumed pages as it advances (flat RSS on end-to-end
     * streams); seeks backwards re-fault them transparently.
     */
    TraceCursor cursor(bool streaming = true) const;

    /**
     * Cursor positioned at `record_index` via the epoch index:
     * O(log epochs) search + at most one epoch of forward decode.
     * @throws FatalError when record_index > recordCount().
     */
    TraceCursor seekToRecord(uint64_t record_index) const;

    /**
     * Cursor at the first record of the last epoch whose start tick
     * is <= `tick` (fast-forward; records before it are skipped).
     */
    TraceCursor seekToTick(uint64_t tick) const;

    /** Human-readable header summary (codic_run --trace-info). */
    std::string describe() const;

  private:
    friend class TraceCursor;

    std::string path_;
    MappedFile file_;
    std::string stream_what_; //!< Error prefix for record decoding.

    uint32_t version_ = 0;
    uint32_t header_bytes_ = 0;
    uint64_t record_count_ = 0;
    uint64_t max_addr_ = 0;
    uint64_t index_offset_ = 0;
    TraceMeta meta_;
    std::vector<TraceEpoch> epochs_;
};

} // namespace codic

#endif // CODIC_TRACE_TRACE_IO_H
