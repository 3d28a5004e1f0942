#include "trace/recorder.h"

#include <memory>
#include <mutex>

#include "common/logging.h"
#include "trace/trace_io.h"

namespace codic {

namespace {

std::mutex recorder_mutex;
std::unique_ptr<TraceWriter> recorder_writer;

TraceRecord
recordOf(const MemTransaction &txn)
{
    TraceRecord r;
    switch (txn.kind) {
    case TxnKind::Read: r.kind = TraceOpKind::Read; break;
    case TxnKind::Write: r.kind = TraceOpKind::Write; break;
    case TxnKind::RowOp: r.kind = TraceOpKind::RowOp; break;
    }
    r.addr = txn.addr;
    r.tick = static_cast<uint64_t>(txn.arrival);
    r.origin = txn.origin;
    if (txn.kind == TxnKind::RowOp) {
        r.mech = static_cast<uint8_t>(txn.mech);
        r.reserved_row = txn.reserved_row;
    }
    return r;
}

} // namespace

void
TraceRecorder::start(const std::string &path, const TraceMeta &meta)
{
    std::lock_guard<std::mutex> lock(recorder_mutex);
    if (recorder_writer)
        fatal("trace recorder: a recording is already active");
    recorder_writer = std::make_unique<TraceWriter>(path, meta);
    active_.store(true, std::memory_order_release);
}

uint64_t
TraceRecorder::stop()
{
    std::lock_guard<std::mutex> lock(recorder_mutex);
    if (!recorder_writer)
        return 0;
    active_.store(false, std::memory_order_release);
    const uint64_t count = recorder_writer->recordCount();
    recorder_writer->finish();
    recorder_writer.reset();
    return count;
}

void
TraceRecorder::tap(const MemTransaction &txn)
{
    std::lock_guard<std::mutex> lock(recorder_mutex);
    // start()/stop() race benignly with the unlocked active() check;
    // re-check under the lock.
    if (!recorder_writer)
        return;
    recorder_writer->append(recordOf(txn));
}

} // namespace codic
