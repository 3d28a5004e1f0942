#include "sim/core.h"

#include <algorithm>

#include "common/logging.h"
#include "mem/address_map.h"

namespace codic {

const char *
deallocModeName(DeallocMode m)
{
    switch (m) {
      case DeallocMode::SoftwareZero: return "software-zero";
      case DeallocMode::CodicDet: return "CODIC";
      case DeallocMode::RowClone: return "RowClone";
      case DeallocMode::LisaClone: return "LISA-clone";
    }
    panic("unknown dealloc mode");
}

CoreCaches::CoreCaches(const CoreConfig &config, int64_t row_bytes)
    : l1_(config.l1_bytes, config.l1_ways),
      l2_(config.l2_bytes, config.l2_ways), row_bytes_(row_bytes),
      software_zero_(config.dealloc == DeallocMode::SoftwareZero)
{
}

uint8_t
CoreCaches::lineAccess(uint64_t addr, bool write, CacheRecording &out)
{
    using namespace cache_outcome;
    const auto r1 = l1_.access(addr, write);
    if (r1.hit)
        return kL1Hit;
    uint8_t code = 0;
    if (r1.writeback) {
        // The dirty L1 victim is written into L2 before the line's own
        // L2 lookup; memory sees it only if L2 evicts a dirty line.
        const auto wb = l2_.access(r1.victim_addr, true);
        if (wb.writeback) {
            out.victims.push_back(wb.victim_addr);
            code |= kL1VictimOut;
        }
    }
    const auto r2 = l2_.access(addr, write);
    if (r2.hit)
        return code | kL2Hit;
    if (r2.writeback) {
        out.victims.push_back(r2.victim_addr);
        code |= kL2VictimOut;
    }
    return code | kMiss;
}

void
CoreCaches::access(const TraceOp &op, uint64_t addr_base,
                   CacheRecording &out)
{
    const uint64_t addr = addr_base + op.addr;
    switch (op.type) {
      case OpType::Compute:
        break;
      case OpType::Load:
        out.outcomes.push_back(lineAccess(addr, false, out));
        break;
      case OpType::Store:
        out.outcomes.push_back(lineAccess(addr, true, out));
        break;
      case OpType::Flush: {
        bool dirty = l1_.flushLine(addr);
        dirty = l2_.flushLine(addr) || dirty;
        out.outcomes.push_back(dirty ? cache_outcome::kFlushDirty : 0);
        break;
      }
      case OpType::DeallocRegion:
        if (software_zero_) {
            // Inline zeroing loop: one store per line.
            for (uint64_t a = addr; a < addr + op.count; a += 64)
                out.outcomes.push_back(lineAccess(a, true, out));
        } else {
            // Stale cached copies of every row op's row are dropped.
            const uint64_t row = static_cast<uint64_t>(row_bytes_);
            for (uint64_t a = addr; a < addr + op.count; a += row) {
                l1_.invalidateRange(a, row);
                l2_.invalidateRange(a, row);
            }
        }
        break;
    }
}

CacheRecording
recordCachePass(const Workload &workload, const CoreConfig &config,
                int64_t row_bytes, uint64_t addr_base)
{
    CoreCaches caches(config, row_bytes);
    CacheRecording rec;
    rec.ops = workload.ops.size();
    rec.addr_base = addr_base;
    rec.software_zero = config.dealloc == DeallocMode::SoftwareZero;
    for (const TraceOp &op : workload.ops)
        caches.access(op, addr_base, rec);
    return rec;
}

InOrderCore::InOrderCore(MemoryService &mem, const CoreConfig &config,
                         uint64_t addr_base)
    : controller_(mem), config_(config), addr_base_(addr_base),
      caches_(config, mem.map().rowBytes()),
      cpu_cycle_ns_(1.0 / config.cpu_ghz),
      dram_tck_ns_(mem.dramConfig().tck_ns)
{
}

void
InOrderCore::bind(const Workload *workload, double start_ns)
{
    workload_ = workload;
    cursor_ = 0;
    now_ns_ = start_ns;
    stats_ = {};
    recording_ = nullptr;
}

void
InOrderCore::bind(const Workload *workload,
                  const CacheRecording &recording, double start_ns)
{
    CODIC_ASSERT(recording.ops == workload->ops.size() &&
                     recording.addr_base == addr_base_ &&
                     recording.software_zero ==
                         (config_.dealloc == DeallocMode::SoftwareZero),
                 "cache recording of another trace, region or mode");
    bind(workload, start_ns);
    recording_ = &recording;
    code_ = recording.outcomes.data();
    victim_ = recording.victims.data();
}

void
InOrderCore::advanceTo(Cycle dram_cycle)
{
    now_ns_ = std::max(now_ns_,
                       static_cast<double>(dram_cycle) * dram_tck_ns_);
}

void
InOrderCore::cpuCycles(double n)
{
    now_ns_ += n * cpu_cycle_ns_;
}

void
InOrderCore::submitWriteback(uint64_t victim_addr)
{
    // Fire-and-forget: the core never waits on a writeback's burst,
    // only on write-queue acceptance (which submit models), so the
    // ticket is retired unqueried.
    controller_.retire(controller_.submit(MemTransaction::makeWrite(
        victim_addr, nowCycles(), addr_base_)));
}

void
InOrderCore::timeAccess(uint64_t addr, double l1_cycles)
{
    using namespace cache_outcome;
    const uint8_t code = *code_++;
    cpuCycles(l1_cycles);
    if (code == kL1Hit)
        return;
    // The L1 victim's writeback leaves before the L2 lookup's cycles.
    if (code & kL1VictimOut)
        submitWriteback(*victim_++);
    cpuCycles(config_.l2_hit_cycles);
    if ((code & kLevelMask) == kL2Hit)
        return;
    if (code & kL2VictimOut)
        submitWriteback(*victim_++);
    // The access blocks the in-order core; a store miss fetches the
    // line first (write-allocate, read-for-ownership).
    advanceTo(controller_.complete(
        MemTransaction::makeRead(addr, nowCycles(), addr_base_)));
}

void
InOrderCore::timeStore(uint64_t addr)
{
    stats_.instructions += 8; // 8 B stores over a 64 B line.
    ++stats_.stores;
    timeAccess(addr, 8);
}

void
InOrderCore::timeFlush(uint64_t addr)
{
    stats_.instructions += 1;
    cpuCycles(2);
    if (*code_++ == cache_outcome::kFlushDirty) {
        // Write-queue back-pressure stalls the flush when full: the
        // core advances to the acceptance cycle, not the burst end.
        const Ticket t = controller_.submit(MemTransaction::makeWrite(
            addr, nowCycles(), addr_base_));
        advanceTo(controller_.acceptedAt(t));
        controller_.retire(t);
    }
}

void
InOrderCore::timeDealloc(uint64_t addr, uint64_t bytes)
{
    stats_.instructions += 1;
    if (config_.dealloc == DeallocMode::SoftwareZero) {
        for (uint64_t a = addr; a < addr + bytes; a += 64) {
            timeStore(a);
            ++stats_.dealloc_lines_zeroed;
        }
        return;
    }
    RowOpMechanism mech;
    switch (config_.dealloc) {
      case DeallocMode::CodicDet:
        mech = RowOpMechanism::CodicDet;
        break;
      case DeallocMode::RowClone:
        mech = RowOpMechanism::RowClone;
        break;
      case DeallocMode::LisaClone:
        mech = RowOpMechanism::LisaClone;
        break;
      default:
        panic("unreachable dealloc mode");
    }
    // One in-DRAM row operation per row (the cache half dropped the
    // rows' cached copies). The operation proceeds in DRAM without
    // blocking the core: the completion cycle is discarded (complete()
    // only forces the command onto the channel at its arrival cycle,
    // exactly like the pre-transaction controller).
    const uint64_t row_bytes =
        static_cast<uint64_t>(controller_.map().rowBytes());
    for (uint64_t a = addr; a < addr + bytes; a += row_bytes) {
        cpuCycles(config_.dealloc_cmd_cycles);
        controller_.complete(MemTransaction::makeRowOp(
            a, nowCycles(), mech, 0, addr_base_));
        ++stats_.dealloc_rows;
    }
}

void
InOrderCore::timeOp(const TraceOp &op)
{
    switch (op.type) {
      case OpType::Compute:
        stats_.instructions += op.count;
        cpuCycles(static_cast<double>(op.count));
        break;
      case OpType::Load:
        stats_.instructions += 1;
        ++stats_.loads;
        timeAccess(addr_base_ + op.addr, config_.l1_hit_cycles);
        break;
      case OpType::Store:
        timeStore(addr_base_ + op.addr);
        break;
      case OpType::Flush:
        timeFlush(addr_base_ + op.addr);
        break;
      case OpType::DeallocRegion:
        timeDealloc(addr_base_ + op.addr, op.count);
        break;
    }
}

void
InOrderCore::step()
{
    CODIC_ASSERT(!done());
    const TraceOp &op = workload_->ops[cursor_++];
    if (!recording_) {
        // Live: this op's cache half feeds its timing half.
        step_outcomes_.outcomes.clear();
        step_outcomes_.victims.clear();
        caches_.access(op, addr_base_, step_outcomes_);
        code_ = step_outcomes_.outcomes.data();
        victim_ = step_outcomes_.victims.data();
        timeOp(op);
        return;
    }
    timeOp(op);
    if (cursor_ == workload_->ops.size())
        CODIC_ASSERT(code_ == recording_->outcomes.data() +
                                  recording_->outcomes.size() &&
                         victim_ == recording_->victims.data() +
                                        recording_->victims.size(),
                     "cache recording out of step with its trace");
}

double
InOrderCore::run()
{
    while (!done())
        step();
    return now_ns_;
}

} // namespace codic
