#include "sim/trace.h"

#include <algorithm>

namespace codic {

uint64_t
Workload::deallocBytes() const
{
    uint64_t bytes = 0;
    for (const auto &op : ops)
        if (op.type == OpType::DeallocRegion)
            bytes += op.count;
    return bytes;
}

uint64_t
Workload::instructionCount() const
{
    uint64_t n = 0;
    for (const auto &op : ops) {
        switch (op.type) {
          case OpType::Compute:
            n += op.count;
            break;
          case OpType::Load:
          case OpType::Flush:
            n += 1;
            break;
          case OpType::Store:
            n += 8; // 8 B stores covering a 64 B line.
            break;
          case OpType::DeallocRegion:
            n += 1; // The syscall/command itself.
            break;
        }
    }
    return n;
}

uint64_t
Workload::extentBytes() const
{
    uint64_t end = 0;
    for (const auto &op : ops) {
        switch (op.type) {
          case OpType::Compute:
            break;
          case OpType::Load:
          case OpType::Store:
          case OpType::Flush:
            end = std::max(end, (op.addr | 63) + 1);
            break;
          case OpType::DeallocRegion:
            end = std::max(end, op.addr + op.count);
            break;
        }
    }
    return end;
}

} // namespace codic
