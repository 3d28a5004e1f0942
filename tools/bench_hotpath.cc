/**
 * @file
 * Wall-clock microbenchmark of the simulator hot path, feeding the
 * bench_report.py throughput gate.
 *
 * Two loops, both pure MemoryService API so the numbers track the
 * controller/channel implementation and nothing else:
 *
 *  - closed_loop: a submit -> poll -> complete closed loop over one
 *    FR-FCFS controller (batched preset): a 32-deep in-flight read
 *    ring, fire-and-forget writebacks retired on submission, row ops
 *    sprinkled in, periodic poll() sweeps. It times the queued path:
 *    reads always wait behind others. The secure-deallocation and
 *    TCG evaluations' in-order cores block on one read at a time,
 *    which MemoryService::complete() serves without a ticket; this
 *    loop does not exercise that path.
 *
 *  - replay: the fleet ReplayCursor interleave - slices of cursors
 *    over distinct banks, each keeping one transaction in flight
 *    stamped with its local clock, harvested in ascending local-clock
 *    order, exactly the AuthService::execute slice loop.
 *
 * Output is JSON (schema codic-hotpath-v1): per loop the transaction
 * count, the median wall seconds over --repeats runs, and the derived
 * transactions/sec. Wall-clock is machine-dependent; CI gates it with
 * a generous tolerance against a pinned same-runner baseline.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dram/system.h"
#include "mem/transaction.h"

namespace {

using codic::Cycle;
using codic::DramConfig;
using codic::DramSystem;
using codic::MemTransaction;
using codic::Rng;
using codic::RowOpMechanism;
using codic::SchedulerPolicy;
using codic::Ticket;
using codic::kInvalidTicket;

double
wallSeconds(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Closed submit -> poll -> complete loop: returns transactions
 * executed. A 32-deep read ring keeps completions chasing
 * submissions, writes are fire-and-forget retired, and every 64th
 * transaction polls.
 */
uint64_t
runClosedLoop(uint64_t txns)
{
    DramConfig cfg = DramConfig::ddr3_1600(1024, 1);
    cfg.scheduler = SchedulerPolicy::preset("batched");
    DramSystem sys(cfg);

    const uint64_t rows =
        static_cast<uint64_t>(cfg.totalRows());
    const uint64_t row_bytes =
        static_cast<uint64_t>(cfg.row_bytes);
    Rng rng(0x4015ECull);

    std::vector<Ticket> ring;
    const size_t ring_depth = 32;
    ring.reserve(ring_depth);
    size_t ring_head = 0;

    Cycle now = 0;
    uint64_t executed = 0;
    for (uint64_t i = 0; i < txns; ++i) {
        const uint64_t addr =
            (rng.next64() % rows) * row_bytes +
            (rng.next64() % 8) * 64;
        const uint32_t kind_pick = static_cast<uint32_t>(i % 10);
        if (kind_pick < 5) {
            // Read with bounded in-flight window.
            if (ring.size() < ring_depth) {
                ring.push_back(sys.submit(
                    MemTransaction::makeRead(addr, now)));
            } else {
                sys.completionOf(ring[ring_head]);
                ring[ring_head] =
                    sys.submit(MemTransaction::makeRead(addr, now));
                ring_head = (ring_head + 1) % ring_depth;
            }
        } else if (kind_pick < 9) {
            // Fire-and-forget writeback: bookkeeping must stay
            // bounded (see test_mem ticket-retire coverage).
            sys.retire(sys.submit(
                MemTransaction::makeWrite(addr, now)));
        } else {
            sys.retire(sys.submit(MemTransaction::makeRowOp(
                addr - addr % row_bytes, now,
                RowOpMechanism::CodicDet)));
        }
        ++executed;
        now += 4;
        if (i % 64 == 63)
            sys.poll(now);
    }
    for (const Ticket t : ring)
        sys.completionOf(t);
    sys.drainAll();
    return executed;
}

/**
 * The fleet ReplayCursor interleave: `slices` slices of `width`
 * cursors (distinct banks), each cursor an eval footprint of `passes`
 * passes of one CODIC row op plus a full-row burst read sweep. One
 * transaction in flight per cursor, harvested in ascending
 * local-clock order - the AuthService::execute slice loop verbatim.
 * Returns transactions executed.
 */
uint64_t
runReplayLoop(uint64_t slices, int width, int passes)
{
    DramConfig cfg = DramConfig::ddr3_1600(1024, 1);
    cfg.scheduler = SchedulerPolicy::preset("batched");
    DramSystem sys(cfg);

    const int bursts = static_cast<int>(
        std::min<int64_t>(cfg.row_bytes / cfg.burst_bytes,
                          cfg.columns));
    const uint64_t rows = static_cast<uint64_t>(cfg.totalRows());
    const uint64_t row_bytes = static_cast<uint64_t>(cfg.row_bytes);

    struct Cursor
    {
        uint64_t base = 0;
        int passes_left = 0;
        int reads_left = 0;
        int read_idx = 0;
        Cycle now = 0;
        Ticket in_flight = kInvalidTicket;

        bool done() const
        {
            return passes_left == 0 && reads_left == 0;
        }

        void submitNext(DramSystem &sys, int bursts)
        {
            if (reads_left == 0) {
                in_flight = sys.submit(MemTransaction::makeRowOp(
                    base, now, RowOpMechanism::CodicDet));
                --passes_left;
                reads_left = bursts;
                read_idx = 0;
                return;
            }
            in_flight = sys.submit(MemTransaction::makeRead(
                base + static_cast<uint64_t>(read_idx) * 64, now));
            ++read_idx;
            --reads_left;
        }
    };

    std::vector<Cursor> cursors(static_cast<size_t>(width));
    uint64_t executed = 0;
    Cycle slice_start = 0;
    for (uint64_t s = 0; s < slices; ++s) {
        for (int k = 0; k < width; ++k) {
            Cursor &c = cursors[static_cast<size_t>(k)];
            c = Cursor{};
            // Distinct banks per slice: consecutive global rows walk
            // banks under the default RoBaCo map.
            c.base = ((s * static_cast<uint64_t>(width) +
                       static_cast<uint64_t>(k)) %
                      rows) *
                     row_bytes;
            c.passes_left = passes;
            c.now = slice_start;
        }
        for (auto &c : cursors) {
            if (!c.done()) {
                c.submitNext(sys, bursts);
                ++executed;
            }
        }
        while (true) {
            Cursor *next = nullptr;
            for (auto &c : cursors)
                if (c.in_flight != kInvalidTicket &&
                    (!next || c.now < next->now))
                    next = &c;
            if (!next)
                break;
            next->now = sys.completionOf(next->in_flight);
            next->in_flight = kInvalidTicket;
            if (!next->done()) {
                next->submitNext(sys, bursts);
                ++executed;
            }
        }
        for (const auto &c : cursors)
            slice_start = std::max(slice_start, c.now);
    }
    return executed;
}

struct LoopResult
{
    uint64_t transactions = 0;
    double median_wall_s = 0.0;
    std::vector<double> wall_s;

    double txnPerSec() const
    {
        return median_wall_s > 0.0
                   ? static_cast<double>(transactions) / median_wall_s
                   : 0.0;
    }
};

template <typename Fn>
LoopResult
timeLoop(int repeats, Fn &&fn)
{
    LoopResult r;
    for (int i = 0; i < repeats; ++i) {
        const auto start = std::chrono::steady_clock::now();
        r.transactions = fn();
        r.wall_s.push_back(wallSeconds(start));
    }
    std::vector<double> sorted = r.wall_s;
    std::sort(sorted.begin(), sorted.end());
    r.median_wall_s = sorted[sorted.size() / 2];
    return r;
}

void
emitLoop(std::ostream &os, const char *name, const LoopResult &r,
         bool last)
{
    char buf[64];
    os << "    \"" << name << "\": {\n"
       << "      \"transactions\": " << r.transactions << ",\n";
    std::snprintf(buf, sizeof buf, "%.6f", r.median_wall_s);
    os << "      \"median_wall_s\": " << buf << ",\n";
    std::snprintf(buf, sizeof buf, "%.1f", r.txnPerSec());
    os << "      \"txn_per_sec\": " << buf << ",\n"
       << "      \"wall_s\": [";
    for (size_t i = 0; i < r.wall_s.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.6f", r.wall_s[i]);
        os << (i ? ", " : "") << buf;
    }
    os << "]\n    }" << (last ? "\n" : ",\n");
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t txns = 400000;
    uint64_t slices = 200;
    int width = 8;
    int passes = 2;
    int repeats = 3;
    std::string out_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "bench_hotpath: " << flag
                          << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--txns")
            txns = std::strtoull(need("--txns"), nullptr, 10);
        else if (arg == "--slices")
            slices = std::strtoull(need("--slices"), nullptr, 10);
        else if (arg == "--width")
            width = std::atoi(need("--width"));
        else if (arg == "--passes")
            passes = std::atoi(need("--passes"));
        else if (arg == "--repeats")
            repeats = std::atoi(need("--repeats"));
        else if (arg == "--out")
            out_path = need("--out");
        else if (arg == "--help" || arg == "-h") {
            std::cout
                << "usage: bench_hotpath [--txns N] [--slices N]\n"
                << "    [--width K] [--passes P] [--repeats R]\n"
                << "    [--out FILE]\n"
                << "Times the submit->poll->complete closed loop and\n"
                << "the fleet ReplayCursor interleave; reports\n"
                << "median-of-R transactions/sec as JSON.\n";
            return 0;
        } else {
            std::cerr << "bench_hotpath: unknown flag " << arg
                      << "\n";
            return 2;
        }
    }
    if (repeats < 1 || width < 1 || passes < 1) {
        std::cerr << "bench_hotpath: repeats/width/passes must be "
                  << ">= 1\n";
        return 2;
    }

    const LoopResult closed =
        timeLoop(repeats, [&] { return runClosedLoop(txns); });
    const LoopResult replay = timeLoop(
        repeats, [&] { return runReplayLoop(slices, width, passes); });

    std::ostringstream doc;
    doc << "{\n  \"schema\": \"codic-hotpath-v1\",\n  \"loops\": {\n";
    emitLoop(doc, "closed_loop", closed, false);
    emitLoop(doc, "replay", replay, true);
    doc << "  }\n}\n";

    if (!out_path.empty()) {
        std::ofstream f(out_path);
        f << doc.str();
    }
    std::cout << doc.str();
    std::cerr << "bench_hotpath: closed_loop "
              << static_cast<uint64_t>(closed.txnPerSec())
              << " txn/s, replay "
              << static_cast<uint64_t>(replay.txnPerSec())
              << " txn/s (median of " << repeats << ")\n";
    return 0;
}
