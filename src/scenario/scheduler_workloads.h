/**
 * @file
 * Canonical workloads of the scheduler ablation, shared by the
 * ablation_scheduler scenario and the test-suite invariants
 * (tests/test_system.cc) so both always measure the same traffic.
 */

#ifndef CODIC_SCENARIO_SCHEDULER_WORKLOADS_H
#define CODIC_SCENARIO_SCHEDULER_WORKLOADS_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dram/system.h"

namespace codic {

/**
 * Interleaved write/read traffic: writes walk 16 rows over banks
 * 0..3, reads sweep rows of banks 4..7 (so no read ever lands on a
 * row with buffered writes and write drains are purely
 * policy-scheduled). Returns the drain completion cycle.
 */
inline Cycle
runTurnaroundWorkload(DramSystem &sys, int64_t ops)
{
    const DramConfig &cfg = sys.config();
    const int64_t row_bytes = cfg.row_bytes;
    const int64_t bank_rows = cfg.rows;
    Cycle t = 0;
    for (int64_t i = 0; i < ops; ++i) {
        // RowBankColumn: a row_bytes stride advances the bank, a
        // banks*row_bytes stride the row.
        const int64_t wrow = (i / 4) % 16;
        const int64_t wbank = i % 4;
        const int64_t rrow = i % bank_rows;
        const int64_t rbank = 4 + i % 4;
        sys.write(static_cast<uint64_t>(
                      (wrow * cfg.banks + wbank) * row_bytes),
                  t);
        sys.read(static_cast<uint64_t>(
                     (rrow * cfg.banks + rbank) * row_bytes),
                 t);
        t += 8;
    }
    return sys.drainAll();
}

/**
 * Row-conflict write stream: writes alternate between two rows of
 * one bank, so a FIFO drain pays an ACT/PRE pair per write while a
 * row-hit batch drain coalesces the queue's same-row writes.
 */
inline Cycle
runRowHitWorkload(DramSystem &sys, int64_t writes)
{
    const DramConfig &cfg = sys.config();
    const int64_t row_bytes = cfg.row_bytes;
    Cycle t = 0;
    for (int64_t i = 0; i < writes; ++i) {
        const int64_t row = i % 2;
        const int64_t column = (i / 2) % cfg.columns;
        sys.write(static_cast<uint64_t>(row * cfg.banks * row_bytes +
                                        column * cfg.burst_bytes),
                  t);
        t += 4;
    }
    return sys.drainAll();
}

/**
 * Bursty open-loop read stream over many tREFI windows, driven
 * through the async transaction API: each burst submits
 * `reads_per_burst` row-sequential reads, `spacing` cycles apart,
 * followed by `gap_cycles` of quiet; the burst's tickets resolve in
 * arrival order. Size the busy span past one tREFI (reads_per_burst
 * x spacing > tREFI) and the postponement allowance decides whether
 * REFs falling due mid-burst stall reads immediately or defer into
 * the following quiet gap (where the always-on refresh engine
 * resolves them for free). Per-read latencies (completion - arrival)
 * append to `latencies`; returns the last completion cycle.
 */
inline Cycle
runRefreshReadWorkload(DramSystem &sys, int64_t bursts,
                       int reads_per_burst, Cycle spacing,
                       Cycle gap_cycles,
                       std::vector<Cycle> *latencies = nullptr)
{
    const int64_t burst_bytes = sys.config().burst_bytes;
    const Cycle period = reads_per_burst * spacing + gap_cycles;
    Cycle last = 0;
    std::vector<Ticket> tickets;
    std::vector<Cycle> arrivals;
    for (int64_t b = 0; b < bursts; ++b) {
        tickets.clear();
        arrivals.clear();
        const Cycle base = b * period;
        for (int i = 0; i < reads_per_burst; ++i) {
            const Cycle arrival = base + spacing * i;
            const uint64_t addr = static_cast<uint64_t>(
                (b * reads_per_burst + i) * burst_bytes);
            tickets.push_back(sys.submit(
                MemTransaction::makeRead(addr, arrival)));
            arrivals.push_back(arrival);
        }
        for (size_t i = 0; i < tickets.size(); ++i) {
            const Cycle done = sys.completionOf(tickets[i]);
            last = std::max(last, done);
            if (latencies)
                latencies->push_back(done - arrivals[i]);
        }
    }
    return last;
}

/**
 * Row-conflict read stream for the read-reordering-window study:
 * each wave submits `wave_size` reads alternating between two rows
 * of one bank (distinct columns), all stamped with the wave's start
 * cycle, then resolves them. With read_window = 1 the controller
 * services them in strict arrival order (a PRE/ACT thrash per read);
 * a wider window regroups the wave into two row-hit runs. Per-read
 * latencies append to `latencies`; returns the last completion.
 */
inline Cycle
runReadWindowWorkload(DramSystem &sys, int64_t waves, int wave_size,
                      std::vector<Cycle> *latencies = nullptr)
{
    const DramConfig &cfg = sys.config();
    const int64_t row_bytes = cfg.row_bytes;
    Cycle wave_start = 0;
    Cycle last = 0;
    std::vector<Ticket> tickets;
    for (int64_t w = 0; w < waves; ++w) {
        tickets.clear();
        for (int i = 0; i < wave_size; ++i) {
            const int64_t row = i % 2;
            const int64_t column =
                (w * wave_size + i / 2) % cfg.columns;
            const uint64_t addr = static_cast<uint64_t>(
                row * cfg.banks * row_bytes +
                column * cfg.burst_bytes);
            tickets.push_back(sys.submit(
                MemTransaction::makeRead(addr, wave_start)));
        }
        for (const Ticket t : tickets) {
            const Cycle done = sys.completionOf(t);
            last = std::max(last, done);
            if (latencies)
                latencies->push_back(done - wave_start);
        }
        wave_start = last + 8;
    }
    return last;
}

/**
 * Mixed-priority storm for the QoS ablation and tests. Each wave,
 * stamped at one arrival cycle: background writes (origin 0) walk
 * rows of banks 0..3 until the drain watermark must trip, background
 * reads (origin 0, priority 0) sweep row-missing addresses of banks
 * 4..7, and one urgent read (origin 1, priority -1) to another row
 * of bank 4 is submitted LAST - so under a priority-blind policy it
 * waits out every older same-arrival read plus any write-drain
 * episode, while priority_sched pulls it to the front of the window
 * and jumps it between drain batches. Urgent and background read
 * latencies (completion - arrival) append to the out-vectors;
 * returns the final drain completion cycle.
 */
inline Cycle
runPriorityStormWorkload(DramSystem &sys, int64_t waves,
                         int background_writes, int background_reads,
                         std::vector<Cycle> *urgent_latencies = nullptr,
                         std::vector<Cycle> *bg_latencies = nullptr)
{
    const DramConfig &cfg = sys.config();
    const int64_t row_bytes = cfg.row_bytes;
    Cycle wave_start = 0;
    Cycle last = 0;
    std::vector<Ticket> bg_tickets;
    for (int64_t w = 0; w < waves; ++w) {
        bg_tickets.clear();
        // Background writes: 4 rows x banks 0..3, rows varying per
        // wave so drains never coalesce across waves.
        const auto writeAt = [&](int i) {
            const int64_t row = (w * 4 + i / 4) % cfg.rows;
            const int64_t bank = i % 4;
            sys.write(static_cast<uint64_t>(
                          (row * cfg.banks + bank) * row_bytes),
                      wave_start, /*origin=*/0);
        };
        const int pre_writes = background_writes / 2;
        for (int i = 0; i < pre_writes; ++i)
            writeAt(i);
        // Background reads: distinct rows of banks 4..7 (all row
        // misses), best-effort class.
        for (int i = 0; i < background_reads; ++i) {
            const int64_t row =
                (w * background_reads + i) % cfg.rows;
            const int64_t bank = 4 + i % 4;
            bg_tickets.push_back(sys.submit(MemTransaction::makeRead(
                static_cast<uint64_t>(
                    (row * cfg.banks + bank) * row_bytes),
                wave_start, /*origin=*/0, /*priority=*/0)));
        }
        // The urgent read, submitted after the background reads:
        // same arrival cycle, so only priority scheduling can move
        // it ahead in the window.
        const int64_t urgent_row =
            (w + cfg.rows / 2) % cfg.rows;
        const Ticket urgent = sys.submit(MemTransaction::makeRead(
            static_cast<uint64_t>(
                (urgent_row * cfg.banks + 4) * row_bytes),
            wave_start, /*origin=*/1, /*priority=*/-1));
        // The rest of the write storm lands while the urgent read is
        // queued: a watermark drain episode triggered here services
        // the urgent read between batches under priority_sched, and
        // makes it wait the episode out when priority-blind.
        for (int i = pre_writes; i < background_writes; ++i)
            writeAt(i);
        const Cycle urgent_done = sys.completionOf(urgent);
        if (urgent_latencies)
            urgent_latencies->push_back(urgent_done - wave_start);
        last = std::max(last, urgent_done);
        for (const Ticket t : bg_tickets) {
            const Cycle done = sys.completionOf(t);
            last = std::max(last, done);
            if (bg_latencies)
                bg_latencies->push_back(done - wave_start);
        }
        last = std::max(last, sys.drainAll());
        wave_start = last + 32;
    }
    return last;
}

} // namespace codic

#endif // CODIC_SCENARIO_SCHEDULER_WORKLOADS_H
