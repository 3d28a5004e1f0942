/**
 * @file
 * Tests of the transaction-based MemoryService API: ticket
 * lifecycle, drainAll coverage of buffered writes, the bounded
 * read queue with its read-reordering window, refresh-aware
 * scheduling invariants, the per-bank drain watermarks, and the new
 * SchedulerPolicy / DramConfig validation and --sched spec parsing.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "dram/system.h"
#include "mem/controller.h"
#include "scenario/scheduler_workloads.h"
#include "trace/recorder.h"

namespace codic {
namespace {

DramConfig
cfg()
{
    return DramConfig::ddr3_1600(256);
}

// --- Ticket lifecycle. ---

TEST(Transaction, BlockingShimEqualsExplicitSubmitResolve)
{
    DramChannel ch_a(cfg()), ch_b(cfg());
    MemoryController shim(ch_a), async(ch_b);

    const Cycle blocking = shim.read(64, 10);
    const Ticket t =
        async.submit(MemTransaction::makeRead(64, 10));
    EXPECT_EQ(async.acceptedAt(t), 10);
    EXPECT_EQ(async.completionOf(t), blocking);
    EXPECT_EQ(ch_a.counts().total(), ch_b.counts().total());
}

TEST(Transaction, TicketsResolveOnceThenPanic)
{
    DramChannel ch(cfg());
    MemoryController mc(ch);
    const Ticket t = mc.submit(MemTransaction::makeRead(0, 0));
    mc.completionOf(t);
    EXPECT_THROW(mc.completionOf(t), PanicError);
    EXPECT_THROW(mc.acceptedAt(t), PanicError);
    EXPECT_THROW(mc.completionOf(Ticket{987654}), PanicError);
}

TEST(Transaction, RetiredWritebackStillDrains)
{
    DramConfig c = cfg();
    c.scheduler = SchedulerPolicy::preset("batched");
    DramChannel ch(c);
    MemoryController mc(ch);
    const Ticket t = mc.submit(MemTransaction::makeWrite(0, 5));
    EXPECT_EQ(mc.acceptedAt(t), 5);
    mc.retire(t); // Fire-and-forget: completion never queried.
    EXPECT_EQ(mc.pendingWriteCount(), 1u);
    mc.drainAll();
    EXPECT_EQ(mc.pendingWriteCount(), 0u);
    EXPECT_EQ(ch.counts().wr, 1u);
}

TEST(Transaction, MillionRetiredWritebacksStayBounded)
{
    // Fire-and-forget writeback streams retire() every ticket
    // without resolving it; the record arena must recycle slots
    // instead of growing with the stream. 10^6 writes is ~4 orders
    // of magnitude beyond the queue depth, so any per-transaction
    // leak shows up as an unbounded slot count.
    DramConfig c = cfg();
    c.scheduler = SchedulerPolicy::preset("batched");
    DramChannel ch(c);
    MemoryController mc(ch);
    const int64_t row_bytes = c.row_bytes;
    size_t max_tracked = 0;
    for (int64_t i = 0; i < 1000000; ++i) {
        const Ticket t = mc.submit(MemTransaction::makeWrite(
            static_cast<uint64_t>((i % 1024) * row_bytes), i));
        mc.retire(t);
        max_tracked = std::max(max_tracked, mc.trackedTicketCount());
    }
    mc.drainAll();
    EXPECT_EQ(mc.trackedTicketCount(), 0u);
    EXPECT_EQ(mc.pendingWriteCount(), 0u);
    // A retired ticket's record dies at retire(), so at most one
    // record is ever live, and the arena never grows past its first
    // slot - bounded by the queue scale, not the stream length.
    EXPECT_LE(max_tracked, 1u);
    EXPECT_LE(mc.recordSlotCount(), 64u);
    EXPECT_EQ(ch.counts().wr, 1000000u);
}

TEST(Transaction, WriteTicketCompletionForcesItsDrain)
{
    DramConfig c = cfg();
    c.scheduler = SchedulerPolicy::preset("batched");
    DramChannel ch(c);
    MemoryController mc(ch);
    const Ticket t = mc.submit(MemTransaction::makeWrite(0, 0));
    ASSERT_EQ(mc.pendingWriteCount(), 1u); // Buffered, not issued.
    const Cycle done = mc.completionOf(t);
    EXPECT_GT(done, 0);
    EXPECT_EQ(mc.pendingWriteCount(), 0u);
    EXPECT_EQ(ch.counts().wr, 1u);
}

TEST(Transaction, EagerWriteTicketResolvesAfterImmediateDrain)
{
    // Regression: under the eager policy a write drains during its
    // own acceptance; the completion must land in the ticket record
    // (created before acceptance), not vanish.
    DramChannel ch(cfg()); // Eager default: drain at acceptance.
    MemoryController mc(ch);
    const Ticket t = mc.submit(MemTransaction::makeWrite(0, 7));
    EXPECT_EQ(mc.acceptedAt(t), 7);
    EXPECT_EQ(ch.counts().wr, 1u); // Already issued.
    EXPECT_GT(mc.completionOf(t), 7);
}

TEST(Transaction, PollNeverIssuesFutureRowHits)
{
    // Regression: a row-hit read far in the future must not bypass
    // into a poll - issuing it would drag the channel's monotone
    // bus horizons to its arrival cycle and penalize every
    // already-arrived read behind it.
    DramConfig c = cfg();
    c.scheduler = SchedulerPolicy::preset("batched"); // window 8.
    DramChannel ch(c);
    MemoryController mc(ch);
    mc.read(0, 0); // Open row 0 of bank 0.
    const uint64_t conflict =
        static_cast<uint64_t>(c.row_bytes) *
        static_cast<uint64_t>(c.banks) * 3; // Row 3, bank 0.
    const Ticket miss =
        mc.submit(MemTransaction::makeRead(conflict, 10));
    // Row hit to the open row, but it has not arrived yet.
    const Ticket future =
        mc.submit(MemTransaction::makeRead(64, 1000000));
    EXPECT_EQ(mc.poll(100), 1u);
    const Cycle miss_done = mc.completionOf(miss);
    EXPECT_LT(miss_done, 1000000);
    EXPECT_GE(mc.completionOf(future), 1000000);
}

TEST(Transaction, WriteResolutionKeepsEarlierReadsPrioritized)
{
    // completionOf on a buffered write must first service reads the
    // schedule orders before it (arrived by its acceptance), so
    // resolving the write out of order cannot steal the data bus
    // from an earlier read.
    DramConfig c = cfg();
    c.scheduler = SchedulerPolicy::preset("batched");
    DramChannel ch(c);
    MemoryController mc(ch);
    const Ticket rd = mc.submit(MemTransaction::makeRead(0, 10));
    const Ticket wr =
        mc.submit(MemTransaction::makeWrite(1 << 20, 20));
    const Cycle wr_done = mc.completionOf(wr);
    EXPECT_EQ(ch.counts().rd, 1u); // The read issued first.
    EXPECT_LT(mc.completionOf(rd), wr_done);
}

TEST(Transaction, PollServicesOnlyArrivedRequests)
{
    DramChannel ch(cfg());
    MemoryController mc(ch);
    const Ticket early =
        mc.submit(MemTransaction::makeRead(0, 0));
    mc.submit(MemTransaction::makeRead(1 << 20, 100000));
    EXPECT_EQ(mc.pendingReadCount(), 2u);
    EXPECT_EQ(mc.poll(500), 1u);
    EXPECT_EQ(mc.pendingReadCount(), 1u);
    EXPECT_EQ(ch.counts().rd, 1u);
    // The serviced ticket resolved without further issue.
    EXPECT_GT(mc.completionOf(early), 0);
}

TEST(Transaction, SystemTicketsRouteAcrossChannels)
{
    ControllerConfig cc;
    cc.map_scheme = MapScheme::RowBankColumnChannel;
    DramSystem sys(DramConfig::ddr3_1600(256, 2), cc);
    ASSERT_EQ(sys.channelOf(0), 0);
    ASSERT_EQ(sys.channelOf(64), 1);
    const Ticket t0 = sys.submit(MemTransaction::makeRead(0, 0));
    const Ticket t1 = sys.submit(MemTransaction::makeRead(64, 0));
    EXPECT_NE(t0, t1);
    EXPECT_EQ(sys.inFlightCount(), 2u);
    EXPECT_EQ(sys.acceptedAt(t1), 0);
    // Resolve in reverse submission order: each channel only
    // services its own queue.
    EXPECT_GT(sys.completionOf(t1), 0);
    EXPECT_GT(sys.completionOf(t0), 0);
    EXPECT_EQ(sys.channel(0).counts().rd, 1u);
    EXPECT_EQ(sys.channel(1).counts().rd, 1u);
}

// --- complete(): the ticket-free blocking path. ---

/** Everything one run of runBlockingScript() lets a caller observe. */
struct ScriptLog
{
    /** Every cycle or count a call returned, in call order. */
    std::vector<uint64_t> returned;
    /** totalCounts(), per-bank counts included, flattened. */
    std::vector<uint64_t> counts;
    /** perOriginCounts(), flattened. */
    std::vector<uint64_t> origins;
    Cycle last_issue = 0;
    uint64_t transactions = 0; //!< Transactions the script submitted.
    uint64_t recorded = 0;     //!< Records the TraceRecorder kept.
    std::string recording;     //!< The recording's bytes.
    uint64_t shortcut_calls = 0; //!< Blocking calls at an empty queue.
    uint64_t fallback_calls = 0; //!< Blocking calls behind queued reads.
};

std::vector<uint64_t>
flattenCounts(const CommandCounts &c)
{
    std::vector<uint64_t> v = {
        c.act,      c.pre,      c.rd,
        c.wr,       c.ref,      c.refpb,
        c.mrs,      c.codic,    c.rowclone,
        c.lisa_rbm, c.rd_wr_turnarounds, c.wr_rd_turnarounds,
        c.refresh_overlap_cycles};
    for (const BankCounts &b : c.per_bank)
        v.insert(v.end(),
                 {b.act, b.rd, b.wr, b.ref, b.refpb, b.refresh_cycles});
    return v;
}

std::vector<uint64_t>
flattenOrigins(const std::vector<OriginCounts> &origins)
{
    std::vector<uint64_t> v;
    for (const OriginCounts &o : origins)
        v.insert(v.end(), {o.origin, o.reads, o.writes, o.rowops,
                           o.read_latency_cycles, o.rowop_latency_cycles,
                           static_cast<uint64_t>(o.max_read_latency)});
    return v;
}

/**
 * Seeded mixed traffic over one DramSystem, recorded by the
 * TraceRecorder. Each blocking read, row op (all three mechanisms)
 * and the occasional blocking write goes through complete() when
 * `use_complete`, else through completionOf(submit()); every other
 * call is the same on both. Reads submitted and left queued make
 * stretches where complete() must fall back, and a read with a
 * pending onComplete callback keeps the queue non-empty until a
 * later call services it.
 */
ScriptLog
runBlockingScript(const DramConfig &config, bool use_complete,
                  uint64_t seed)
{
    const std::string path = ::testing::TempDir() +
                             "codic_blocking_script_" +
                             (use_complete ? "complete" : "queued") +
                             ".trace";
    ControllerConfig cc;
    if (config.channels > 1)
        cc.map_scheme = MapScheme::RowBankColumnChannel;
    ScriptLog log;
    TraceMeta meta;
    meta.scenario = "blocking_script";
    meta.seed = seed;
    TraceRecorder::start(path, meta);
    {
        DramSystem sys(config, cc);
        Rng rng(seed);
        const uint64_t row = static_cast<uint64_t>(config.row_bytes);
        // Half the traffic sits in 4 rows of each of 2 banks (row
        // hits, conflicts and same-row forwarding); the rest spreads
        // over 64 MB.
        const auto addr = [&] {
            if (rng.below(2) == 0)
                return rng.below(8) * row + rng.below(row / 64) * 64;
            return rng.below(uint64_t{1} << 20) * 64;
        };
        const auto origin = [&] { return rng.below(3); };
        const auto priority = [&] {
            return rng.below(4) == 0 ? -1 : 0;
        };
        const auto blocking = [&](const MemTransaction &txn) {
            ++log.transactions;
            const int ch = sys.channelOf(txn.addr);
            if (sys.controller(ch).pendingReadCount() == 0)
                ++log.shortcut_calls;
            else
                ++log.fallback_calls;
            log.returned.push_back(static_cast<uint64_t>(
                use_complete ? sys.complete(txn)
                             : sys.completionOf(sys.submit(txn))));
        };
        std::vector<Ticket> queued;
        Cycle now = 0;
        for (int i = 0; i < 6000; ++i) {
            now += static_cast<Cycle>(rng.below(48));
            const uint64_t pick = rng.below(100);
            if (pick < 40) {
                blocking(MemTransaction::makeRead(addr(), now, origin(),
                                                  priority()));
            } else if (pick < 50) {
                const auto mech =
                    static_cast<RowOpMechanism>(rng.below(3));
                blocking(MemTransaction::makeRowOp(
                    addr(), now, mech,
                    static_cast<int64_t>(rng.below(
                        static_cast<uint64_t>(config.rows))),
                    origin()));
            } else if (pick < 52) {
                blocking(
                    MemTransaction::makeWrite(addr(), now, origin()));
            } else if (pick < 72) {
                ++log.transactions;
                const Ticket t = sys.submit(
                    MemTransaction::makeWrite(addr(), now, origin()));
                log.returned.push_back(
                    static_cast<uint64_t>(sys.acceptedAt(t)));
                sys.retire(t);
            } else if (pick < 86) {
                ++log.transactions;
                queued.push_back(sys.submit(MemTransaction::makeRead(
                    addr(), now, origin(), priority())));
            } else if (pick < 91) {
                for (const Ticket t : queued)
                    log.returned.push_back(
                        static_cast<uint64_t>(sys.completionOf(t)));
                queued.clear();
            } else if (pick < 95) {
                log.returned.push_back(sys.poll(now));
            } else {
                ++log.transactions;
                const Ticket t = sys.submit(MemTransaction::makeRead(
                    addr(), now, origin(), priority()));
                // Records only: callbacks must not re-enter.
                sys.onComplete(t, [&log](Ticket, Cycle done) {
                    log.returned.push_back(
                        static_cast<uint64_t>(done) | (uint64_t{1} << 63));
                });
            }
        }
        for (const Ticket t : queued)
            log.returned.push_back(
                static_cast<uint64_t>(sys.completionOf(t)));
        log.returned.push_back(static_cast<uint64_t>(sys.drainAll()));
        log.counts = flattenCounts(sys.totalCounts());
        log.origins = flattenOrigins(sys.perOriginCounts());
        log.last_issue = sys.lastIssueCycle();
    }
    log.recorded = TraceRecorder::stop();
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    log.recording = bytes.str();
    std::remove(path.c_str());
    return log;
}

/** One module and scheduler runBlockingScript() is checked on. */
struct ScriptCase
{
    int channels;
    const char *sched;
};

constexpr ScriptCase kScriptCases[] = {
    {1, "eager"},   {1, "batched"},   {1, "serving"},
    {2, "eager"},   {2, "batched"},   {2, "serving"},
    {1, "batched:refresh=auto"},
};

DramConfig
scriptConfig(const ScriptCase &c)
{
    DramConfig config = DramConfig::ddr3_1600(256, c.channels);
    config.scheduler = SchedulerPolicy::parse(c.sched);
    return config;
}

/**
 * FNV-1a over everything a run returns, counts and records: the
 * returned cycles, the command and per-origin counts, the last issue
 * cycle and the recording's record count and bytes.
 */
uint64_t
scriptDigest(const ScriptLog &log)
{
    uint64_t h = 0xcbf29ce484222325ull;
    const auto byte = [&h](uint8_t b) {
        h = (h ^ b) * 0x100000001b3ull;
    };
    const auto word = [&byte](uint64_t v) {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    };
    for (const std::vector<uint64_t> *v :
         {&log.returned, &log.counts, &log.origins}) {
        word(v->size());
        for (uint64_t x : *v)
            word(x);
    }
    word(static_cast<uint64_t>(log.last_issue));
    word(log.recorded);
    for (char c : log.recording)
        byte(static_cast<uint8_t>(c));
    return h;
}

TEST(Transaction, CompleteMatchesSubmitThenCompletionOf)
{
    for (const ScriptCase &c : kScriptCases) {
        SCOPED_TRACE(testing::Message()
                     << c.channels << " channel(s), " << c.sched);
        const DramConfig config = scriptConfig(c);
        const ScriptLog fast = runBlockingScript(config, true, 17);
        const ScriptLog queued = runBlockingScript(config, false, 17);

        ASSERT_EQ(fast.returned.size(), queued.returned.size());
        const auto diverged = std::mismatch(fast.returned.begin(),
                                            fast.returned.end(),
                                            queued.returned.begin());
        EXPECT_TRUE(diverged.first == fast.returned.end())
            << "first differing result: #"
            << (diverged.first - fast.returned.begin());
        EXPECT_EQ(fast.counts, queued.counts);
        EXPECT_EQ(fast.origins, queued.origins);
        EXPECT_EQ(fast.last_issue, queued.last_issue);
        // The tap sees each transaction exactly once on either path.
        EXPECT_EQ(fast.recorded, fast.transactions);
        EXPECT_EQ(queued.recorded, queued.transactions);
        EXPECT_TRUE(fast.recording == queued.recording);
        // Both branches of complete() ran.
        EXPECT_GT(fast.shortcut_calls, 500u);
        EXPECT_GT(fast.fallback_calls, 100u);
        if (config.scheduler.auto_refresh) {
            EXPECT_GT(fast.counts[4], 0u) << "REFs issued";
        }
    }
}

TEST(Transaction, QueuedScriptMatchesPinnedDigests)
{
    // The queued run of every case above, pinned to digests computed
    // before the queued path's fast paths (the inline head pick,
    // in-place service, ring read queue, direct resolve and the
    // shift/mask decode). CompleteMatchesSubmitThenCompletionOf
    // compares two paths of one build; this fails when a change
    // moves any queued cycle, count, roll-up or recorded byte.
    constexpr uint64_t kDigests[] = {
        0x15521eda773b4daeull, 0x98f1241e94b58935ull,
        0x6d34718cb73dd4e2ull, 0xb8db60418a88c1ccull,
        0x47eba32d33dd7b4aull, 0x82a2356af9dffe94ull,
        0xaef8841e7a631fc4ull,
    };
    static_assert(std::size(kDigests) == std::size(kScriptCases));
    for (size_t i = 0; i < std::size(kScriptCases); ++i) {
        const ScriptCase &c = kScriptCases[i];
        const ScriptLog queued =
            runBlockingScript(scriptConfig(c), false, 17);
        EXPECT_EQ(scriptDigest(queued), kDigests[i])
            << c.channels << " channel(s), " << c.sched << ": 0x"
            << std::hex << scriptDigest(queued);
    }
}

// --- drainAll services every buffered write. ---

TEST(Transaction, DrainAllServicesEveryBufferedWrite)
{
    DramConfig c = cfg();
    c.scheduler = SchedulerPolicy::preset("batched");
    DramSystem sys(c);
    for (int i = 0; i < 24; ++i)
        sys.write(static_cast<uint64_t>(i) * 8192 * 8, 0);
    // The batched preset buffers the writes below its drain mark.
    EXPECT_GT(sys.pendingWriteCount(), 0u);
    const Cycle drained = sys.drainAll();
    EXPECT_GT(drained, 0);
    EXPECT_EQ(sys.totalCounts().wr, 24u);
    EXPECT_EQ(sys.pendingWriteCount(), 0u);
    // Quiescent: a second drain finds no write left to issue.
    sys.drainAll();
    EXPECT_EQ(sys.totalCounts().wr, 24u);
    EXPECT_EQ(sys.pendingWriteCount(), 0u);
}

// --- Read-reordering window. ---

TEST(Transaction, ReadWindowCoalescesRowConflictStream)
{
    auto run = [](int window, std::vector<Cycle> *lat) {
        DramConfig c = cfg();
        c.scheduler = SchedulerPolicy::preset("batched");
        c.scheduler.read_window = window;
        DramSystem sys(c);
        runReadWindowWorkload(sys, 20, 16, lat);
        return sys.totalCounts();
    };
    std::vector<Cycle> lat1, lat8;
    const CommandCounts fifo = run(1, &lat1);
    const CommandCounts windowed = run(8, &lat8);
    EXPECT_EQ(fifo.rd, windowed.rd);
    // Strict arrival order pays a PRE/ACT pair per row-alternating
    // read; the window regroups each wave into two row-hit runs.
    EXPECT_LT(windowed.act * 4, fifo.act);
    double mean1 = 0, mean8 = 0;
    for (Cycle l : lat1)
        mean1 += static_cast<double>(l);
    for (Cycle l : lat8)
        mean8 += static_cast<double>(l);
    EXPECT_LT(mean8, mean1);
}

TEST(Transaction, WindowNeverReordersAcrossRowOpOrSameRow)
{
    DramConfig c = cfg();
    c.scheduler = SchedulerPolicy::preset("batched"); // window 8.
    DramSystem sys(c);
    const Address target = sys.map().decode(0);
    sys.channel(0).setRowState(target.rank, target.bank, target.row,
                               RowDataState::Data);
    // Same row: read, destructive row op, read - all queued at once.
    const Ticket r1 = sys.submit(MemTransaction::makeRead(0, 0));
    const Ticket op = sys.submit(MemTransaction::makeRowOp(
        0, 0, RowOpMechanism::CodicDet));
    const Ticket r2 = sys.submit(MemTransaction::makeRead(64, 0));
    const Cycle c1 = sys.completionOf(r1);
    const Cycle cop = sys.completionOf(op);
    const Cycle c2 = sys.completionOf(r2);
    EXPECT_LT(c1, cop);
    EXPECT_LT(cop, c2);
    EXPECT_EQ(sys.channel(0).rowState(target.rank, target.bank,
                                      target.row),
              RowDataState::Zeroes);
}

// --- Refresh-aware scheduling. ---

TEST(Transaction, RefreshCountTracksElapsedWithinPostponement)
{
    for (const int postpone : {0, 4, 8}) {
        DramConfig c = cfg();
        c.scheduler = SchedulerPolicy::preset("batched");
        c.scheduler.auto_refresh = true;
        c.scheduler.refresh_postpone = postpone;
        DramSystem sys(c);
        const Cycle done = runRefreshReadWorkload(
            sys, 4, 1200, 8, 3 * c.timing.trefi);
        sys.poll(done);
        const int64_t intervals = done / c.timing.trefi;
        const int64_t refs =
            static_cast<int64_t>(sys.totalCounts().ref);
        // REF count ~ elapsed/tREFI: every due REF beyond the
        // postponement allowance must have issued, and never more
        // than the due count.
        EXPECT_GE(refs, intervals - postpone - 1) << postpone;
        EXPECT_LE(refs, intervals + 1) << postpone;
    }
}

TEST(Transaction, ReadsNeverStarveAcrossRefreshStorm)
{
    // A saturated read stream spanning many tREFI with the maximum
    // deferral allowance: REFs are forced mid-stream in bursts, yet
    // every read must complete with bounded latency.
    DramConfig c = cfg();
    c.scheduler = SchedulerPolicy::preset("batched");
    c.scheduler.auto_refresh = true;
    c.scheduler.refresh_postpone = 8;
    DramSystem sys(c);
    std::vector<Cycle> lat;
    runRefreshReadWorkload(sys, 1, 20000, 6, 0, &lat);
    ASSERT_EQ(lat.size(), 20000u);
    EXPECT_GT(sys.totalCounts().ref, 10u);
    const Cycle bound = 16 * c.timing.trfc;
    for (const Cycle l : lat)
        ASSERT_LT(l, bound);
}

TEST(Transaction, PostponementMovesRefreshOutOfBursts)
{
    auto tail = [](int postpone) {
        DramConfig c = cfg();
        c.scheduler = SchedulerPolicy::preset("batched");
        c.scheduler.auto_refresh = true;
        c.scheduler.refresh_postpone = postpone;
        DramSystem sys(c);
        std::vector<Cycle> lat;
        runRefreshReadWorkload(sys, 6, 2000, 8,
                               4 * c.timing.trefi, &lat);
        return *std::max_element(lat.begin(), lat.end());
    };
    // With bursts ~2.5 tREFI long, a sufficient allowance slides
    // every mid-burst REF into the following quiet gap.
    EXPECT_LT(tail(8), tail(0));
}

TEST(Transaction, EagerPresetNeverInjectsRefresh)
{
    DramSystem sys(cfg()); // Eager default: auto_refresh off.
    runRefreshReadWorkload(sys, 2, 2000, 8, 6240);
    sys.drainAll();
    EXPECT_EQ(sys.totalCounts().ref, 0u);
}

// --- Per-bank drain watermarks. ---

TEST(Transaction, BankWatermarkDrainsBankHotStream)
{
    DramConfig c = cfg();
    c.scheduler = SchedulerPolicy::preset("batched");
    c.scheduler.drain_high_pct = 100; // Park the global watermark.
    c.scheduler.bank_drain_high = 4;
    c.scheduler.bank_drain_low = 1;
    DramChannel ch(c);
    MemoryController mc(ch);
    // Row-conflicting writes all landing on bank 0.
    const uint64_t stride = 8192ull * 8ull;
    for (int i = 0; i < 3; ++i)
        mc.write(stride * static_cast<uint64_t>(i), 0);
    EXPECT_EQ(mc.pendingWriteCount(), 3u); // Below the watermark.
    mc.write(stride * 3, 0);
    // The 4th write tripped the bank watermark: drained to low = 1.
    EXPECT_EQ(mc.pendingWriteCount(), 1u);
    EXPECT_EQ(ch.counts().wr, 3u);
    mc.drainAll();
    EXPECT_EQ(ch.counts().wr, mc.acceptedWrites());
}

// --- Validation and --sched spec parsing. ---

TEST(Transaction, ValidateRejectsNewInconsistentKnobs)
{
    SchedulerPolicy p;
    p.read_window = 0;
    EXPECT_THROW(p.validate(), FatalError);
    p = SchedulerPolicy{};
    p.bank_drain_high = 2;
    p.bank_drain_low = 3; // Low watermark exceeds high.
    EXPECT_THROW(p.validate(), FatalError);
    p = SchedulerPolicy{};
    p.bank_drain_high = -1;
    EXPECT_THROW(p.validate(), FatalError);
    p = SchedulerPolicy{};
    p.refresh_postpone = 9; // Beyond the JEDEC limit.
    EXPECT_THROW(p.validate(), FatalError);
    p = SchedulerPolicy{};
    p.refresh_postpone = -1;
    EXPECT_THROW(p.validate(), FatalError);
}

TEST(Transaction, DramConfigRejectsNonPositiveRefreshTimings)
{
    DramConfig c = cfg();
    c.timing.trefi = 0;
    EXPECT_THROW(c.validate(), FatalError);
    c = cfg();
    c.timing.trefi = -8;
    EXPECT_THROW(c.validate(), FatalError);
    c = cfg();
    c.timing.trfc = 0;
    EXPECT_THROW(c.validate(), FatalError);
    c = cfg();
    c.timing.trfc = -1;
    EXPECT_THROW(c.validate(), FatalError);
}

TEST(Transaction, SchedSpecParsesPresetAndKnobOverrides)
{
    const SchedulerPolicy p = SchedulerPolicy::parse(
        "batched:read_window=16,refresh=auto,refresh_postpone=4,"
        "bank_drain_high=6,bank_drain_low=2");
    EXPECT_EQ(p.drain_high_pct, 75); // From the preset.
    EXPECT_EQ(p.read_window, 16);
    EXPECT_TRUE(p.auto_refresh);
    EXPECT_EQ(p.refresh_postpone, 4);
    EXPECT_EQ(p.bank_drain_high, 6);
    EXPECT_EQ(p.bank_drain_low, 2);

    EXPECT_FALSE(SchedulerPolicy::parse("batched").auto_refresh);
    EXPECT_FALSE(
        SchedulerPolicy::parse("eager:refresh=off").auto_refresh);

    EXPECT_THROW(SchedulerPolicy::parse("bogus"), FatalError);
    EXPECT_THROW(SchedulerPolicy::parse("batched:no_such_knob=1"),
                 FatalError);
    EXPECT_THROW(SchedulerPolicy::parse("batched:read_window=abc"),
                 FatalError);
    // Overflowing values must fail loudly, not wrap into a
    // different, valid-looking policy.
    EXPECT_THROW(
        SchedulerPolicy::parse("batched:read_window=4294967297"),
        FatalError);
    EXPECT_THROW(SchedulerPolicy::parse("batched:read_window="),
                 FatalError);
    EXPECT_THROW(SchedulerPolicy::parse("batched:refresh=maybe"),
                 FatalError);
    // Overrides that assemble an inconsistent policy are rejected
    // by the embedded validate().
    EXPECT_THROW(SchedulerPolicy::parse(
                     "batched:bank_drain_high=2,bank_drain_low=5"),
                 FatalError);
    // The knob help text names every parseable knob.
    const std::string help = SchedulerPolicy::describeKnobs();
    for (const char *knob :
         {"drain_high_pct", "drain_low_pct", "max_drain_batch",
          "replay_batch", "read_window", "bank_drain_high",
          "bank_drain_low", "refresh", "refresh_postpone",
          "priority", "per-bank", "serving"})
        EXPECT_NE(help.find(knob), std::string::npos) << knob;
}

// --- QoS: priority scheduling, per-origin accounting, REFpb. ---

TEST(Transaction, ServingPresetAndQosSpecParsing)
{
    const SchedulerPolicy s = SchedulerPolicy::preset("serving");
    EXPECT_EQ(s.drain_high_pct, 85);
    EXPECT_EQ(s.drain_low_pct, 35);
    EXPECT_EQ(s.read_window, 16);
    EXPECT_EQ(s.bank_drain_high, 8);
    EXPECT_EQ(s.bank_drain_low, 2);
    EXPECT_TRUE(s.auto_refresh);
    EXPECT_EQ(s.refresh_postpone, 4);
    EXPECT_TRUE(s.priority_sched);
    EXPECT_FALSE(s.per_bank_refresh);

    const SchedulerPolicy pb =
        SchedulerPolicy::parse("serving:refresh=per-bank");
    EXPECT_TRUE(pb.per_bank_refresh);
    EXPECT_TRUE(pb.auto_refresh); // per-bank implies the engine on.
    EXPECT_TRUE(
        SchedulerPolicy::parse("batched:priority=on").priority_sched);
    EXPECT_FALSE(
        SchedulerPolicy::parse("serving:priority=off").priority_sched);
    EXPECT_FALSE(
        SchedulerPolicy::parse("serving:refresh=off").auto_refresh);
    EXPECT_FALSE(SchedulerPolicy::parse("serving:refresh=off")
                     .per_bank_refresh);

    EXPECT_THROW(SchedulerPolicy::parse("serving:priority=maybe"),
                 FatalError);
    EXPECT_THROW(SchedulerPolicy::parse("serving:refresh=bank"),
                 FatalError);
    // per_bank_refresh without the refresh engine is inconsistent.
    SchedulerPolicy p;
    p.per_bank_refresh = true;
    p.auto_refresh = false;
    EXPECT_THROW(p.validate(), FatalError);
}

TEST(Transaction, DramConfigRejectsBadPerBankRefreshTimings)
{
    DramConfig c = cfg();
    c.timing.trfcpb = 0;
    EXPECT_THROW(c.validate(), FatalError);
    c = cfg();
    c.timing.trfcpb = c.timing.trfc + 1; // REFpb beyond all-bank REF.
    EXPECT_THROW(c.validate(), FatalError);
    // The sized module derives tRFCpb ~ tRFC / 2.
    c = cfg();
    EXPECT_GT(c.timing.trfcpb, 0);
    EXPECT_LE(c.timing.trfcpb, c.timing.trfc);
}

TEST(Transaction, PrioritySchedulingImprovesUrgentTailLatency)
{
    // The same storm, priority-blind vs the serving preset (the
    // blind baseline matches serving's refresh settings so the delta
    // isolates priority scheduling). The urgent read of each wave is
    // submitted last at the same arrival cycle, so only priority
    // selection and drain jumping can move it ahead.
    const auto urgentP99 = [](const char *spec) {
        DramConfig c = cfg();
        c.scheduler = SchedulerPolicy::parse(spec);
        DramSystem sys(c);
        std::vector<Cycle> urgent;
        runPriorityStormWorkload(sys, 40, 48, 12, &urgent, nullptr);
        std::sort(urgent.begin(), urgent.end());
        return urgent[urgent.size() * 99 / 100];
    };
    const Cycle blind =
        urgentP99("batched:refresh=auto,refresh_postpone=4");
    const Cycle serving = urgentP99("serving");
    // CI's codic_run smoke step demands >= 20% of ablation_qos; the
    // controller-level improvement is far larger - assert a
    // conservative >= 50%.
    EXPECT_LE(serving * 2, blind);
}

TEST(Transaction, AgingPromotionBoundsBestEffortStarvation)
{
    // One best-effort read at the queue head against a stream of
    // urgent reads at the same arrival: priority scheduling bypasses
    // the head exactly kReadStarvationLimit times, then the aging
    // rule force-schedules it.
    DramConfig c = cfg();
    c.scheduler = SchedulerPolicy::parse("serving:read_window=48");
    DramChannel ch(c);
    MemoryController mc(ch);
    const int64_t row_bytes = c.row_bytes;
    const auto addrOf = [&](int64_t row, int64_t bank) {
        return static_cast<uint64_t>((row * c.banks + bank) *
                                     row_bytes);
    };
    const Ticket bg = mc.submit(
        MemTransaction::makeRead(addrOf(0, 0), 0, 0, 0));
    std::vector<Ticket> urgent;
    for (int i = 0; i < 40; ++i)
        urgent.push_back(mc.submit(MemTransaction::makeRead(
            addrOf(1 + i, 1 + i % 7), 0, 1, -1)));
    std::vector<Cycle> urgent_done;
    for (const Ticket t : urgent)
        urgent_done.push_back(mc.completionOf(t));
    const Cycle bg_done = mc.completionOf(bg);
    int bypassed = 0;
    for (const Cycle d : urgent_done)
        bypassed += d < bg_done;
    EXPECT_EQ(bypassed, MemoryController::kReadStarvationLimit);
}

TEST(Transaction, PerOriginCountsSumToChannelTotals)
{
    DramConfig c = cfg();
    c.scheduler = SchedulerPolicy::preset("serving");
    DramSystem sys(c);
    std::vector<Cycle> urgent;
    runPriorityStormWorkload(sys, 20, 48, 12, &urgent, nullptr);
    const CommandCounts counts = sys.totalCounts();
    const std::vector<OriginCounts> origins = sys.perOriginCounts();
    ASSERT_EQ(origins.size(), 2u); // Background 0, urgent 1.
    EXPECT_EQ(origins[0].origin, 0u);
    EXPECT_EQ(origins[1].origin, 1u);
    uint64_t reads = 0;
    uint64_t writes = 0;
    uint64_t rowops = 0;
    for (const OriginCounts &oc : origins) {
        reads += oc.reads;
        writes += oc.writes;
        rowops += oc.rowops;
    }
    // Every read issues exactly one RD burst and every write one WR
    // burst (all drained by the workload), so the origin roll-ups
    // must sum to the channel command totals.
    EXPECT_EQ(reads, counts.rd);
    EXPECT_EQ(writes, counts.wr);
    EXPECT_EQ(rowops, 0u);
    EXPECT_EQ(reads, 20u * 13u);  // 12 background + 1 urgent / wave.
    EXPECT_EQ(writes, 20u * 48u);
    EXPECT_EQ(origins[1].reads, 20u);
    EXPECT_GT(origins[1].read_latency_cycles, 0u);
    EXPECT_GE(origins[1].max_read_latency,
              origins[1].read_latency_cycles / origins[1].reads);
}

// Random origin streams against a std::map roll-up: thousands of
// origins (as fleet replay's device ids give), long runs of one
// origin, and the 0 and ~0 tags. Reads and row ops complete at an
// empty queue, so each one's latency is its completion - arrival.
TEST(Transaction, PerOriginCountsMatchMapReference)
{
    const auto streams = {"wide", "dense", "runs", "strided"};
    for (const std::string stream : streams) {
        for (int channels : {1, 2}) {
            SCOPED_TRACE(stream + ", " + std::to_string(channels) +
                         " channel(s)");
            const DramConfig c = DramConfig::ddr3_1600(256, channels);
            ControllerConfig cc;
            if (channels > 1)
                cc.map_scheme = MapScheme::RowBankColumnChannel;
            DramSystem sys(c, cc);
            Rng rng(channels * 101 + stream.size());
            std::vector<uint64_t> pool(3000);
            for (uint64_t &o : pool)
                o = rng.next64();
            pool[0] = 0;
            pool[1] = ~uint64_t{0};
            uint64_t run_origin = 0;
            int run_left = 0;
            const auto origin = [&]() -> uint64_t {
                if (stream == "wide")
                    return pool[rng.below(pool.size())];
                if (stream == "dense")
                    return rng.below(5000);
                if (stream == "strided")
                    return rng.below(1000) * 64;
                if (run_left-- <= 0) {
                    run_origin = pool[rng.below(pool.size())];
                    run_left = static_cast<int>(rng.below(40));
                }
                return run_origin;
            };
            std::map<uint64_t, OriginCounts> want;
            Cycle now = 0;
            for (int i = 0; i < 20000; ++i) {
                now += static_cast<Cycle>(rng.below(32));
                const uint64_t addr = rng.below(uint64_t{1} << 20) * 64;
                const uint64_t o = origin();
                OriginCounts &w = want[o];
                w.origin = o;
                const uint64_t pick = rng.below(100);
                if (pick < 25) {
                    sys.retire(
                        sys.submit(MemTransaction::makeWrite(addr, now, o)));
                    ++w.writes;
                } else if (pick < 85) {
                    const Cycle done =
                        sys.complete(MemTransaction::makeRead(addr, now, o));
                    ++w.reads;
                    w.read_latency_cycles +=
                        static_cast<uint64_t>(done - now);
                    w.max_read_latency =
                        std::max(w.max_read_latency, done - now);
                } else {
                    const Cycle done = sys.complete(MemTransaction::makeRowOp(
                        addr, now, RowOpMechanism::CodicDet, 0, o));
                    ++w.rowops;
                    w.rowop_latency_cycles +=
                        static_cast<uint64_t>(done - now);
                }
            }
            sys.drainAll();
            std::vector<OriginCounts> expected;
            for (const auto &entry : want)
                expected.push_back(entry.second);
            EXPECT_GT(expected.size(), 500u);
            EXPECT_EQ(flattenOrigins(sys.perOriginCounts()),
                      flattenOrigins(expected));
            if (channels == 1) {
                EXPECT_EQ(flattenOrigins(sys.controller(0).originCounts()),
                          flattenOrigins(expected));
            }
        }
    }
}

TEST(Transaction, PerBankRefreshTracksTrefipbPerBank)
{
    DramConfig c = cfg();
    c.scheduler = SchedulerPolicy::parse("batched:refresh=per-bank");
    DramSystem sys(c);
    const Cycle done = runRefreshReadWorkload(sys, 4, 1200, 8,
                                              3 * c.timing.trefi);
    sys.poll(done);
    const CommandCounts counts = sys.totalCounts();
    const Cycle trefipb = c.timing.trefi / c.banks;
    const int64_t due = static_cast<int64_t>(done / trefipb);
    const int64_t refpb = static_cast<int64_t>(counts.refpb);
    // Per-bank mode issues REFpb only, at ~ elapsed / tREFIpb. The
    // lazy catch-up trails the final completion by up to one tREFI,
    // which is `banks` tREFIpb intervals.
    EXPECT_EQ(counts.ref, 0u);
    EXPECT_GE(refpb, due - c.banks - 1);
    EXPECT_LE(refpb, due + 1);
    // Round-robin rotation: every bank refreshed ~ elapsed / tREFI,
    // spread within one command of its siblings, with tRFCpb cycles
    // of lockout accounted per REFpb.
    const std::vector<BankCounts> banks = sys.perBankCounts();
    uint64_t min_refpb = ~0ull;
    uint64_t max_refpb = 0;
    for (const BankCounts &b : banks) {
        min_refpb = std::min(min_refpb, b.refpb);
        max_refpb = std::max(max_refpb, b.refpb);
        EXPECT_EQ(b.refresh_cycles,
                  b.refpb * static_cast<uint64_t>(c.timing.trfcpb));
    }
    EXPECT_LE(max_refpb - min_refpb, 1u);
    const int64_t per_bank_due =
        static_cast<int64_t>(done / c.timing.trefi);
    EXPECT_GE(static_cast<int64_t>(min_refpb), per_bank_due - 2);
    EXPECT_LE(static_cast<int64_t>(max_refpb), per_bank_due + 1);
}

TEST(Transaction, RefreshOverlapOnlyAccruesInPerBankMode)
{
    const auto run = [](const char *spec) {
        DramConfig c = cfg();
        c.scheduler = SchedulerPolicy::parse(spec);
        DramSystem sys(c);
        std::vector<Cycle> urgent;
        runPriorityStormWorkload(sys, 30, 48, 12, &urgent, nullptr);
        return sys.totalCounts();
    };
    // All-bank REF requires the whole rank idle: overlap impossible.
    EXPECT_EQ(run("serving").refresh_overlap_cycles, 0u);
    // REFpb refreshes one bank while siblings stay open.
    EXPECT_GT(run("serving:refresh=per-bank").refresh_overlap_cycles,
              0u);
}

} // namespace
} // namespace codic
