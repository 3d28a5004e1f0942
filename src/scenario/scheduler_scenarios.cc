/**
 * @file
 * Memory-scheduler ablations (repository extension): sweeps of the
 * SchedulerPolicy knobs that PR 4 added to the FR-FCFS controller
 * and the fleet's bank-parallel shard replay.
 *
 *  - Drain watermarks: how batching buffered writes into larger
 *    drain episodes amortizes the rd<->wr data-bus turnaround.
 *  - Row-hit drain batch: how coalescing same-row writes scattered
 *    through the queue removes row-conflict ACT/PRE pairs.
 *  - Replay batch: how many independent devices of a fleet shard
 *    replay bank-parallel on one DramSystem, and what that does to
 *    the shard's replayed makespan.
 *
 * Determinism: every structured row is a pure function of
 * (seed, scale). The sweeps pin their own policy values, so --sched
 * does not change this scenario's output; the fleet sweep also pins
 * its shard count (4), so --shards does not either. The module-step
 * sweeps run serially, so --threads does not change output.
 */

#include "scenario/builtin.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "dram/system.h"
#include "fleet/auth_service.h"
#include "fleet/device_fleet.h"
#include "fleet/enrollment_store.h"
#include "scenario/registry.h"
#include "scenario/scenario_util.h"
#include "scenario/scheduler_workloads.h"

namespace codic {

namespace {

void
runAblationScheduler(RunContext &ctx)
{
    const int64_t capacity_mb = ctx.options().capacityMbOr(256);
    const int channels = ctx.options().channelsOr(1);

    // --- Sweep 1: drain watermarks vs data-bus turnarounds. ---
    {
        const int64_t ops = static_cast<int64_t>(ctx.scaled(4000));
        struct Point { int high, low; };
        for (const Point p : {Point{0, 0}, {25, 10}, {50, 20},
                              {75, 25}, {90, 10}}) {
            DramConfig cfg =
                moduleFor(ctx.options(), capacity_mb, channels);
            cfg.scheduler = SchedulerPolicy::preset("batched");
            cfg.scheduler.drain_high_pct = p.high;
            cfg.scheduler.drain_low_pct = p.low;
            DramSystem sys(cfg);
            const Cycle done = runTurnaroundWorkload(sys, ops);
            const CommandCounts counts = sys.totalCounts();
            ctx.row("write-drain watermarks vs bus turnarounds",
                    ResultRow()
                        .add("drain_high_pct", p.high)
                        .add("drain_low_pct", p.low)
                        .add("writes", counts.wr)
                        .add("drained_equals_accepted",
                             counts.wr ==
                                 static_cast<uint64_t>(ops))
                        .add("wr_rd_turnarounds",
                             counts.wr_rd_turnarounds)
                        .add("rd_wr_turnarounds",
                             counts.rd_wr_turnarounds)
                        .add("makespan_us",
                             cfg.cyclesToNs(done) / 1e3));
        }
        ctx.note("Watermarked drains buffer accepted writes and pay "
                 "the rd<->wr bus turnaround once per drained burst; "
                 "drain_high_pct = 0 is the legacy eager policy "
                 "(every write issues at acceptance).");
    }

    // --- Sweep 2: row-hit drain batch vs row-conflict ACTs. ---
    {
        const int64_t writes = static_cast<int64_t>(ctx.scaled(4000));
        for (const int batch : {1, 2, 4, 8, 16, 32}) {
            DramConfig cfg =
                moduleFor(ctx.options(), capacity_mb, channels);
            cfg.scheduler = SchedulerPolicy::preset("batched");
            cfg.scheduler.max_drain_batch = batch;
            DramSystem sys(cfg);
            const Cycle done = runRowHitWorkload(sys, writes);
            const CommandCounts counts = sys.totalCounts();
            ctx.row("row-hit drain batch vs activations",
                    ResultRow()
                        .add("max_drain_batch", batch)
                        .add("writes", counts.wr)
                        .add("drained_equals_accepted",
                             counts.wr ==
                                 static_cast<uint64_t>(writes))
                        .add("activations", counts.act)
                        .add("acts_per_100_writes",
                             100.0 * static_cast<double>(counts.act) /
                                 static_cast<double>(counts.wr))
                        .add("makespan_us",
                             cfg.cyclesToNs(done) / 1e3));
        }
        ctx.note("The drain picks the oldest pending write and "
                 "coalesces up to max_drain_batch same-row writes "
                 "from anywhere in the queue, so scattered row "
                 "conflicts collapse into row hits.");
    }

    // --- Sweep 3: fleet replay batch vs shard makespan. ---
    {
        FleetConfig fc;
        fc.population_seed = paperSeed(ctx.options(), 2026);
        fc.devices = static_cast<uint64_t>(ctx.scaled(300));
        fc.shards = 4; // Pinned: the sweep variable is replay_batch.
        fc.dram = moduleFor(ctx.options(), capacity_mb, channels);
        fc.dram.scheduler = SchedulerPolicy::preset("batched");

        TrafficConfig tc;
        tc.traffic_seed = paperSeed(ctx.options(), 43);
        tc.requests = static_cast<uint64_t>(ctx.scaled(2000));
        tc.zipf = 0.9;
        tc.weight_auth = 0.7;
        tc.weight_reenroll = 0.1;
        tc.weight_trng = 0.1;
        tc.weight_dealloc = 0.1;

        // Enroll once; every sweep point reloads the snapshot (the
        // store mutates through re-enrollments during execution).
        std::string store_snapshot;
        {
            DeviceFleet fleet(fc);
            EnrollmentStore store(fc.population_seed);
            AuthConfig ac;
            ac.threads = ctx.options().threads;
            AuthService service(fleet, store, ac);
            service.enrollAll();
            std::ostringstream bytes;
            store.saveBinary(bytes);
            store_snapshot = bytes.str();
        }

        double makespan_serial = 0.0;
        for (const int batch : {1, 2, 4, 8, 16}) {
            FleetConfig point = fc;
            point.dram.scheduler.replay_batch = batch;
            EnrollmentStore store =
                EnrollmentStore::loadBinary(store_snapshot);
            DeviceFleet fleet(point);
            AuthConfig ac;
            ac.threads = ctx.options().threads;
            AuthService service(fleet, store, ac);
            const RequestGenerator gen(tc, store.deviceIds());
            const LoadReport report = service.execute(gen.generate());
            const double makespan_ns = report.makespanNs();
            if (batch == 1)
                makespan_serial = makespan_ns;
            ctx.row("fleet replay batch vs shard makespan (4 shards)",
                    ResultRow()
                        .add("replay_batch", batch)
                        .add("requests", report.requests)
                        .add("makespan_ms", makespan_ns / 1e6)
                        .add("speedup_vs_serial",
                             makespan_ns > 0.0
                                 ? makespan_serial / makespan_ns
                                 : 0.0)
                        .addTiming("wall_s", report.wall_seconds));
        }
        ctx.note("replay_batch devices of a shard replay their DRAM "
                 "footprints bank-parallel: the discrete-event "
                 "interleave issues each device's next command in "
                 "near-global-time order, so one device's burst "
                 "chain fills the bus gaps of another's and row-"
                 "command chains hide under read sweeps.");
    }
}

} // namespace

void
registerSchedulerScenarios(ScenarioRegistry &registry)
{
    registry.add(makeScenario(
        "ablation_scheduler",
        "Ablation: FR-FCFS write-drain watermark/row-hit-batch "
        "sweeps and the fleet's bank-parallel replay batch",
        runAblationScheduler));
}

} // namespace codic
