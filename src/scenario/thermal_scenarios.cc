/**
 * @file
 * Co-simulation and thermal-feedback scenarios (repository
 * extension): the tick-driven TickEngine (sim/engine.h) advancing
 * producers against one DramSystem, with per-bank epoch activity
 * driving the RC thermal model (thermal/thermal_model.h) and
 * temperature feeding back into the chip model each epoch.
 *
 *  - thermal_feedback: activity -> temperature -> PUF flip-rate
 *    closed loop. At idle the per-bank temperatures sit at exactly
 *    the ambient fixed point, so every PUF evaluation is
 *    byte-identical to the paper's static 30 C campaign - the
 *    idle-convergence invariant CI pins. A sustained write storm
 *    heats the stormed bank and the response degrades monotonically
 *    (deterministic nested dropout in the sig-cell model).
 *  - multicore_contention: 2-8 InOrderCores sharing one DramSystem
 *    on the TickEngine, per-core slowdown vs a solo run of the same
 *    trace on a private system.
 *  - thermal_throttling: the storm's injection rate is throttled
 *    when the hottest bank crosses a temperature ceiling
 *    (hysteresis), bounding the peak the unregulated run exceeds.
 *
 * Determinism: the TickEngine is serial and tie-breaks by producer
 * registration order, so every structured row is a pure function of
 * (seed, scale) - independent of --threads by construction.
 */

#include "scenario/builtin.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "dram/system.h"
#include "puf/puf.h"
#include "puf/retention.h"
#include "puf/sig_puf.h"
#include "scenario/registry.h"
#include "scenario/scenario_util.h"
#include "sim/core.h"
#include "sim/engine.h"
#include "sim/workloads.h"
#include "thermal/epoch_stats.h"
#include "thermal/thermal_model.h"

namespace codic {

namespace {

/** |a \ b|: enrolled cells missing from the query response. */
size_t
droppedCells(const Response &enrolled, const Response &query)
{
    std::vector<uint32_t> out;
    std::set_difference(enrolled.cells.begin(), enrolled.cells.end(),
                        query.cells.begin(), query.cells.end(),
                        std::back_inserter(out));
    return out.size();
}

/** Segments of `chip` that land on DRAM bank 0 (the stormed bank). */
std::vector<uint64_t>
bankZeroSegments(const SimulatedChip &chip, size_t count)
{
    std::vector<uint64_t> segs;
    for (uint64_t s = 0; segs.size() < count && s < 512; ++s)
        if (chip.segmentBank(s) == 0)
            segs.push_back(s);
    return segs;
}

/** The population chip with the densest sig flip-cell population. */
const SimulatedChip &
densestChip(const std::vector<SimulatedChip> &chips)
{
    const SimulatedChip *best = &chips.front();
    for (const auto &c : chips)
        if (c.sigFlipFraction() > best->sigFlipFraction())
            best = &c;
    return *best;
}

/**
 * Longest accepted thermal epoch, in RC time constants of the
 * thermal model. After a few tau every bank settles within one
 * epoch, so a longer epoch only adds run time: the storms are sized
 * in writes per epoch.
 */
constexpr double kMaxEpochTaus = 25.0;

/**
 * The thermal epoch of `tc.epoch_us` microseconds in DRAM cycles. An
 * epoch past kMaxEpochTaus time constants is a user error, raised
 * before any storm or PUF population is built (and long before the
 * cycle count could overflow).
 */
Cycle
epochCycles(const DramConfig &cfg, const ThermalConfig &tc)
{
    const double limit_us = kMaxEpochTaus * tc.tauUs();
    if (!(tc.epoch_us <= limit_us))
        fatal("--epoch-us ", tc.epoch_us, " exceeds the limit of ",
              limit_us, " us (", kMaxEpochTaus,
              " thermal time constants of ", tc.tauUs(),
              " us); every bank settles within one epoch long before "
              "that, so a longer epoch only adds run time");
    return cfg.nsToCycles(tc.epoch_us * 1000.0);
}

/** Mean Jaccard and total dropped cells of one epoch's evaluation. */
struct EpochPufSample
{
    double mean_jaccard = 1.0;
    uint64_t dropped = 0;
    uint64_t enrolled = 0;
};

EpochPufSample
evaluateAt(const CodicSigPuf &puf, const SimulatedChip &chip,
           const std::vector<uint64_t> &segments,
           const std::vector<Response> &enrolled, double temp_c)
{
    EpochPufSample sample;
    double jaccard_sum = 0.0;
    for (size_t i = 0; i < segments.size(); ++i) {
        Challenge ch;
        ch.segment_id = segments[i];
        QueryEnv env;
        env.temperature_c = temp_c;
        // Same nonce as enrollment: the only difference between the
        // epoch evaluation and the reference is the temperature, so
        // the response delta is purely the thermal feedback.
        env.nonce = segments[i];
        const Response resp = puf.evaluateFiltered(chip, ch, env);
        jaccard_sum += jaccard(enrolled[i], resp);
        sample.dropped += droppedCells(enrolled[i], resp);
        sample.enrolled += enrolled[i].size();
    }
    sample.mean_jaccard =
        jaccard_sum / static_cast<double>(segments.size());
    return sample;
}

void
runThermalFeedback(RunContext &ctx)
{
    const RunOptions &opts = ctx.options();
    DramConfig cfg =
        moduleFor(opts, opts.capacityMbOr(64), opts.channelsOr(1));
    cfg.scheduler = schedulerFor(opts, "eager");
    DramSystem sys(cfg);

    ThermalConfig tc;
    tc.ambient_c = opts.ambient_c;
    tc.epoch_us = opts.epochUsOr(100.0);
    EpochStats stats(sys);
    ThermalModel model(tc, stats.bankCount());
    const Cycle epoch_cycles = epochCycles(cfg, tc);
    const double epoch_ns = tc.epoch_us * 1000.0;

    // The PUF under feedback: the densest flip-cell chip of the
    // paper population, enrolled at ambient on segments of the bank
    // the storm will heat.
    const auto chips = buildPaperPopulation(paperSeed(opts, 2021));
    const SimulatedChip &chip = densestChip(chips);
    const CodicSigPuf puf;
    const auto segments =
        bankZeroSegments(chip, std::max<size_t>(2, ctx.scaled(8)));
    std::vector<Response> enrolled;
    for (uint64_t s : segments) {
        Challenge ch;
        ch.segment_id = s;
        QueryEnv env;
        env.temperature_c = tc.ambient_c;
        env.nonce = s;
        enrolled.push_back(puf.evaluateFiltered(chip, ch, env));
    }
    uint64_t enrolled_cells = 0;
    for (const Response &r : enrolled)
        enrolled_cells += r.size();
    ctx.row("static reference (paper campaign conditions)",
            ResultRow()
                .add("ambient_c", tc.ambient_c)
                .add("segments", static_cast<uint64_t>(segments.size()))
                .add("enrolled_cells", enrolled_cells)
                .add("sig_flip_fraction", chip.sigFlipFraction()));

    // The bank the storm targets: channel 0 / rank 0 / bank 0 is
    // activity index 0 in EpochStats order.
    const size_t storm_bank = 0;

    // --- Phase 1: idle epochs. No activity means every bank's
    // steady state IS the ambient, so the closed loop must reproduce
    // the static reference byte-for-byte. ---
    const size_t idle_epochs = std::max<size_t>(3, ctx.scaled(6));
    Cycle now = 0;
    bool idle_identical = true;
    for (size_t e = 0; e < idle_epochs; ++e) {
        now += epoch_cycles;
        model.stepEpoch(stats.endEpoch(now), epoch_ns, cfg.tck_ns);
        const double temp = model.bankTemp(storm_bank);
        const EpochPufSample s =
            evaluateAt(puf, chip, segments, enrolled, temp);
        idle_identical = idle_identical && s.dropped == 0 &&
                         s.mean_jaccard == 1.0;
        ctx.row("idle epochs (must match the static reference)",
                ResultRow()
                    .add("epoch", static_cast<uint64_t>(e))
                    .add("bank_temp_c", temp)
                    .add("mean_jaccard", s.mean_jaccard)
                    .add("dropped_cells", s.dropped)
                    .add("matches_static", s.dropped == 0 &&
                                               s.mean_jaccard == 1.0));
    }
    ctx.note("Idle epochs carry zero activity energy, so the RC "
             "update holds every bank at exactly ambient_c and each "
             "PUF evaluation equals the paper's static campaign "
             "response bit-for-bit.");

    // --- Phase 2: write storm on bank 0 through the TickEngine. ---
    const size_t storm_epochs = std::max<size_t>(4, ctx.scaled(10));
    const Cycle gap = 4; // Saturating row-hit write stream.
    const uint64_t writes =
        static_cast<uint64_t>(storm_epochs) *
        static_cast<uint64_t>(epoch_cycles / gap);
    // One row of bank 0 under RowBankColumn: row-sequential wrap.
    StormSource storm(sys, /*base_addr=*/0,
                      static_cast<uint64_t>(sys.map().rowBytes()),
                      writes, gap, now);
    TickEngine engine(sys);
    engine.add(&storm);

    std::vector<double> temps;
    std::vector<double> jaccards;
    uint64_t epoch_index = 0;
    uint64_t last_wr = 0;
    engine.setEpoch(epoch_cycles, [&](Cycle boundary) {
        model.stepEpoch(stats.endEpoch(boundary), epoch_ns,
                        cfg.tck_ns);
        const double temp = model.bankTemp(storm_bank);
        const EpochPufSample s =
            evaluateAt(puf, chip, segments, enrolled, temp);
        const uint64_t wr = sys.totalCounts().wr;
        temps.push_back(temp);
        jaccards.push_back(s.mean_jaccard);
        ctx.row("write-storm epochs (temperature -> flip response)",
                ResultRow()
                    .add("epoch", epoch_index++)
                    .add("bank_temp_c", temp)
                    .add("delta_t_c", temp - tc.ambient_c)
                    .add("epoch_writes", wr - last_wr)
                    .add("mean_jaccard", s.mean_jaccard)
                    .add("dropped_cells", s.dropped));
        last_wr = wr;
    });
    engine.run();

    bool temps_monotone = true;
    bool flips_monotone = true;
    for (size_t i = 1; i < temps.size(); ++i) {
        // The closing partial epoch may cool; require monotonicity
        // over the full-length heating epochs.
        if (i + 1 < temps.size() && temps[i] < temps[i - 1])
            temps_monotone = false;
        if (i + 1 < jaccards.size() && jaccards[i] > jaccards[i - 1])
            flips_monotone = false;
    }
    const double peak = *std::max_element(temps.begin(), temps.end());
    const double final_jaccard =
        *std::min_element(jaccards.begin(), jaccards.end());

    // Retention feedback: the same peak temperature accelerates the
    // refresh-free decay of the Section 6.1 methodology, raising its
    // coverage (cells reach Vdd/2 sooner when hot).
    RetentionExperimentConfig rc;
    rc.sample_cells = static_cast<int>(ctx.scaled(4000));
    rc.temperature_c = tc.ambient_c;
    const auto ret_ambient = runRetentionExperiment(chip, rc);
    rc.temperature_c = peak;
    const auto ret_peak = runRetentionExperiment(chip, rc);

    ctx.row("closed-loop summary",
            ResultRow()
                .add("idle_matches_static", idle_identical)
                .add("storm_peak_temp_c", peak)
                .add("temps_monotone", temps_monotone)
                .add("flip_response_monotone", flips_monotone)
                .add("flip_response_nonzero", final_jaccard < 1.0)
                .add("min_mean_jaccard", final_jaccard)
                .add("retention_coverage_ambient",
                     ret_ambient.coverage())
                .add("retention_coverage_peak", ret_peak.coverage()));
    ctx.note("The storm's per-bank ACT/WR energy raises the stormed "
             "bank's RC temperature each epoch; the sig-cell dropout "
             "threshold grows with the delta, so dropped cells nest "
             "across epochs and the flip response is monotone by "
             "construction, while hotter retention decay widens the "
             "48 h methodology's coverage.");
}

void
runMulticoreContention(RunContext &ctx)
{
    const RunOptions &opts = ctx.options();
    DramConfig cfg =
        moduleFor(opts, opts.capacityMbOr(128), opts.channelsOr(1));
    cfg.scheduler = schedulerFor(opts, "eager");

    // Default sweep 2-8 cores; --cores pins a single point (like
    // --devices, an input parameter of the study). Each core owns an
    // eighth of the module, so eight is the limit.
    constexpr int kMaxCores = 8;
    if (opts.cores > kMaxCores)
        fatal("--cores ", opts.cores, " exceeds multicore_contention's "
              "limit of ", kMaxCores,
              " cores: each core owns an eighth of the module");
    std::vector<int> core_counts;
    if (opts.cores > 0)
        core_counts.push_back(opts.cores);
    else
        core_counts = {2, 4, kMaxCores};

    // Benchmarks cycle through the Table 8 allocation-intensive set
    // plus background traces (Table 9 methodology).
    std::vector<std::string> pool = allocationIntensiveBenchmarks();
    for (const auto &b : backgroundBenchmarks())
        pool.push_back(b);

    const uint64_t stride =
        static_cast<uint64_t>(cfg.capacityBytes()) / kMaxCores;
    for (const int n : core_counts) {
        // Per-core traces: scaled-down phase counts keep the sweep
        // fast while preserving the phased structure.
        std::vector<Workload> traces;
        for (int i = 0; i < n; ++i) {
            WorkloadParams wp = benchmarkParams(
                pool[static_cast<size_t>(i) % pool.size()],
                paperSeed(opts, 777) + static_cast<uint64_t>(i));
            wp.phases = ctx.scaled(120);
            wp.footprint_bytes = std::min<uint64_t>(
                wp.footprint_bytes, 4ull << 20);
            traces.push_back(generateWorkload(wp));
        }

        // Solo baselines: each trace on a private system, same
        // address base as in the shared run (identical mapping).
        std::vector<double> solo_ns(static_cast<size_t>(n), 0.0);
        for (int i = 0; i < n; ++i) {
            DramSystem solo_sys(cfg);
            InOrderCore core(solo_sys, CoreConfig{},
                             static_cast<uint64_t>(i) * stride);
            core.bind(&traces[static_cast<size_t>(i)]);
            solo_ns[static_cast<size_t>(i)] = core.run();
        }

        // Shared run: all cores on one DramSystem, interleaved by
        // the TickEngine in exact local-time order.
        DramSystem sys(cfg);
        std::vector<std::unique_ptr<InOrderCore>> cores;
        std::vector<std::unique_ptr<CoreProducer>> producers;
        TickEngine engine(sys);
        for (int i = 0; i < n; ++i) {
            cores.push_back(std::make_unique<InOrderCore>(
                sys, CoreConfig{},
                static_cast<uint64_t>(i) * stride));
            cores.back()->bind(&traces[static_cast<size_t>(i)]);
            producers.push_back(
                std::make_unique<CoreProducer>(*cores.back()));
            engine.add(producers.back().get());
        }
        const Cycle quiescent = engine.run();

        double slowdown_sum = 0.0;
        double makespan_ns = 0.0;
        for (int i = 0; i < n; ++i) {
            const double shared =
                cores[static_cast<size_t>(i)]->timeNs();
            const double solo = solo_ns[static_cast<size_t>(i)];
            const double slowdown = solo > 0.0 ? shared / solo : 1.0;
            slowdown_sum += slowdown;
            makespan_ns = std::max(makespan_ns, shared);
            ctx.row("per-core slowdown vs solo",
                    ResultRow()
                        .add("cores", n)
                        .add("core", i)
                        .add("benchmark",
                             traces[static_cast<size_t>(i)].name)
                        .add("solo_us", solo / 1e3)
                        .add("shared_us", shared / 1e3)
                        .add("slowdown", slowdown));
        }
        ctx.row("contention summary",
                ResultRow()
                    .add("cores", n)
                    .add("mean_slowdown",
                         slowdown_sum / static_cast<double>(n))
                    .add("makespan_us", makespan_ns / 1e3)
                    .add("quiescent_us",
                         cfg.cyclesToNs(quiescent) / 1e3)
                    .add("total_commands",
                         sys.totalCounts().total()));
    }
    ctx.note("The TickEngine always steps the core with the earliest "
             "local clock, so N blocking cores interleave over one "
             "FR-FCFS front-end in global-time order; slowdown vs "
             "solo is pure queueing/bank contention (each core keeps "
             "a private address region).");
}

void
runThermalThrottling(RunContext &ctx)
{
    const RunOptions &opts = ctx.options();
    DramConfig cfg =
        moduleFor(opts, opts.capacityMbOr(64), opts.channelsOr(1));
    cfg.scheduler = schedulerFor(opts, "eager");

    ThermalConfig tc;
    tc.ambient_c = opts.ambient_c;
    tc.epoch_us = opts.epochUsOr(100.0);
    const double ceiling_c = tc.ambient_c + 6.0;
    const double floor_c = tc.ambient_c + 4.0;
    const Cycle epoch_cycles = epochCycles(cfg, tc);
    const double epoch_ns = tc.epoch_us * 1000.0;
    const Cycle gap = 8;
    const uint64_t writes =
        static_cast<uint64_t>(std::max<size_t>(6, ctx.scaled(12))) *
        static_cast<uint64_t>(epoch_cycles / gap);

    // One storm run: returns the peak temperature; when `throttle`
    // is set, the epoch hook modulates the storm's duty cycle.
    const auto runStorm = [&](ThermalThrottle *throttle,
                              const char *section) {
        DramSystem sys(cfg);
        EpochStats stats(sys);
        ThermalModel model(tc, stats.bankCount());
        StormSource storm(sys, 0,
                          static_cast<uint64_t>(sys.map().rowBytes()),
                          writes, gap);
        TickEngine engine(sys);
        engine.add(&storm);
        double peak = tc.ambient_c;
        uint64_t epoch_index = 0;
        uint64_t last_wr = 0;
        engine.setEpoch(epoch_cycles, [&](Cycle boundary) {
            model.stepEpoch(stats.endEpoch(boundary), epoch_ns,
                            cfg.tck_ns);
            const double temp = model.maxTemp();
            peak = std::max(peak, temp);
            bool throttled = false;
            if (throttle != nullptr) {
                throttled = throttle->update(temp);
                // Throttled epochs inject at 1/8 rate: the drain
                // the scheduler would apply when a bank overheats.
                storm.setGapMultiplier(throttled ? 8 : 1);
            }
            const uint64_t wr = sys.totalCounts().wr;
            ctx.row(section,
                    ResultRow()
                        .add("epoch", epoch_index++)
                        .add("max_temp_c", temp)
                        .add("throttled", throttled)
                        .add("epoch_writes", wr - last_wr));
            last_wr = wr;
        });
        engine.run();
        return peak;
    };

    const double unregulated_peak =
        runStorm(nullptr, "unregulated storm");
    ThermalThrottle throttle(ceiling_c, floor_c);
    const double regulated_peak =
        runStorm(&throttle, "throttled storm");

    ctx.row("throttling summary",
            ResultRow()
                .add("ceiling_c", ceiling_c)
                .add("floor_c", floor_c)
                .add("unregulated_peak_c", unregulated_peak)
                .add("regulated_peak_c", regulated_peak)
                .add("peak_reduced",
                     regulated_peak < unregulated_peak)
                .add("overshoot_c",
                     std::max(0.0, regulated_peak - ceiling_c))
                .add("engagements", throttle.engagements()));
    ctx.note("The throttle engages above the ceiling and releases "
             "below the floor (hysteresis): throttled epochs inject "
             "at 1/8 rate, so the bank cools toward ambient and the "
             "regulated peak stays a bounded overshoot above the "
             "ceiling while the unregulated storm runs past it.");
}

} // namespace

void
registerThermalScenarios(ScenarioRegistry &registry)
{
    registry.add(makeScenario(
        "thermal_feedback",
        "Closed loop: per-bank epoch activity -> RC temperature -> "
        "PUF flip response (idle reproduces the static 30 C paper "
        "numbers)",
        runThermalFeedback));
    registry.add(makeScenario(
        "multicore_contention",
        "2-8 in-order cores share one DramSystem on the TickEngine; "
        "per-core slowdown vs solo",
        runMulticoreContention));
    registry.add(makeScenario(
        "thermal_throttling",
        "Injection throttling when a bank crosses the temperature "
        "ceiling (hysteresis) vs an unregulated storm",
        runThermalThrottling));
}

} // namespace codic
