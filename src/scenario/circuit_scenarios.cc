/**
 * @file
 * Circuit-level scenarios: the internal-timing waveforms (Fig. 2b,
 * Fig. 3, Fig. 10), the variant taxonomy and circuit costs (Table
 * 1), latency/energy per variant (Table 2), the CODIC-sigsa
 * Monte-Carlo analysis (Table 11), and the granularity / sig-opt
 * ablations.
 */

#include "scenario/builtin.h"

#include <cmath>

#include "circuit/analog.h"
#include "circuit/delay_element.h"
#include "circuit/monte_carlo.h"
#include "codic/mode_regs.h"
#include "codic/variant.h"
#include "power/energy_model.h"
#include "puf/response_time.h"
#include "scenario/registry.h"
#include "scenario/scenario_util.h"

namespace codic {

namespace {

/** Emit a transient's voltage series sampled every `step_ns`. */
void
emitSeries(RunContext &ctx, const std::string &section,
           const Transient &tr, double step_ns)
{
    for (const auto &p : tr.points) {
        const double frac = p.t_ns / step_ns;
        if (std::abs(frac - std::round(frac)) > 1e-6)
            continue;
        ctx.row(section, ResultRow()
                             .add("t_ns", p.t_ns)
                             .add("wl", p.wl)
                             .add("eq", p.eq)
                             .add("sense_p", p.sense_p)
                             .add("sense_n", p.sense_n)
                             .add("v_bitline", p.v_bitline)
                             .add("v_cell", p.v_cell));
    }
}

void
runFig2(RunContext &ctx)
{
    const CircuitParams params = CircuitParams::ddr3();
    const VariationDraw nominal{};

    // Precharge: bitline parked at Vdd after a previous access.
    CellCircuit pre_cell(params, nominal);
    pre_cell.setCellVoltage(params.vdd);
    pre_cell.setBitlineVoltage(params.vdd);
    const Transient pre =
        pre_cell.run(variants::precharge().schedule, 20.0);
    emitSeries(ctx, "precharge (EQ[5,11])", pre, 2.0);

    // Activate: stored one, charge sharing then sensing/restore.
    CellCircuit act_cell(params, nominal);
    act_cell.setCellVoltage(params.vdd);
    const Transient act =
        act_cell.run(variants::activate().schedule, 30.0);
    emitSeries(ctx, "activate, stored '1' (wl[5,22] sense[7,22])",
               act, 2.0);

    CellCircuit act0_cell(params, nominal);
    act0_cell.setCellVoltage(0.0);
    const Transient act0 =
        act0_cell.run(variants::activate().schedule, 30.0);
    emitSeries(ctx, "activate, stored '0'", act0, 2.0);

    ctx.row("shape checks vs paper Fig. 1/2b",
            ResultRow()
                .add("charge_sharing_dev_mv",
                     (act.bitlineAt(6.5) - params.vHalf()) * 1e3)
                .add("restored_cell_v", act.finalCell())
                .add("precharged_bitline_v", pre.finalBitline())
                .add("vdd", params.vdd)
                .add("vdd_half", params.vHalf()));
}

void
runFig3(RunContext &ctx)
{
    const CircuitParams params = CircuitParams::ddr3();
    const VariationDraw nominal{};

    for (double init : {1.0, 0.0}) {
        CellCircuit cell(params, nominal);
        cell.setCellVoltage(init * params.vdd);
        const Transient tr = cell.run(variants::sig().schedule, 30.0);
        emitSeries(ctx,
                   std::string("CODIC-sig, stored '") +
                       (init > 0.5 ? "1" : "0") +
                       "' -> capacitor driven to Vdd/2",
                   tr, 4.0);
    }

    {
        CellCircuit cell(params, nominal);
        cell.setCellVoltage(params.vdd); // Stored one is destroyed.
        const Transient tr =
            cell.run(variants::detZero().schedule, 30.0);
        emitSeries(ctx, "CODIC-det, stored '1' -> deterministic '0'",
                   tr, 4.0);
    }
    {
        CellCircuit cell(params, nominal);
        cell.setCellVoltage(0.0);
        const Transient tr =
            cell.run(variants::detOne().schedule, 30.0);
        emitSeries(ctx, "CODIC-det, stored '0' -> deterministic '1'",
                   tr, 4.0);
    }

    {
        CellCircuit cell(params, nominal);
        const Transient tr =
            cell.run(variants::sigsa().schedule, 30.0);
        emitSeries(ctx,
                   "CODIC-sigsa (Fig. 10), designed bias -> '1'", tr,
                   4.0);
    }
    {
        VariationDraw flipped;
        flipped.sa_offset = -30e-3;
        CellCircuit cell(params, flipped);
        const Transient tr =
            cell.run(variants::sigsa().schedule, 30.0);
        emitSeries(ctx, "CODIC-sigsa, -30 mV offset -> '0'", tr, 4.0);
    }

    {
        CellCircuit cell(params, nominal);
        cell.setCellVoltage(params.vdd);
        const Transient tr =
            cell.run(variants::sigOpt().schedule, 16.0);
        emitSeries(ctx,
                   "CODIC-sig-opt (wl[5,11] EQ[7,11]): same effect "
                   "in 13 ns",
                   tr, 4.0);
        ctx.row("sig-opt early termination",
                ResultRow()
                    .add("final_cell_v", tr.finalCell())
                    .add("vdd_half", params.vHalf()));
    }
}

void
runTable1(RunContext &ctx)
{
    for (const auto &v : variants::all()) {
        ctx.row("in-DRAM signals of the named commands",
                ResultRow()
                    .add("command", v.name)
                    .add("class", variantClassName(v.classify()))
                    .add("signals", v.schedule.str()));
    }

    ctx.row("variant space (Section 4.1.3)",
            ResultRow()
                .add("pulses_per_signal",
                     SignalSchedule::pulsesPerSignal())
                .add("total_variants",
                     SignalSchedule::totalVariants())
                .add("paper_pulses", 300)
                .add("paper_total", "300^4 = 8.1e9"));

    DelayElement element;
    ctx.row("CODIC circuit costs (Section 4.2.1)",
            ResultRow()
                .add("metric", "delay element area / mat (1 signal)")
                .add("model", element.areaOverheadPerMat())
                .add("paper", "0.28 %"));
    ctx.row("CODIC circuit costs (Section 4.2.1)",
            ResultRow()
                .add("metric", "full CODIC area / mat (4 signals)")
                .add("model", element.fullCodicAreaOverheadPerMat())
                .add("paper", "1.12 %"));
    ctx.row("CODIC circuit costs (Section 4.2.1)",
            ResultRow()
                .add("metric", "switching energy (4 elements, fJ)")
                .add("model", 4.0 * element.energyPerOperationFj())
                .add("paper", "< 500 fJ"));
    ctx.row("CODIC circuit costs (Section 4.2.1)",
            ResultRow()
                .add("metric", "added delay on DDRx ACT path (ns)")
                .add("model", element.ddrxPathPenaltyNs())
                .add("paper", "0.028 ns"));
    ctx.row("CODIC circuit costs (Section 4.2.1)",
            ResultRow()
                .add("metric", "buffer stage delay (ns)")
                .add("model", element.delayNs(1))
                .add("paper", "~1 ns"));

    ModeRegisterFile mrf;
    mrf.program(variants::sig().schedule);
    for (size_t i = 0; i < kNumSignals; ++i) {
        const auto sig = static_cast<Signal>(i);
        const auto pulse = mrf.decode().pulse(sig);
        std::string pulse_text = "(disabled)";
        if (pulse) {
            pulse_text = "[";
            pulse_text += std::to_string(pulse->start_ns);
            pulse_text += ',';
            pulse_text += std::to_string(pulse->end_ns);
            pulse_text += ']';
        }
        ctx.row("mode-register encoding of CODIC-sig (Section 4.2.2)",
                ResultRow()
                    .add("signal", signalName(sig))
                    .add("mr_value",
                         static_cast<uint64_t>(mrf.readRegister(sig)))
                    .add("pulse", pulse_text));
    }
}

void
runTable2(RunContext &ctx)
{
    struct PaperRow
    {
        const char *name;
        CodicVariant variant;
        double paper_latency_ns;
        double paper_energy_nj;
    };
    const PaperRow rows[] = {
        {"CODIC-activate", variants::activate(), 35.0, 17.3},
        {"CODIC-precharge", variants::precharge(), 13.0, 17.2},
        {"CODIC-sig", variants::sig(), 35.0, 17.2},
        {"CODIC-sig-opt", variants::sigOpt(), 13.0, 17.2},
        {"CODIC-det", variants::detZero(), 35.0, 17.2},
    };
    for (const auto &row : rows) {
        ctx.row("latency and energy of the CODIC command variants",
                ResultRow()
                    .add("primitive", row.name)
                    .add("latency_ns",
                         variantLatencyNs(row.variant.schedule))
                    .add("paper_latency_ns", row.paper_latency_ns)
                    .add("energy_nj",
                         variantEnergyNj(row.variant.schedule))
                    .add("paper_energy_nj", row.paper_energy_nj));
    }
    ctx.row("observations (Section 4.3)",
            ResultRow()
                .add("sig_opt_speedup",
                     variantLatencyNs(variants::sig().schedule) /
                         variantLatencyNs(variants::sigOpt().schedule))
                .add("energy_spread_frac",
                     variantEnergyNj(variants::activate().schedule) /
                             variantEnergyNj(
                                 variants::sig().schedule) -
                         1.0));
    ctx.note("Routing (~40%) and array operation (~40%) dominate "
             "every command, so energies are nearly equal across "
             "variants.");
}

void
runTable11(RunContext &ctx)
{
    const size_t runs = ctx.scaled(100000);

    const std::pair<double, const char *> pv_rows[] = {
        {0.02, "0.00 %"},
        {0.03, "0.00 %"},
        {0.04, "0.02 %"},
        {0.05, "0.19 %"},
    };
    for (const auto &[pv, paper] : pv_rows) {
        MonteCarloConfig mc;
        mc.run.seed = paperSeed(
            ctx.options(), 100 + static_cast<uint64_t>(pv * 1000));
        mc.run.threads = ctx.options().threads;
        mc.schedule = sigsaSchedule();
        mc.params.process_variation = pv;
        mc.runs = runs;
        const auto r = runMonteCarlo(mc);
        ctx.row("bit flips vs process variation",
                ResultRow()
                    .add("process_variation", pv)
                    .add("runs", runs)
                    .add("flip_fraction", r.flipFraction())
                    .add("paper", paper));
    }

    const std::pair<double, const char *> t_rows[] = {
        {30.0, "0.02 %"},
        {60.0, "0.19 %"},
        {70.0, "0.21 %"},
        {85.0, "0.15 %"},
    };
    for (const auto &[temp, paper] : t_rows) {
        MonteCarloConfig mc;
        mc.run.seed = paperSeed(ctx.options(),
                                200 + static_cast<uint64_t>(temp));
        mc.run.threads = ctx.options().threads;
        mc.schedule = sigsaSchedule();
        mc.params.temperature_c = temp;
        mc.runs = runs;
        const auto r = runMonteCarlo(mc);
        ctx.row("bit flips vs temperature (4% PV)",
                ResultRow()
                    .add("temperature_c", temp)
                    .add("runs", runs)
                    .add("flip_fraction", r.flipFraction())
                    .add("paper", paper));
    }
    ctx.note("Flips appear once process variation exceeds the "
             "designed SA bias (~4%) and grow quickly; temperature "
             "raises flips sharply then saturates (the paper's "
             "non-monotonic 85 C point is within 100k-run sampling "
             "noise).");
}

void
runAblationGranularity(RunContext &ctx)
{
    struct Step
    {
        double step_ns;
        size_t taps;
    };
    for (const auto &[step_ns, taps] :
         {Step{1.0, 25}, Step{2.0, 13}, Step{4.0, 7}, Step{8.0, 4}}) {
        DelayElementParams p;
        p.taps = taps;
        p.buffer_delay_ns = step_ns;
        DelayElement e(p);
        ctx.row("time-step granularity vs area",
                ResultRow()
                    .add("step_ns", step_ns)
                    .add("taps", taps)
                    .add("area_per_mat_1sig", e.areaOverheadPerMat())
                    .add("area_per_mat_4sig",
                         e.fullCodicAreaOverheadPerMat())
                    .add("pulses_per_signal",
                         SignalSchedule::pulsesPerSignal(
                             static_cast<int>(taps)))
                    .add("energy_4elem_fj",
                         4.0 * e.energyPerOperationFj()));
    }
    ctx.note("Halving the resolution roughly halves the area "
             "(buffers dominate) but shrinks the variant space "
             "quadratically per signal; 1 ns / 25 taps (the paper's "
             "choice) keeps the full 300^4 design space at 1.12% mat "
             "area. Steps coarser than ~4 ns can no longer express "
             "CODIC-sig vs CODIC-det orderings within the 25 ns "
             "window.");
}

void
runAblationSigOpt(RunContext &ctx)
{
    const CircuitParams params = CircuitParams::ddr3();
    const VariationDraw nominal{};

    for (int end : {9, 10, 11, 13, 16, 22}) {
        SignalSchedule s;
        s.set(Signal::Wl, 5, end);
        s.set(Signal::Eq, 7, end);

        double err[2];
        int idx = 0;
        for (double init : {params.vdd, 0.0}) {
            CellCircuit cell(params, nominal);
            cell.setCellVoltage(init);
            cell.run(s, 30.0);
            err[idx++] =
                std::fabs(cell.cellVoltage() - params.vHalf()) * 1e3;
        }
        ctx.row("early-termination sweep",
                ResultRow()
                    .add("deassert_ns", end)
                    .add("bank_occupancy_ns", variantLatencyNs(s))
                    .add("cell_err_stored1_mv", err[0])
                    .add("cell_err_stored0_mv", err[1]));
    }

    const DramConfig cfg =
        moduleFor(ctx.options(), ctx.options().capacityMbOr(2048),
                  ctx.options().channelsOr(1));
    const auto sig = evaluationTime(PufKind::CodicSig, true, cfg);
    const auto opt = evaluationTime(PufKind::CodicSigOpt, true, cfg);
    ctx.row("end-to-end PUF evaluation (native command-level)",
            ResultRow()
                .add("codic_sig_ns", sig.native_ns)
                .add("codic_sig_opt_ns", opt.native_ns)
                .add("speedup_frac",
                     sig.native_ns / opt.native_ns - 1.0));
    ctx.note("By 11 ns the capacitor error is sub-millivolt, so the "
             "13 ns sig-opt command (vs 35 ns) loses no reliability "
             "(paper Section 4.1.1).");
}

} // namespace

void
registerCircuitScenarios(ScenarioRegistry &registry)
{
    registry.add(makeScenario(
        "circuit_fig2_waveforms",
        "Fig. 2b: internal-signal waveforms of regular precharge and "
        "activate at circuit level",
        runFig2));
    registry.add(makeScenario(
        "circuit_fig3_codic_waveforms",
        "Fig. 3 / Fig. 10: CODIC-sig, CODIC-det, CODIC-sigsa, and "
        "sig-opt transients",
        runFig3));
    registry.add(makeScenario(
        "circuit_table1_variants",
        "Table 1: variant taxonomy, the 300^4 variant space, circuit "
        "costs, and mode-register encoding",
        runTable1));
    registry.add(makeScenario(
        "circuit_table2_latency_energy",
        "Table 2: latency and energy of the five CODIC command "
        "variants",
        runTable2));
    registry.add(makeScenario(
        "circuit_table11_sigsa",
        "Table 11: Monte-Carlo CODIC-sigsa bit flips vs process "
        "variation and temperature",
        runTable11));
    registry.add(makeScenario(
        "circuit_ablation_granularity",
        "Ablation: delay-element time-step granularity vs silicon "
        "cost and variant-space size",
        runAblationGranularity));
    registry.add(makeScenario(
        "circuit_ablation_sig_opt",
        "Ablation: CODIC-sig early termination - residual capacitor "
        "error vs deassert time and end-to-end impact",
        runAblationSigOpt));
}

} // namespace codic
