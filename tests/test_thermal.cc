/**
 * @file
 * Tests of the closed-loop thermal subsystem: the RC model's idle
 * fixed point (exactly ambient, so the loop reproduces the paper's
 * static 30 C numbers), heating/cooling dynamics, epoch activity
 * accounting (snapshot differencing against the cumulative per-bank
 * counters and the open-row residency clock), the deterministic
 * monotone temperature -> PUF flip response, throttle hysteresis,
 * and the thermal/co-sim option validation.
 */

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/result_sink.h"
#include "common/run_options.h"
#include "dram/system.h"
#include "puf/chip_model.h"
#include "puf/sig_puf.h"
#include "scenario/registry.h"
#include "thermal/epoch_stats.h"
#include "thermal/thermal_model.h"

namespace codic {
namespace {

DramConfig
cfg()
{
    return DramConfig::ddr3_1600(256);
}

BankEpochActivity
activity(uint64_t act, uint64_t rd, uint64_t wr, uint64_t ref = 0,
         Cycle open = 0)
{
    BankEpochActivity a;
    a.act = act;
    a.rd = rd;
    a.wr = wr;
    a.ref = ref;
    a.open_cycles = open;
    return a;
}

// --- RC model dynamics. ---

TEST(Thermal, IdleBankSitsExactlyAtAmbient)
{
    // The idle fixed point must be exact (not asymptotic): zero
    // activity means P = 0, T_ss = ambient, and a bank already at
    // ambient stays bit-identical there - the invariant that makes
    // the closed loop reproduce the paper's static numbers.
    ThermalConfig tc;
    ThermalModel model(tc, 8);
    const std::vector<BankEpochActivity> idle(
        8, activity(0, 0, 0, 0, 0));
    for (int e = 0; e < 100; ++e) {
        model.stepEpoch(idle, 100e3, 1.25);
        for (size_t b = 0; b < model.bankCount(); ++b)
            ASSERT_EQ(model.bankTemp(b), tc.ambient_c);
    }
}

TEST(Thermal, ActivityHeatsAndIdleCoolsMonotonically)
{
    ThermalConfig tc;
    ThermalModel model(tc, 2);
    std::vector<BankEpochActivity> load = {
        activity(500, 0, 20000), activity(0, 0, 0)};
    double prev = tc.ambient_c;
    for (int e = 0; e < 10; ++e) {
        model.stepEpoch(load, 100e3, 1.25);
        EXPECT_GT(model.bankTemp(0), prev);
        EXPECT_EQ(model.bankTemp(1), tc.ambient_c);
        prev = model.bankTemp(0);
    }
    EXPECT_EQ(model.hottestBank(), 0u);
    EXPECT_EQ(model.maxTemp(), model.bankTemp(0));

    // Cooling relaxes toward ambient without ever crossing it.
    for (int e = 0; e < 60; ++e) {
        model.stepIdle(100e3);
        EXPECT_LT(model.bankTemp(0), prev);
        EXPECT_GT(model.bankTemp(0), tc.ambient_c);
        prev = model.bankTemp(0);
    }
    EXPECT_NEAR(model.bankTemp(0), tc.ambient_c, 0.5);
}

TEST(Thermal, SteadyStateMatchesPowerOverConductance)
{
    // Constant power converges to T_ss = ambient + P / G.
    ThermalConfig tc;
    ThermalModel model(tc, 1);
    const std::vector<BankEpochActivity> load = {
        activity(1000, 0, 10000)};
    const double epoch_ns = 100e3;
    const double energy_nj = model.bankEnergyNj(load[0], 1.25);
    const double power_w = energy_nj * 1e-9 / (epoch_ns * 1e-9);
    const double t_ss =
        tc.ambient_c + power_w / tc.conductance_w_per_k;
    for (int e = 0; e < 200; ++e)
        model.stepEpoch(load, epoch_ns, 1.25);
    EXPECT_NEAR(model.bankTemp(0), t_ss, 1e-6);
}

TEST(Thermal, BankEnergyAddsCommandAndResidencyTerms)
{
    ThermalConfig tc;
    ThermalModel model(tc, 1);
    EnergyParams ep;
    EXPECT_DOUBLE_EQ(model.bankEnergyNj(activity(0, 0, 0), 1.25), 0.0);
    EXPECT_DOUBLE_EQ(model.bankEnergyNj(activity(0, 3, 0), 1.25),
                     3 * ep.rd_burst_nj);
    EXPECT_DOUBLE_EQ(model.bankEnergyNj(activity(0, 0, 5), 1.25),
                     5 * ep.wr_burst_nj);
    EXPECT_DOUBLE_EQ(model.bankEnergyNj(activity(0, 0, 0, 2), 1.25),
                     2 * ep.ref_nj);
    EXPECT_DOUBLE_EQ(model.bankEnergyNj(activity(1, 0, 0), 1.25),
                     actPreEnergyNj(ep));
    // 800 cycles * 1.25 ns * 2 mW = 1000 ns * 2e-3 nJ/ns = 2 nJ.
    EXPECT_DOUBLE_EQ(
        model.bankEnergyNj(activity(0, 0, 0, 0, 800), 1.25),
        tc.open_row_mw * 1000.0 * 1e-3);
}

// --- Epoch activity accounting. ---

TEST(Thermal, EpochStatsDifferencesCumulativeCounters)
{
    DramSystem sys(cfg());
    EpochStats stats(sys);
    ASSERT_EQ(stats.bankCount(), sys.perBankCounts().size());

    // Epoch 1: some reads across two banks.
    for (uint64_t i = 0; i < 10; ++i)
        sys.read(i * 64, i * 4);
    const Cycle t1 = sys.read(1 << 14, 100);
    auto epoch1 = stats.endEpoch(t1);
    uint64_t rd1 = 0, act1 = 0;
    for (const auto &a : epoch1) {
        rd1 += a.rd;
        act1 += a.act;
    }
    EXPECT_EQ(rd1, sys.totalCounts().rd);
    EXPECT_EQ(act1, sys.totalCounts().act);

    // Epoch 2: only the delta shows, not the cumulative totals.
    const Cycle t2 = sys.write(0, t1 + 100);
    sys.drainAll();
    auto epoch2 = stats.endEpoch(t2 + 1000);
    uint64_t rd2 = 0, wr2 = 0;
    for (const auto &a : epoch2) {
        rd2 += a.rd;
        wr2 += a.wr;
    }
    EXPECT_EQ(rd2, 0u);
    EXPECT_EQ(wr2, sys.totalCounts().wr);
}

TEST(Thermal, PerBankCountersSumToScalarCounters)
{
    DramSystem sys(cfg());
    for (uint64_t i = 0; i < 200; ++i)
        sys.read(i * 4096, i * 8);
    for (uint64_t i = 0; i < 50; ++i)
        sys.write(i * 8192, 2000 + i * 8);
    sys.drainAll();

    const CommandCounts totals = sys.totalCounts();
    uint64_t act = 0, rd = 0, wr = 0;
    for (const auto &b : sys.perBankCounts()) {
        act += b.act;
        rd += b.rd;
        wr += b.wr;
    }
    EXPECT_EQ(act, totals.act);
    EXPECT_EQ(rd, totals.rd);
    EXPECT_EQ(wr, totals.wr);
    EXPECT_GT(rd, 0u);
    EXPECT_GT(wr, 0u);
}

TEST(Thermal, OpenResidencyTracksActToPrech)
{
    DramChannel ch(cfg());
    Command act;
    act.type = CommandType::Act;
    Command pre;
    pre.type = CommandType::Pre;

    // ACT at 100: residency accrues while the row stays open.
    ch.issue(act, 100);
    EXPECT_EQ(ch.openResidency(0, 0, 100), 0u);
    EXPECT_EQ(ch.openResidency(0, 0, 350), 250u);
    // PRE at 400 freezes the clock at 300 open cycles.
    ch.issue(pre, 400);
    EXPECT_EQ(ch.openResidency(0, 0, 400), 300u);
    EXPECT_EQ(ch.openResidency(0, 0, 1400), 300u);
    // A second ACT/PRE episode accumulates on top.
    ch.issueAtEarliest(act, 1500);
    ch.issueAtEarliest(pre, 1700);
    EXPECT_EQ(ch.openResidency(0, 0, 3000), 500u);
}

// --- Temperature -> PUF feedback. ---

TEST(Thermal, SigPufResponseDegradesMonotonicallyWithTemperature)
{
    const auto chips = buildPaperPopulation(2021);
    const SimulatedChip &chip = chips.front();
    const CodicSigPuf puf;
    Challenge ch;
    ch.segment_id = 3;
    QueryEnv env;
    env.nonce = 42;

    env.temperature_c = 30.0;
    const Response enrolled = puf.evaluateFiltered(chip, ch, env);
    ASSERT_GT(enrolled.size(), 0u);

    double prev_jaccard = 1.0;
    for (double t : {35.0, 42.0, 50.0, 60.0, 75.0}) {
        env.temperature_c = t;
        const Response r = puf.evaluateFiltered(chip, ch, env);
        const double j = jaccard(enrolled, r);
        EXPECT_LE(j, prev_jaccard) << "at " << t << " C";
        prev_jaccard = j;
    }
    // A 45 C delta must produce a nonzero flip response.
    EXPECT_LT(prev_jaccard, 1.0);
}

// --- Throttle hysteresis. ---

TEST(Thermal, ThrottleEngagesAboveCeilingReleasesBelowFloor)
{
    ThermalThrottle throttle(36.0, 34.0);
    EXPECT_FALSE(throttle.update(35.9)); // Below ceiling: off.
    EXPECT_TRUE(throttle.update(36.1));  // Crossed: on.
    EXPECT_TRUE(throttle.update(35.0));  // In the band: stays on.
    EXPECT_TRUE(throttle.update(34.0));  // At the floor: stays on.
    EXPECT_FALSE(throttle.update(33.9)); // Below floor: off.
    EXPECT_FALSE(throttle.update(35.5)); // In the band: stays off.
    EXPECT_EQ(throttle.engagements(), 1u);
    EXPECT_TRUE(throttle.update(40.0));
    EXPECT_EQ(throttle.engagements(), 2u);
}

TEST(Thermal, ThrottleRejectsInvertedBand)
{
    EXPECT_THROW(ThermalThrottle(34.0, 36.0), PanicError);
}

// --- Option validation. ---

TEST(Thermal, ThermalConfigValidateRejectsOutOfContract)
{
    ThermalConfig tc;
    tc.validate(); // Defaults are valid.

    ThermalConfig bad = tc;
    bad.ambient_c = 130.0;
    EXPECT_THROW(bad.validate(), FatalError);
    bad.ambient_c = std::nan("");
    EXPECT_THROW(bad.validate(), FatalError);

    bad = tc;
    bad.conductance_w_per_k = 0.0;
    EXPECT_THROW(bad.validate(), FatalError);

    bad = tc;
    bad.capacitance_j_per_k = -1.0;
    EXPECT_THROW(bad.validate(), FatalError);

    bad = tc;
    bad.epoch_us = 0.0;
    EXPECT_THROW(bad.validate(), FatalError);

    bad = tc;
    bad.open_row_mw = -0.5;
    EXPECT_THROW(bad.validate(), FatalError);
}

TEST(Thermal, RunOptionsValidateRejectsBadThermalFlags)
{
    RunOptions good;
    good.validate();

    RunOptions o;
    o.ambient_c = -41.0;
    EXPECT_THROW(o.validate(), FatalError);
    o.ambient_c = 121.0;
    EXPECT_THROW(o.validate(), FatalError);
    o.ambient_c = std::nan("");
    EXPECT_THROW(o.validate(), FatalError);

    o = RunOptions{};
    o.epoch_us = -1.0;
    EXPECT_THROW(o.validate(), FatalError);
    o.epoch_us = std::numeric_limits<double>::infinity();
    EXPECT_THROW(o.validate(), FatalError);

    o = RunOptions{};
    o.cores = -2;
    EXPECT_THROW(o.validate(), FatalError);

    // Sentinels and the paper operating point stay legal.
    o = RunOptions{};
    o.ambient_c = 30.0;
    o.epoch_us = 0.0;
    o.cores = 0;
    o.validate();
    o.epoch_us = 250.0;
    o.cores = 4;
    o.validate();
    EXPECT_DOUBLE_EQ(o.epochUsOr(100.0), 250.0);
    EXPECT_EQ(o.coresOr(2), 4);
    o.epoch_us = 0.0;
    o.cores = 0;
    EXPECT_DOUBLE_EQ(o.epochUsOr(100.0), 100.0);
    EXPECT_EQ(o.coresOr(2), 2);
}

/** The message of the FatalError `name` raises under `options`. */
std::string
fatalMessage(const char *name, RunOptions options)
{
    options.scale = 0.05;
    std::ostringstream out;
    JsonResultSink sink(out);
    try {
        runScenario(name, options, sink);
    } catch (const FatalError &e) {
        return e.what();
    }
    ADD_FAILURE() << name << " did not raise FatalError";
    return "";
}

TEST(Thermal, MoreCoresThanTheModuleSplitsIntoIsFatal)
{
    // Each multicore_contention core owns an eighth of the module.
    RunOptions o;
    o.cores = 9;
    const std::string msg = fatalMessage("multicore_contention", o);
    EXPECT_NE(msg.find("--cores 9"), std::string::npos) << msg;
    EXPECT_NE(msg.find("limit of 8"), std::string::npos) << msg;
}

TEST(Thermal, EpochTooLongForACycleCountIsFatal)
{
    for (const char *name : {"thermal_feedback", "thermal_throttling"})
        for (const double epoch_us : {1e17, 1e300}) {
            SCOPED_TRACE(name);
            RunOptions o;
            o.epoch_us = epoch_us;
            EXPECT_NE(fatalMessage(name, o).find("--epoch-us"),
                      std::string::npos);
        }
}

TEST(Thermal, EpochPastTheSettlingLimitIsFatal)
{
    // Storms are sized in writes per epoch, so an epoch far past the
    // thermal settling time would run for hours; it must fail fast,
    // naming the flag and the 25-tau (10 ms) limit.
    for (const char *name : {"thermal_feedback", "thermal_throttling"})
        for (const double epoch_us : {1e9, 10000.5}) {
            SCOPED_TRACE(name);
            RunOptions o;
            o.epoch_us = epoch_us;
            const std::string msg = fatalMessage(name, o);
            EXPECT_NE(msg.find("--epoch-us"), std::string::npos) << msg;
            EXPECT_NE(msg.find("limit of 10000 us"), std::string::npos)
                << msg;
        }
}

} // namespace
} // namespace codic
