/**
 * @file
 * Shared plumbing of the benchmark: host clocks, the pass loop that
 * turns --seconds into repeated passes, medians, the modeled-output
 * digest, and the metric list every workload fills in.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

/** Seconds on the host's monotonic clock. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Raw tick counter for per-call timing inside traced runs. On x86 it
 * reads the invariant TSC, about half the cost of a steady_clock read
 * (~20 ns against ~37 on a 4-vCPU Xeon VM). Ticks become seconds
 * through a rate calibrated against steady_clock over each traced
 * pass (see TickRate).
 */
inline uint64_t
ticks()
{
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/** Ticks a back-to-back pair of ticks() reads measures (calibrated
 * once per process). */
uint64_t tickReadOffset();

/** Ticks since `t0`, less the reads' own cost. */
inline uint64_t
elapsedTicks(uint64_t t0)
{
    const uint64_t dt = ticks() - t0;
    const uint64_t offset = tickReadOffset();
    return dt > offset ? dt - offset : 0;
}

/** Tick-to-seconds rate measured over one wall interval. */
struct TickRate
{
    double start_s = 0;
    uint64_t start_ticks = 0;
    double seconds_per_tick = 0;

    void begin()
    {
        start_s = nowSeconds();
        start_ticks = ticks();
    }

    void end()
    {
        const uint64_t dt = ticks() - start_ticks;
        const double ds = nowSeconds() - start_s;
        seconds_per_tick = dt > 0 ? ds / static_cast<double>(dt) : 0.0;
    }

    double seconds(uint64_t t) const
    {
        return static_cast<double>(t) * seconds_per_tick;
    }
};

/** One layer boundary aggregated over a traced pass. */
struct Span
{
    uint64_t calls = 0;
    uint64_t ticks = 0;
};

/** Median (mean of the middle pair for even sizes); 0 when empty. */
double median(std::vector<double> values);

/** Arithmetic mean; 0 when empty. */
double mean(const std::vector<double> &values);

/**
 * FNV-1a over the modeled outputs of a pass. Doubles are folded by
 * bit pattern, so two commits agree only when every modeled value is
 * identical.
 */
class Digest
{
  public:
    void add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (v >> (8 * i)) & 0xffu;
            hash_ *= 0x100000001b3ull;
        }
    }

    void add(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }

    void add(const std::string &s)
    {
        add(static_cast<uint64_t>(s.size()));
        for (unsigned char c : s) {
            hash_ ^= c;
            hash_ *= 0x100000001b3ull;
        }
    }

    std::string hex() const;

  private:
    uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** Host-time samples of a run, in seconds. */
struct Samples
{
    std::vector<double> setup_s;
    std::vector<double> pass_s;
    /** Per pass: mean of referenceSeconds() just before and after it. */
    std::vector<double> ref_s;
};

/** A named number with its unit, in a workload's report. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one workload run hands back to main(). */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    Samples samples;
    /** False when a traced pass or a repeated pass disagreed. */
    bool consistent = true;
    std::string digest;
    /** End-to-end metrics (untraced run) or per-layer (traced run). */
    std::vector<Metric> metrics;
    /** Modeled outputs printed by name beside the metrics. */
    std::vector<Metric> modeled;
    /** Unscaled host seconds behind the scaled metrics. */
    std::vector<Metric> raw;

    void metric(const std::string &name, double value,
                const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /**
     * Record a pass's modeled-output digest. Returns true for the
     * run's first pass; every later pass must reproduce it.
     */
    bool
    firstPass(const std::string &pass_digest)
    {
        if (digest.empty()) {
            digest = pass_digest;
            return true;
        }
        consistent = consistent && pass_digest == digest;
        return false;
    }
};

/**
 * Element-wise median of per-pass metric lists that share one layout
 * (same names in the same order).
 */
std::vector<Metric> medianMetrics(
    const std::vector<std::vector<Metric>> &passes);

/** Command-line selection of one run. */
struct RunSpec
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

/**
 * Campaign seed of a scenario input: seed 1 reproduces the
 * historical seed the codic_run scenarios use (scenario_util.h
 * paperSeed).
 */
inline uint64_t
scenarioSeed(const RunSpec &spec, uint64_t historical)
{
    return spec.seed - 1 + historical;
}

/**
 * Host-time samples of a run: `setups_per_pass` set-ups then `pass(i)`
 * repeat until `seconds` of passes have been measured, and at least
 * `min_passes` passes. The reference kernel runs just before and after
 * every pass. Set-ups are spread over the run like the passes, so
 * both see the same host. Every pass runs on the state of the set-up
 * just before it, never on what an earlier pass left behind.
 */
Samples measurePasses(double seconds, int min_passes, int setups_per_pass,
                      const std::function<void()> &setup,
                      const std::function<void(size_t)> &pass);

/**
 * Host-speed reference: times a fixed kernel of the benchmark's own
 * code (xorshift draws, read-modify-writes at random over a 4 MB
 * buffer, a data-dependent branch). The host this benchmark was tuned
 * on drifts by up to 2x over minutes as other tenants load it, and
 * the kernel's time drifts with it while no change to src/ can move
 * it. Host times are reported scaled by kReferenceS / reference time,
 * that is in seconds of a host where the kernel takes kReferenceS.
 */
double referenceSeconds();

/** The reference kernel's time on a quiet 4-vCPU Xeon VM (s). */
constexpr double kReferenceS = 0.010;

/** Peak resident set of this process image (MB). */
double peakRssMb();

/**
 * Shared tail of every workload: the end-to-end metrics of an
 * untraced run (wall_s, setup_s, peak_rss_mb) and their unscaled host
 * seconds, or the tracing overhead of a traced run, whose passes
 * alternate untraced (even index) and traced (odd index). Each pass is
 * scaled by the reference measured around it; set-ups, spread over
 * the run, by the run's mean reference.
 */
void addRunMetrics(const RunSpec &spec, const Samples &samples,
                   Report &report);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
