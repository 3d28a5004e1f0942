/**
 * @file
 * Shared execution options for every evaluation campaign and
 * scenario. Before this header existed each campaign config struct
 * (Jaccard, Monte-Carlo, TRNG, secure-dealloc) re-declared its own
 * `seed`/`threads` pair with `threads = 1` hardcoded, so the
 * CampaignEngine's auto-detection was unreachable from any public
 * config. All of them now embed one RunOptions.
 */

#ifndef CODIC_COMMON_RUN_OPTIONS_H
#define CODIC_COMMON_RUN_OPTIONS_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>

#include "common/logging.h"

namespace codic {

/**
 * Options common to every campaign / scenario run.
 *
 * The struct deliberately lives in common/ (below dram/) so campaign
 * configs at any layer can embed it; the DramConfig overrides are
 * plain integers that scenario code applies where it builds its
 * DramConfig (0 keeps the scenario's own default).
 */
struct RunOptions
{
    /**
     * Campaign seed. Every derived RNG stream is a pure function of
     * (seed, task index), never of scheduling - see CampaignEngine.
     * For device-identity seeds (e.g. the TRNG's process-variation
     * identity) this is the device seed.
     */
    uint64_t seed = 1;

    /**
     * CampaignEngine worker threads. 0 = auto-detect the hardware
     * concurrency (the CampaignEngine contract); 1 = inline
     * sequential execution. Results are bit-identical at any value.
     */
    int threads = 0;

    /** Whole-campaign repetitions (repeat r runs with seed + r). */
    int repeats = 1;

    /**
     * Work-scale factor in (0, 1]: campaigns multiply their nominal
     * trial counts (pairs, Monte-Carlo runs, stream bits, ...) by
     * this and clamp to at least one unit. 1.0 reproduces the paper
     * workloads; small values make smoke tests and CI fast.
     */
    double scale = 1.0;

    /** DramConfig override: channel count (0 = scenario default). */
    int channels = 0;

    /** DramConfig override: module capacity (0 = scenario default). */
    int64_t capacity_mb = 0;

    /**
     * Emit wall-clock measurements into machine-readable sinks
     * (JSON/CSV). Off by default so that structured output is
     * byte-deterministic for a fixed seed at any thread count; text
     * sinks always show timings.
     */
    bool emit_timings = false;

    // --- Fleet options (scenarios under src/fleet) ---

    /** Fleet population size (0 = scenario default). */
    int64_t devices = 0;

    /**
     * Fleet shard count (0 = scenario default). Like `threads`, an
     * execution parameter: structured results never depend on it.
     */
    int shards = 0;

    /** Fleet request-stream length (0 = scenario default). */
    int64_t requests = 0;

    /**
     * Device-popularity Zipf exponent for fleet traffic: negative =
     * scenario default, 0 = uniform, larger = more skew.
     */
    double zipf = -1.0;

    /** Enrollment-store file for fleet scenarios ("" = in-memory). */
    std::string store_path{};

    /**
     * Serve the --store file through the mmap-backed read path
     * (store_mmap.h) instead of decoding it into heap: flat
     * per-request memory at any store size. Requires a --store
     * path.
     */
    bool store_mmap = false;

    /**
     * Serving regions for the multi-region fleet scenarios (0 =
     * scenario default). Each region gets its own population,
     * traffic mix and arrival process on the shared engine.
     */
    int regions = 0;

    /**
     * Admission-control capacity in requests/s for fleet scenarios:
     * -1 = scenario default (fleet_overload derives it from the
     * cost model; other scenarios leave admission off), 0 =
     * admission off, > 0 = explicit token-bucket refill rate.
     */
    double shed = -1.0;

    /**
     * DRAM speed-grade preset ("" = the scenario default, normally
     * the paper's ddr3-1600 baseline): resolved by
     * DramConfig::preset() where a scenario builds its DramConfig
     * from the run options (this struct lives below dram/ so it
     * carries the name only); unknown names are fatal there.
     */
    std::string dram_preset{};

    /**
     * Memory-scheduler policy spec ("" = the built-in default): a
     * preset name optionally followed by ":knob=value,..." overrides,
     * e.g. "batched:refresh=auto,read_window=16". Resolved by
     * SchedulerPolicy::parse() where a scenario builds its DramConfig
     * (this struct lives below dram/ so it carries the spec only);
     * unknown presets or knobs are fatal there.
     */
    std::string sched{};

    // --- Trace options (scenarios under src/trace) ---

    /**
     * Input trace file for trace scenarios ("" = the scenario's
     * built-in synthetic fallback). Must exist and must differ from
     * record_trace - replaying a file while recording over it would
     * destroy the input mid-read.
     */
    std::string trace_path{};

    /**
     * Output path for the DramSystem recording tap ("" =
     * recording off). See trace/recorder.h; multi-threaded runs
     * record reproducibly but not byte-stably.
     */
    std::string record_trace{};

    /**
     * Replay inter-arrival rescale: > 1 compresses the trace in
     * time, < 1 stretches it. Must be finite and > 0.
     */
    double trace_speed = 1.0;

    // --- Thermal / co-sim options (scenarios under src/thermal) ---

    /**
     * Ambient temperature (C) of the thermal feedback loop - the
     * idle fixed point. The paper's static campaigns run at 30 C;
     * values outside the chip model's calibrated -40..120 C range
     * are rejected.
     */
    double ambient_c = 30.0;

    /**
     * Thermal/co-sim epoch length in microseconds (0 = the scenario
     * default). Explicit values must be positive and finite.
     */
    double epoch_us = 0.0;

    /**
     * Core count for the multicore co-sim scenarios (0 = scenario
     * default sweep). Like --devices, an explicit value must be
     * >= 1 at the CLI; the sentinel 0 stays legal here.
     */
    int cores = 0;

    /**
     * Reject out-of-contract values with a clear FatalError instead
     * of silently clamping or auto-correcting. Run this at every
     * entry point that accepts externally supplied options.
     */
    void validate() const
    {
        if (threads < 0)
            fatal("RunOptions: threads must be >= 0 (0 = auto), got ",
                  threads);
        if (repeats < 1)
            fatal("RunOptions: repeats must be >= 1, got ", repeats);
        if (!(scale > 0.0) || scale > 1.0)
            fatal("RunOptions: scale must be in (0, 1], got ", scale);
        if (channels < 0)
            fatal("RunOptions: channels must be >= 0, got ", channels);
        if (capacity_mb < 0)
            fatal("RunOptions: capacity_mb must be >= 0, got ",
                  capacity_mb);
        if (devices < 0)
            fatal("RunOptions: devices must be >= 0, got ", devices);
        if (shards < 0)
            fatal("RunOptions: shards must be >= 0, got ", shards);
        if (requests < 0)
            fatal("RunOptions: requests must be >= 0, got ", requests);
        if (regions < 0)
            fatal("RunOptions: regions must be >= 0 (0 = scenario "
                  "default), got ", regions);
        // Negated comparison so NaN is rejected too.
        if ((!(shed >= 0.0) && shed != -1.0) || std::isinf(shed))
            fatal("RunOptions: shed must be finite and >= 0 "
                  "requests/s (or -1 for the scenario default), "
                  "got ", shed);
        if (store_mmap && store_path.empty())
            fatal("RunOptions: --store-mmap needs a --store file to "
                  "map");
        // Negated comparison so NaN is rejected too; infinity would
        // make the Zipf sampler's rejection loop spin forever.
        if ((!(zipf >= 0.0) && zipf != -1.0) || std::isinf(zipf))
            fatal("RunOptions: zipf must be finite and >= 0 (or -1 "
                  "for the scenario default), got ", zipf);
        if (!(trace_speed > 0.0) || std::isinf(trace_speed))
            fatal("RunOptions: trace_speed must be finite and > 0, "
                  "got ", trace_speed);
        if (!trace_path.empty() && trace_path == record_trace)
            fatal("RunOptions: --trace and --record-trace name the "
                  "same file (", trace_path,
                  "); recording over the trace being replayed would "
                  "destroy the input");
        if (!trace_path.empty() &&
            !std::ifstream(trace_path, std::ios::binary).good())
            fatal("RunOptions: trace file does not exist or is not "
                  "readable: ", trace_path);
        // Negated comparisons so NaN is rejected too.
        if (!(ambient_c >= -40.0) || !(ambient_c <= 120.0))
            fatal("RunOptions: ambient_c must be within the modeled "
                  "-40..120 C range, got ", ambient_c);
        if (!(epoch_us >= 0.0) || std::isinf(epoch_us))
            fatal("RunOptions: epoch_us must be finite and >= 0 "
                  "(0 = scenario default), got ", epoch_us);
        if (cores < 0)
            fatal("RunOptions: cores must be >= 0 (0 = scenario "
                  "default), got ", cores);
    }

    /**
     * Scale a nominal work amount, keeping at least one unit. An
     * out-of-contract scale is a caller bug (validate() rejects it
     * at every entry point), so it panics instead of clamping
     * silently to a meaningless workload.
     */
    size_t scaled(size_t nominal) const
    {
        CODIC_ASSERT(scale > 0.0 && scale <= 1.0);
        const double s = static_cast<double>(nominal) * scale;
        return std::max<size_t>(1, static_cast<size_t>(s + 0.5));
    }

    /** Apply the channel override to a scenario default. */
    int channelsOr(int fallback) const
    {
        return channels > 0 ? channels : fallback;
    }

    /** Apply the capacity override to a scenario default. */
    int64_t capacityMbOr(int64_t fallback) const
    {
        return capacity_mb > 0 ? capacity_mb : fallback;
    }

    /** Apply the fleet-population override to a scenario default. */
    int64_t devicesOr(int64_t fallback) const
    {
        return devices > 0 ? devices : fallback;
    }

    /** Apply the shard-count override to a scenario default. */
    int shardsOr(int fallback) const
    {
        return shards > 0 ? shards : fallback;
    }

    /** Apply the request-count override to a scenario default. */
    int64_t requestsOr(int64_t fallback) const
    {
        return requests > 0 ? requests : fallback;
    }

    /** Apply the Zipf-exponent override to a scenario default. */
    double zipfOr(double fallback) const
    {
        return zipf < 0.0 ? fallback : zipf;
    }

    /** Apply the region-count override to a scenario default. */
    int regionsOr(int fallback) const
    {
        return regions > 0 ? regions : fallback;
    }

    /** Apply the admission-capacity override to a scenario default. */
    double shedOr(double fallback) const
    {
        return shed < 0.0 ? fallback : shed;
    }

    /** Apply the epoch-length override to a scenario default. */
    double epochUsOr(double fallback) const
    {
        return epoch_us > 0.0 ? epoch_us : fallback;
    }

    /** Apply the core-count override to a scenario default. */
    int coresOr(int fallback) const
    {
        return cores > 0 ? cores : fallback;
    }
};

} // namespace codic

#endif // CODIC_COMMON_RUN_OPTIONS_H
