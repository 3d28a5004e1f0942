/**
 * @file
 * Request-level serving frontend over a DeviceFleet: a
 * RequestGenerator synthesizes open- or closed-loop streams of mixed
 * fleet requests (authenticate / re-enroll / TRNG draw / secure
 * deallocation) over a configurable device-popularity distribution,
 * and an AuthService executes them batched per shard on the
 * CampaignEngine.
 *
 * Reporting model: every request's modeled service latency and
 * energy are pure functions of (population seed, traffic seed,
 * request index) - service costs come from a cost model measured
 * once on the cycle-accurate DramSystem/energy accounting, and the
 * enrollment-store cache behavior is planned with a sequential LRU
 * simulation over the stream. Open-loop streams additionally get a
 * queueing-aware latency: each device maps to one of
 * AuthConfig::service_lanes logical serving lanes (a fixed modeled
 * deployment, deliberately NOT the execution shard count), a lane
 * serves its requests in arrival order, and a request's reported
 * latency is its queueing wait (lane busy past the arrival stamp)
 * plus its modeled service time. Closed-loop streams have
 * service-driven arrivals, so their wait is zero by construction.
 * The structured report (accept rates, p50/p95/p99 latency, waits,
 * energy) is therefore byte-identical at any shard or thread count.
 *
 * Per-shard replay statistics legitimately depend on the shard
 * count and feed the fleet_scaling study and wall-clock telemetry
 * only: each shard re-issues its batch's DRAM command footprints on
 * its own DramSystem, batching SchedulerPolicy::replay_batch
 * independent devices into one bank-parallel replay slice (every
 * request of a slice starts at the slice's start cycle, so row ops
 * and bursts of different devices overlap across banks and channels
 * under the full JEDEC checker; the next slice starts at the
 * slice's last completion).
 */

#ifndef CODIC_FLEET_AUTH_SERVICE_H
#define CODIC_FLEET_AUTH_SERVICE_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "dram/channel.h"
#include "fleet/admission.h"
#include "fleet/device_fleet.h"
#include "fleet/enrollment_store.h"
#include "power/energy_model.h"

namespace codic {

/** Fleet request types (the CODIC functionalities under load). */
enum class RequestKind : uint8_t
{
    Authenticate,  //!< PUF challenge-response against the store.
    Reenroll,      //!< Refresh the golden signature.
    TrngDraw,      //!< Draw whitened random bits.
    SecureDealloc, //!< CODIC-det bulk row zeroization.
};

constexpr int kRequestKinds = 4;

/** Display name of a RequestKind. */
const char *requestKindName(RequestKind kind);

/**
 * Admission priority of a request kind: authentication is urgent
 * (a device is waiting to be trusted), everything else is
 * best-effort maintenance the controller sheds first.
 */
AdmissionClass admissionClassOf(RequestKind kind);

/** One synthesized fleet request. */
struct FleetRequest
{
    uint64_t index = 0;     //!< Position in the stream.
    RequestKind kind = RequestKind::Authenticate;
    uint64_t device_id = 0;
    uint64_t nonce = 0;     //!< Per-request query entropy.
    uint32_t payload = 0;   //!< TRNG bits or dealloc rows requested.
    double arrival_us = 0;  //!< Open-loop arrival time (0 if closed).
};

/** Traffic synthesis parameters. */
struct TrafficConfig
{
    uint64_t traffic_seed = 1;
    uint64_t requests = 10000;

    /**
     * Device-popularity Zipf exponent: 0 = uniform; larger values
     * concentrate traffic on low-ranked devices (rank r drawn with
     * weight 1/(r+1)^zipf).
     */
    double zipf = 0.0;

    /** Request mix weights (normalized internally). */
    double weight_auth = 1.0;
    double weight_reenroll = 0.0;
    double weight_trng = 0.0;
    double weight_dealloc = 0.0;

    /**
     * Open-loop offered rate (requests/s) for Poisson arrival
     * stamping; <= 0 selects a closed-loop stream (arrivals are
     * service-driven, arrival_us stays 0).
     */
    double offered_rps = 0.0;

    /** Whitened bits per TRNG draw. */
    int trng_bits = 256;

    /** Rows zeroized per secure-deallocation request. */
    int dealloc_rows = 64;
};

/**
 * Exact finite-N Zipf(s) rank sampler by rejection inversion
 * (Hormann & Derflinger 1996, the sampler behind Apache Commons
 * RNG): O(1) memory and expected O(1) rejection rounds per draw, so
 * Zipfian traffic over a 10^9-device population stays as lazy as
 * the population itself.
 */
class ZipfRankSampler
{
  public:
    /** @param exponent Zipf exponent > 0. @param n Ranks (>= 1). */
    ZipfRankSampler(double exponent, uint64_t n);

    /** Draw a rank in [0, n); rank 0 is the most popular. */
    uint64_t sample(Rng &rng) const;

  private:
    double hIntegral(double x) const;
    double h(double x) const;
    double hIntegralInverse(double x) const;

    double exponent_;
    uint64_t n_;
    double h_x1_;  //!< hIntegral(1.5) - 1.
    double h_n_;   //!< hIntegral(n + 0.5).
    double s_;     //!< Acceptance shortcut threshold.
};

/**
 * Deterministic stream synthesizer. When built over an explicit
 * device-id list (e.g. the enrolled ids of a loaded store), requests
 * target only those devices; the popularity rank of a device is its
 * position in the list.
 */
class RequestGenerator
{
  public:
    /** Target the full population [0, devices). */
    RequestGenerator(const TrafficConfig &config, uint64_t devices);

    /** Target an explicit (rank-ordered) device-id list. */
    RequestGenerator(const TrafficConfig &config,
                     std::vector<uint64_t> device_ids);

    /** Synthesize the whole stream (index order = arrival order). */
    std::vector<FleetRequest> generate() const;

  private:
    uint64_t sampleDevice(Rng &rng) const;

    TrafficConfig config_;
    uint64_t devices_ = 0;             //!< Used when ids_ is empty.
    std::vector<uint64_t> ids_;        //!< Explicit targets (ranked).
    std::unique_ptr<ZipfRankSampler> zipf_; //!< Set when zipf > 0.
};

/** Service-cost model measured once per DRAM configuration. */
struct FleetCostModel
{
    double sig_eval_ns = 0;    //!< Filtered CODIC-sig evaluation.
    double rowop_ns = 0;       //!< One CODIC-det row op (steady state).
    double auth_energy_nj = 0; //!< Full evaluation footprint energy.
    double dealloc_row_energy_nj = 0; //!< Per zeroized row.
    double trng_cmd_energy_nj = 0;    //!< One harvest command.
    int eval_passes = 5;       //!< Filter depth of the footprint.
    int bursts_per_pass = 128; //!< Read bursts per segment pass.
};

/**
 * Measure the cost model on a scratch DramSystem of the given
 * configuration (cycle-accurate timings, DRAMPower-style energies).
 */
FleetCostModel buildFleetCostModel(const DramConfig &config,
                                   int filter_challenges,
                                   const EnergyParams &energy = {});

/** AuthService tuning. */
struct AuthConfig
{
    /** CampaignEngine workers (0 = auto, 1 = inline). */
    int threads = 0;

    /** Jaccard acceptance threshold for authentication. */
    double accept_threshold = 0.9;

    /** Modeled store service costs (ns). */
    double store_hit_ns = 120.0;    //!< Cached decode.
    double store_miss_ns = 1800.0;  //!< Record fetch + decode.
    double store_write_ns = 2500.0; //!< Record write-back.

    /**
     * Logical serving lanes of the queueing model (device id mod
     * lanes). A modeled deployment constant - never derived from the
     * execution shard or thread count, so the queueing-aware latency
     * stays byte-identical at any --shards/--threads.
     */
    int service_lanes = 8;

    /**
     * Admission control / load shedding (admission.h). Disabled by
     * default; only open-loop streams can shed (a closed-loop
     * stream's arrivals are service-driven and can never outrun the
     * service).
     */
    AdmissionConfig admission;

    EnergyParams energy;
};

/** Aggregate outcome of one executed stream. */
struct LoadReport
{
    uint64_t requests = 0;
    uint64_t by_kind[kRequestKinds] = {};

    // Authentication outcomes.
    uint64_t accepted = 0;
    uint64_t rejected = 0;
    uint64_t unknown_device = 0;

    uint64_t reenrolled = 0;
    uint64_t trng_bits_delivered = 0;
    uint64_t trng_health_failures = 0;
    uint64_t dealloc_rows_cleared = 0;

    // Planned (deterministic) store-cache behavior.
    uint64_t planned_cache_hits = 0;
    uint64_t planned_cache_misses = 0;

    /**
     * Modeled request latency over the stream (ns): queueing wait
     * plus service time for open-loop streams, service time alone
     * for closed-loop streams (arrivals are service-driven, so no
     * request ever waits).
     */
    double latency_mean_ns = 0;
    double latency_p50_ns = 0;
    double latency_p95_ns = 0;
    double latency_p99_ns = 0;
    double latency_max_ns = 0;

    // Queueing-wait component alone (0 for closed-loop streams).
    double wait_mean_ns = 0;
    double wait_p95_ns = 0;
    double wait_max_ns = 0;

    /** True if the stream carried open-loop arrival stamps. */
    bool open_loop = false;

    /**
     * Admission control / load shedding. When admission is active
     * (an open-loop stream and AdmissionConfig::capacity_rps set),
     * the latency/wait statistics above cover ADMITTED requests
     * only - shed requests never execute, never replay, and are
     * accounted here instead. When admission is off, admitted ==
     * requests and every shed counter is zero.
     */
    bool admission_on = false;
    uint64_t admitted = 0;
    uint64_t shed = 0;
    uint64_t shed_urgent = 0;      //!< Shed authenticate requests.
    uint64_t shed_best_effort = 0; //!< Shed maintenance requests.
    uint64_t shed_deadline = 0; //!< Wait projected past deadline.
    uint64_t shed_queue = 0;    //!< Lane queue full at arrival.
    uint64_t shed_bucket = 0;   //!< Token bucket empty/reserved.
    double shed_rate = 0;       //!< shed / requests.

    /**
     * Latency of admitted urgent (authenticate) requests: the tail
     * the admission deadline bounds under overload. Equal to the
     * plain authenticate latency when admission is off.
     */
    double admitted_urgent_p50_ns = 0;
    double admitted_urgent_p99_ns = 0;

    double total_service_ns = 0; //!< Service time only, summed.
    double total_energy_nj = 0;

    /**
     * Replay-measured authenticate latency: slice start to footprint
     * completion on the shard's DramSystem, over authenticate
     * requests that replayed a footprint (known devices). Unlike the
     * modeled latency above this sees the scheduler - it is what the
     * serving preset's priority tag and the QoS ablation's >= 20%
     * p99 gate measure. Depends on the shard count like
     * shard_busy_ns: report it only where the shard count is pinned
     * (ablation_qos runs 1 shard) or is the study input.
     */
    uint64_t auth_replayed = 0;
    double auth_replay_mean_ns = 0;
    double auth_replay_p50_ns = 0;
    double auth_replay_p99_ns = 0;
    double auth_replay_max_ns = 0;

    /**
     * Per-shard replay: busy time (ns) of each shard's DramSystem
     * after re-issuing its batch footprints. Depends on the shard
     * count by construction - report it only where the shard count
     * is the study input (fleet_scaling) or as wall telemetry.
     */
    std::vector<double> shard_busy_ns;

    /** Modeled makespan: slowest shard's replay busy time. */
    double makespanNs() const;

    /** Wall-clock execution time (scheduling-dependent; timing). */
    double wall_seconds = 0;
};

/** Per-request execution result, written into its stream slot. */
struct RequestResult
{
    double service_ns = 0;
    double energy_nj = 0;
    /** Replay latency: slice start to footprint completion (ns). */
    double replay_ns = 0;
    bool accepted = false;
    bool rejected = false;
    bool unknown = false;
    bool reenrolled = false;
    bool trng_failure = false;
    uint32_t trng_bits = 0;
    uint32_t dealloc_rows = 0;
};

/** The request-level frontend: executes streams against a fleet. */
class AuthService
{
  public:
    /**
     * Serve `store` (in-memory EnrollmentStore or mmap-backed
     * MmapEnrollmentStore; both outlive the service).
     */
    AuthService(DeviceFleet &fleet, EnrollmentBackend &store,
                const AuthConfig &config = {});

    /**
     * Enroll every device of the fleet into the store (batched per
     * shard on the engine). Store content is independent of the
     * shard/thread count.
     */
    void enrollAll();

    /**
     * Enroll one shard's devices: golden challenge, enrollment
     * signature, store put (safe to run concurrently for distinct
     * shards, as engine tasks).
     */
    void enrollShard(size_t shard);

    /**
     * One prepared stream's execution state: the sequential plans
     * (cache hits, admission decisions, per-shard batches) plus the
     * per-request results the shard workers fill in. The region
     * layer (region.h) holds one per region so a shared engine can
     * interleave shard tasks of several services; plain callers use
     * execute() and never see it.
     */
    struct Execution
    {
        std::vector<FleetRequest> stream;
        // Sequential plans (pure functions of stream + config).
        std::vector<bool> hit;       //!< Planned LRU decode hits.
        std::vector<bool> admitted;  //!< Admission decisions.
        std::vector<double> wait_ns; //!< Queueing waits (admitted).
        bool open_loop = false;
        bool admission_on = false;
        uint64_t shed_urgent = 0;
        uint64_t shed_best_effort = 0;
        uint64_t shed_deadline = 0;
        uint64_t shed_queue = 0;
        uint64_t shed_bucket = 0;
        // Execution workspace.
        std::vector<std::vector<size_t>> batches; //!< Per shard.
        std::vector<RequestResult> results;
        std::vector<double> shard_busy_ns;
        std::chrono::steady_clock::time_point wall_start;
    };

    /**
     * Plan one stream: cache-hit plan, admission decisions, waits,
     * per-shard batches of the admitted requests.
     */
    Execution prepare(std::vector<FleetRequest> stream);

    /**
     * Replay one shard's batch (safe to run concurrently for
     * distinct shards, as engine tasks).
     */
    void runShard(Execution &exec, size_t shard);

    /**
     * Aggregate an executed stream into a report; also backfills
     * exec.wait_ns for the legacy (admission-off) queueing model,
     * so admittedLatencies() works on the finalized state.
     */
    LoadReport finalize(Execution &exec) const;

    /**
     * Append the modeled latency (wait + service) of every admitted
     * request, in stream order - what the region layer merges into
     * fleet-global percentiles. Call after finalize().
     */
    void appendAdmittedLatencies(const Execution &exec,
                                 std::vector<double> &out) const;

    /** Execute one synthesized stream batched per shard. */
    LoadReport execute(const std::vector<FleetRequest> &stream);

    const FleetCostModel &costModel() const { return cost_model_; }

    /**
     * Derived admission capacity (requests/s): service_lanes over
     * the modeled authenticate service time. What scenarios sweep
     * offered load against when no explicit capacity is configured.
     */
    double modeledCapacityRps() const;

  private:
    /**
     * The admission controller's service-time estimate. Exact for
     * authenticate / re-enroll / dealloc (their modeled service is
     * a pure function of the plan); TRNG draws use a reference
     * device's whitened throughput (the per-device rate is only
     * known after materializing the device, which shed requests
     * never do).
     */
    double estimateServiceNs(const FleetRequest &req, bool known,
                             bool hit);
    double trngEstNsPerBit();

    DeviceFleet &fleet_;
    EnrollmentBackend &store_;
    AuthConfig config_;
    FleetCostModel cost_model_;
    double trng_est_ns_per_bit_ = -1.0; //!< Lazy (reference device).
};

} // namespace codic

#endif // CODIC_FLEET_AUTH_SERVICE_H
