/**
 * @file
 * fleet_serve: AuthService::execute on an open-loop RequestGenerator
 * stream with fleet_mixed's mix (70% authenticate, 10% each
 * re-enroll / TRNG / dealloc) and Zipf 0.9 device popularity. It
 * exercises fleet planning, the enrollment store, TRNG, the sig PUF
 * and bank-parallel DRAM replay of reads and row ops with no writes:
 * the other way the DRAM layers get used.
 *
 * The population (16k devices) is 4x the store's 4096-entry decode
 * cache, so lookups both hit and miss. The offered 1.2M requests/s is
 * about 0.8x the modeled capacity, so lane queueing shows in p99
 * without a growing backlog.
 */

#include <memory>

#include "fleet/auth_service.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {

using namespace codic;

namespace {

constexpr uint64_t kDevices = 16384;
constexpr uint64_t kRequests = 20000;
constexpr double kOfferedRps = 1.2e6;

/** Every deterministic field of a LoadReport (not wall_seconds). */
std::string
digestOf(const LoadReport &r)
{
    Digest d;
    for (uint64_t v :
         {r.requests, r.accepted, r.rejected, r.unknown_device,
          r.reenrolled, r.trng_bits_delivered, r.trng_health_failures,
          r.dealloc_rows_cleared, r.planned_cache_hits,
          r.planned_cache_misses, r.admitted, r.shed, r.auth_replayed,
          uint64_t(r.open_loop), uint64_t(r.admission_on)})
        d.add(v);
    for (uint64_t v : r.by_kind)
        d.add(v);
    for (double v :
         {r.latency_mean_ns, r.latency_p50_ns, r.latency_p95_ns,
          r.latency_p99_ns, r.latency_max_ns, r.wait_mean_ns,
          r.wait_p95_ns, r.wait_max_ns, r.admitted_urgent_p50_ns,
          r.admitted_urgent_p99_ns, r.total_service_ns,
          r.total_energy_nj, r.auth_replay_mean_ns,
          r.auth_replay_p50_ns, r.auth_replay_p99_ns,
          r.auth_replay_max_ns})
        d.add(v);
    for (double v : r.shard_busy_ns)
        d.add(v);
    return d.hex();
}

/** One enrolled population with its stream. */
struct Fleet
{
    std::unique_ptr<DeviceFleet> fleet;
    std::unique_ptr<EnrollmentStore> store;
    std::unique_ptr<AuthService> service;
    std::vector<FleetRequest> stream;
};

} // namespace

Report
runFleetServe(const RunSpec &spec)
{
    FleetConfig fc; // batched preset, DDR3-1600, 1 GB, 1 channel
    fc.population_seed = scenarioSeed(spec, 2026);
    fc.devices = kDevices;
    fc.shards = 4;
    AuthConfig ac;
    ac.threads = 1;

    TrafficConfig tc;
    tc.traffic_seed = scenarioSeed(spec, 41);
    tc.requests = kRequests;
    tc.zipf = 0.9;
    tc.weight_auth = 0.7;
    tc.weight_reenroll = 0.1;
    tc.weight_trng = 0.1;
    tc.weight_dealloc = 0.1;
    tc.offered_rps = kOfferedRps; // admission stays off (AuthConfig)

    Report report;
    Fleet f;
    std::vector<double> cost_model_s, enroll_s, gen_s;
    std::vector<std::vector<Metric>> traced;
    LoadReport reference;

    // Set-up rebuilds the population from scratch: a pass changes the
    // store (re-enrollments) and warms the fleet's device memos.
    const auto setup = [&] {
        f.service.reset();
        f.store.reset();
        f.fleet.reset();
        f.fleet = std::make_unique<DeviceFleet>(fc);
        f.store = std::make_unique<EnrollmentStore>(fc.population_seed);
        double t0 = nowSeconds();
        f.service = std::make_unique<AuthService>(*f.fleet, *f.store, ac);
        double t1 = nowSeconds();
        cost_model_s.push_back(t1 - t0);
        f.service->enrollAll();
        t0 = nowSeconds();
        enroll_s.push_back(t0 - t1);
        f.stream = RequestGenerator(tc, f.store->deviceIds()).generate();
        gen_s.push_back(nowSeconds() - t0);
    };

    // One operation is one request. Admission is off, so every
    // request is served; it fails when it was not, or when a genuine
    // authenticate (every target is enrolled) found no enrollment.
    const auto check = [&](const LoadReport &r) {
        report.attempted += r.requests;
        report.failed += (r.requests - r.admitted) + r.unknown_device;
        if (report.firstPass(digestOf(r)))
            reference = r;
    };

    const auto tracedPass = [&] {
        TracedStore store(*f.store);
        AuthService service(*f.fleet, store, ac);
        TickRate rate;
        rate.begin();
        const uint64_t t0 = ticks();
        AuthService::Execution exec = service.prepare(f.stream);
        const uint64_t t1 = ticks();
        for (size_t shard = 0; shard < exec.batches.size(); ++shard)
            service.runShard(exec, shard);
        const uint64_t t2 = ticks();
        const LoadReport r = service.finalize(exec);
        const uint64_t t3 = ticks();
        rate.end();
        check(r);

        std::vector<Metric> m = {
            {"fleet.prepare.s", rate.seconds(t1 - t0), "s"},
            {"fleet.run_shard.s", rate.seconds(t2 - t1), "s"},
            {"fleet.finalize.s", rate.seconds(t3 - t2), "s"},
        };
        for (const auto &[name, span] :
             {std::pair{"fleet.store.lookup", &store.lookup_span},
              std::pair{"fleet.store.put", &store.put_span},
              std::pair{"fleet.store.contains", &store.contains_span}}) {
            m.push_back({std::string(name) + ".calls", double(span->calls),
                         "count"});
            m.push_back({std::string(name) + ".s", rate.seconds(span->ticks),
                         "s"});
        }
        traced.push_back(m);
    };

    const Samples samples = measurePasses(
        spec.seconds, spec.trace ? 2 : 1, 1, setup, [&](size_t i) {
            if (spec.trace && i % 2 == 1)
                tracedPass();
            else
                check(f.service->execute(f.stream));
        });

    const LoadReport &r = reference;
    report.modeled = {
        {"modeled_p50_us", r.latency_p50_ns / 1e3, "us"},
        {"modeled_p99_us", r.latency_p99_ns / 1e3, "us"},
        {"modeled_makespan_ms", r.makespanNs() / 1e6, "ms"},
        {"latency_samples", double(r.admitted), "count"},
        {"modeled_reject_rate", double(r.rejected) / double(r.requests),
         "ratio"},
        {"modeled_trng_fail_rate",
         double(r.trng_health_failures) / double(r.requests), "ratio"},
    };

    if (spec.trace) {
        const double auths =
            double(r.planned_cache_hits + r.planned_cache_misses);
        report.metrics = medianMetrics(traced);
        report.metric("fleet.store.planned_hit_ratio",
                      double(r.planned_cache_hits) / auths, "ratio");
        report.metric("fleet.wait_mean_us", r.wait_mean_ns / 1e3, "us");
        report.metric("fleet.wait_p95_us", r.wait_p95_ns / 1e3, "us");
        report.metric("fleet.service_mean_us",
                      r.total_service_ns / double(r.admitted) / 1e3, "us");
        report.metric("fleet.auth_replay_p99_us",
                      r.auth_replay_p99_ns / 1e3, "us");
        report.metric("fleet.cost_model_s", median(cost_model_s), "s");
        report.metric("fleet.enroll_s", median(enroll_s), "s");
        report.metric("fleet.gen_s", median(gen_s), "s");
        for (size_t k = 0; k < 3; ++k) // p50, p99, makespan
            report.metrics.push_back(report.modeled[k]);
    }
    addRunMetrics(spec, samples, report);
    return report;
}

} // namespace perfbench
