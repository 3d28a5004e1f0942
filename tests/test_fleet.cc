/**
 * @file
 * Tests of the fleet subsystem: device-population determinism and
 * lazy instantiation (DeviceFleet), store-file round-trips with
 * version gating and LRU behavior (EnrollmentStore), traffic
 * synthesis (RequestGenerator), and end-to-end serving determinism
 * at any shard/thread count plus paper-level authentication quality
 * (AuthService) - including the enroll-in-one-run /
 * authenticate-in-another persistence flow.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "common/logging.h"
#include "common/result_sink.h"
#include "fleet/auth_service.h"
#include "fleet/device_fleet.h"
#include "fleet/enrollment_store.h"
#include "scenario/registry.h"

namespace codic {
namespace {

/** Small fleet that keeps tests fast. */
FleetConfig
testFleetConfig(uint64_t devices = 64, int shards = 3)
{
    FleetConfig fc;
    fc.population_seed = 99;
    fc.devices = devices;
    fc.shards = shards;
    fc.dram = DramConfig::ddr3_1600(256, 1);
    fc.dram.scheduler = SchedulerPolicy::preset("batched");
    return fc;
}

// --- DeviceFleet. ---

TEST(DeviceFleet, DeviceIdentityIndependentOfShardCount)
{
    DeviceFleet one(testFleetConfig(64, 1));
    DeviceFleet five(testFleetConfig(64, 5));
    for (uint64_t id : {0ull, 7ull, 63ull}) {
        EXPECT_EQ(one.deviceSeed(id), five.deviceSeed(id));
        EXPECT_EQ(one.device(id).spec().seed,
                  five.device(id).spec().seed);
        const Challenge a = one.goldenChallenge(id);
        const Challenge b = five.goldenChallenge(id);
        EXPECT_EQ(a.segment_id, b.segment_id);
        EXPECT_EQ(one.enrollSignature(id), five.enrollSignature(id));
    }
}

TEST(DeviceFleet, PopulationsAreLazy)
{
    FleetConfig fc = testFleetConfig(1'000'000'000ull, 8);
    DeviceFleet fleet(fc); // A billion devices cost nothing...
    EXPECT_EQ(fleet.instantiatedDevices(), 0u);
    fleet.device(3);
    fleet.device(999'999'999ull);
    fleet.device(3); // ...until touched (and touches are cached).
    EXPECT_EQ(fleet.instantiatedDevices(), 2u);
}

TEST(DeviceFleet, GoldenChallengeIsStableAndInRange)
{
    DeviceFleet fleet(testFleetConfig());
    const Challenge a = fleet.goldenChallenge(11);
    const Challenge b = fleet.goldenChallenge(11);
    EXPECT_EQ(a.segment_id, b.segment_id);
    EXPECT_LT(a.segment_id, fleet.device(11).segments());
    EXPECT_EQ(a.segment_bits, fleet.config().segment_bits);
}

TEST(DeviceFleet, ShardDeviceIdsPartitionThePopulation)
{
    DeviceFleet fleet(testFleetConfig(10, 3));
    size_t total = 0;
    for (int s = 0; s < fleet.shards(); ++s) {
        for (uint64_t id : fleet.shardDeviceIds(s))
            EXPECT_EQ(fleet.shardOf(id), s);
        total += fleet.shardDeviceIds(s).size();
    }
    EXPECT_EQ(total, 10u);
}

// --- EnrollmentStore. ---

Response
makeResponse(std::initializer_list<uint32_t> cells)
{
    Response r;
    r.cells = cells;
    return r;
}

EnrollmentStore
makeStore()
{
    EnrollmentStore store(4242);
    store.put(5, {123, 65536}, makeResponse({1, 2, 500, 65535}));
    store.put(1, {99, 65536}, makeResponse({7}));
    store.put(300, {4, 32768}, makeResponse({}));
    return store;
}

void
expectStoresEqual(const EnrollmentStore &a, const EnrollmentStore &b)
{
    EXPECT_EQ(a.populationSeed(), b.populationSeed());
    ASSERT_EQ(a.deviceIds(), b.deviceIds());
    for (uint64_t id : a.deviceIds()) {
        const EnrollmentRecord *ra = a.record(id);
        const EnrollmentRecord *rb = b.record(id);
        ASSERT_NE(ra, nullptr);
        ASSERT_NE(rb, nullptr);
        EXPECT_EQ(ra->segment_id, rb->segment_id);
        EXPECT_EQ(ra->segment_bits, rb->segment_bits);
        EXPECT_EQ(EnrollmentStore::decode(*ra),
                  EnrollmentStore::decode(*rb));
    }
}

TEST(EnrollmentStore, LookupDecodesWhatWasPut)
{
    const EnrollmentStore store = makeStore();
    EXPECT_EQ(store.size(), 3u);
    EXPECT_TRUE(store.contains(5));
    EXPECT_FALSE(store.contains(6));
    EXPECT_EQ(store.lookup(6), nullptr);
    ASSERT_NE(store.lookup(5), nullptr);
    EXPECT_EQ(*store.lookup(5), makeResponse({1, 2, 500, 65535}));
    EXPECT_EQ(*store.lookup(300), makeResponse({}));
}

TEST(EnrollmentStore, BinaryRoundTrip)
{
    const EnrollmentStore store = makeStore();
    std::ostringstream out;
    store.saveBinary(out);
    EXPECT_EQ(out.str().size(), store.binarySizeBytes());
    expectStoresEqual(store, EnrollmentStore::loadBinary(out.str()));
}

TEST(EnrollmentStore, BinaryRejectsVersionMismatch)
{
    std::ostringstream out;
    makeStore().saveBinary(out);
    std::string bytes = out.str();
    bytes[8] = 99; // First byte of the little-endian version field.
    EXPECT_THROW(EnrollmentStore::loadBinary(bytes), FatalError);
}

TEST(EnrollmentStore, BinaryRejectsBadMagicAndTruncation)
{
    std::ostringstream out;
    makeStore().saveBinary(out);
    std::string bytes = out.str();

    std::string corrupted = bytes;
    corrupted[0] = 'X';
    EXPECT_THROW(EnrollmentStore::loadBinary(corrupted), FatalError);

    EXPECT_THROW(
        EnrollmentStore::loadBinary(bytes.substr(0, bytes.size() - 3)),
        FatalError);
}

TEST(EnrollmentStore, BinaryRejectsImplausibleRecordSizes)
{
    std::ostringstream out;
    makeStore().saveBinary(out);
    std::string bytes = out.str();
    // First record's cell_count field (the v2 header is 40 bytes; the
    // record starts with u64 id, u64 segment, u32 segment_bits).
    for (size_t i = 60; i < 64; ++i)
        bytes[i] = static_cast<char>(0xFF);
    EXPECT_THROW(EnrollmentStore::loadBinary(bytes), FatalError);
}

TEST(EnrollmentStore, BinaryRejectsTrailingBytes)
{
    std::ostringstream out;
    makeStore().saveBinary(out);
    EXPECT_THROW(EnrollmentStore::loadBinary(out.str() + "x"),
                 FatalError);
}

TEST(EnrollmentStore, DecodeRejectsOverlongVarints)
{
    EnrollmentRecord rec;
    rec.device_id = 1;
    rec.cell_count = 1;
    // Ten continuation bytes put the final payload past bit 63.
    rec.blob.assign(9, 0x80);
    rec.blob.push_back(0x02);
    EXPECT_THROW(EnrollmentStore::decode(rec), FatalError);
}

TEST(EnrollmentStore, LruCacheCountsHitsAndEvicts)
{
    EnrollmentStore store(1, /*cache_capacity=*/2);
    store.put(1, {1, 64}, makeResponse({1}));
    store.put(2, {2, 64}, makeResponse({2}));
    store.put(3, {3, 64}, makeResponse({3}));

    store.lookup(1); // miss
    store.lookup(1); // hit
    store.lookup(2); // miss
    store.lookup(3); // miss; evicts 1 (capacity 2)
    store.lookup(1); // miss again
    EXPECT_EQ(store.cacheHits(), 1u);
    EXPECT_EQ(store.cacheMisses(), 4u);
}

TEST(EnrollmentStore, ReenrollmentInvalidatesCachedDecode)
{
    EnrollmentStore store(1);
    store.put(9, {1, 64}, makeResponse({10, 20}));
    EXPECT_EQ(*store.lookup(9), makeResponse({10, 20}));
    store.put(9, {1, 64}, makeResponse({30}));
    EXPECT_EQ(*store.lookup(9), makeResponse({30}));
}

// --- RequestGenerator. ---

TEST(RequestGenerator, StreamsAreDeterministic)
{
    TrafficConfig tc;
    tc.traffic_seed = 5;
    tc.requests = 300;
    tc.zipf = 0.9;
    tc.weight_auth = 0.5;
    tc.weight_trng = 0.5;
    const RequestGenerator gen(tc, 40);
    const auto a = gen.generate();
    const auto b = RequestGenerator(tc, 40).generate();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].device_id, b[i].device_id);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].nonce, b[i].nonce);
    }
}

TEST(RequestGenerator, ZipfSkewsTowardLowRanks)
{
    TrafficConfig tc;
    tc.requests = 4000;
    const auto uniform = RequestGenerator(tc, 100).generate();
    tc.zipf = 1.2;
    const auto zipf = RequestGenerator(tc, 100).generate();
    const auto hitsOnDevice0 = [](const auto &stream) {
        size_t n = 0;
        for (const auto &r : stream)
            n += r.device_id == 0;
        return n;
    };
    EXPECT_GT(hitsOnDevice0(zipf), 4 * hitsOnDevice0(uniform));
}

TEST(RequestGenerator, ZipfMatchesTheExactDistribution)
{
    // The rejection-inversion sampler must reproduce the exact
    // finite-N Zipf law: empirical rank frequencies over a small
    // population track k^-s within sampling noise.
    TrafficConfig tc;
    tc.traffic_seed = 3;
    tc.requests = 200000;
    tc.zipf = 1.0;
    const uint64_t n = 8;
    const auto stream = RequestGenerator(tc, n).generate();
    double weight_sum = 0.0;
    for (uint64_t k = 1; k <= n; ++k)
        weight_sum += 1.0 / static_cast<double>(k);
    std::vector<size_t> counts(n, 0);
    for (const auto &r : stream)
        ++counts[static_cast<size_t>(r.device_id)];
    for (uint64_t k = 1; k <= n; ++k) {
        const double expected =
            (1.0 / static_cast<double>(k)) / weight_sum;
        const double observed =
            static_cast<double>(counts[k - 1]) /
            static_cast<double>(tc.requests);
        EXPECT_NEAR(observed, expected, 0.01) << "rank " << k;
    }
}

TEST(RequestGenerator, ZipfScalesToBillionDevicePopulations)
{
    // O(1) sampler state: a Zipfian stream over 10^9 devices must
    // not materialize a per-device table.
    TrafficConfig tc;
    tc.requests = 2000;
    tc.zipf = 0.99;
    const uint64_t n = 1'000'000'000ull;
    const auto stream = RequestGenerator(tc, n).generate();
    size_t hot = 0;
    for (const auto &r : stream) {
        ASSERT_LT(r.device_id, n);
        hot += r.device_id < 1000;
    }
    // Under uniform sampling P(id < 1000) ~ 1e-6; Zipf(0.99) puts a
    // large share of the mass there.
    EXPECT_GT(hot, 100u);
}

TEST(RequestGenerator, OpenLoopArrivalsAreMonotone)
{
    TrafficConfig tc;
    tc.requests = 100;
    tc.offered_rps = 10000.0;
    const auto stream = RequestGenerator(tc, 10).generate();
    double last = 0.0;
    for (const auto &r : stream) {
        EXPECT_GT(r.arrival_us, last);
        last = r.arrival_us;
    }
}

// --- AuthService end to end. ---

std::vector<FleetRequest>
mixedStream(uint64_t devices, uint64_t requests)
{
    TrafficConfig tc;
    tc.traffic_seed = 17;
    tc.requests = requests;
    tc.zipf = 0.8;
    tc.weight_auth = 0.7;
    tc.weight_reenroll = 0.1;
    tc.weight_trng = 0.1;
    tc.weight_dealloc = 0.1;
    return RequestGenerator(tc, devices).generate();
}

void
expectReportsEqual(const LoadReport &a, const LoadReport &b)
{
    EXPECT_EQ(a.requests, b.requests);
    for (int k = 0; k < kRequestKinds; ++k)
        EXPECT_EQ(a.by_kind[k], b.by_kind[k]);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.unknown_device, b.unknown_device);
    EXPECT_EQ(a.reenrolled, b.reenrolled);
    EXPECT_EQ(a.trng_bits_delivered, b.trng_bits_delivered);
    EXPECT_EQ(a.trng_health_failures, b.trng_health_failures);
    EXPECT_EQ(a.dealloc_rows_cleared, b.dealloc_rows_cleared);
    EXPECT_EQ(a.planned_cache_hits, b.planned_cache_hits);
    EXPECT_EQ(a.planned_cache_misses, b.planned_cache_misses);
    EXPECT_EQ(a.latency_p50_ns, b.latency_p50_ns);
    EXPECT_EQ(a.latency_p95_ns, b.latency_p95_ns);
    EXPECT_EQ(a.latency_p99_ns, b.latency_p99_ns);
    EXPECT_EQ(a.latency_max_ns, b.latency_max_ns);
    EXPECT_EQ(a.total_service_ns, b.total_service_ns);
    EXPECT_EQ(a.total_energy_nj, b.total_energy_nj);
}

TEST(AuthService, EnrollmentStoreIndependentOfShardsAndThreads)
{
    std::string reference;
    for (const auto &[shards, threads] :
         {std::pair{1, 1}, {3, 1}, {4, 8}}) {
        DeviceFleet fleet(testFleetConfig(48, shards));
        EnrollmentStore store(fleet.config().population_seed);
        AuthConfig ac;
        ac.threads = threads;
        AuthService service(fleet, store, ac);
        service.enrollAll();
        std::ostringstream out;
        store.saveBinary(out);
        if (reference.empty())
            reference = out.str();
        else
            EXPECT_EQ(out.str(), reference)
                << "store bytes depend on shards=" << shards
                << " threads=" << threads;
    }
}

TEST(AuthService, ReportIndependentOfShardsAndThreads)
{
    const auto runWith = [](int shards, int threads) {
        DeviceFleet fleet(testFleetConfig(48, shards));
        EnrollmentStore store(fleet.config().population_seed);
        AuthConfig ac;
        ac.threads = threads;
        AuthService service(fleet, store, ac);
        service.enrollAll();
        return service.execute(mixedStream(48, 400));
    };
    const LoadReport reference = runWith(1, 1);
    expectReportsEqual(reference, runWith(5, 8));
    expectReportsEqual(reference, runWith(3, 2));
    EXPECT_GT(reference.accepted, 0u);
    EXPECT_GT(reference.latency_p99_ns, reference.latency_p50_ns);
}

TEST(AuthService, TrueAcceptRateMeetsPaperLevel)
{
    DeviceFleet fleet(testFleetConfig(48, 3));
    EnrollmentStore store(fleet.config().population_seed);
    AuthService service(fleet, store, {});
    service.enrollAll();
    TrafficConfig tc;
    tc.requests = 600;
    const LoadReport report =
        service.execute(RequestGenerator(tc, 48).generate());
    const double rate =
        static_cast<double>(report.accepted) /
        static_cast<double>(report.accepted + report.rejected);
    // Paper Section 6.1.1: 99.36% true accepts for exact-match
    // authentication; the Jaccard matcher must do at least as well.
    EXPECT_GE(rate, 0.9936);
    EXPECT_EQ(report.unknown_device, 0u);
}

TEST(AuthService, UnknownDevicesAreReportedNotAccepted)
{
    DeviceFleet fleet(testFleetConfig(10, 2));
    EnrollmentStore store(fleet.config().population_seed);
    AuthService service(fleet, store, {});
    // Nothing enrolled: every authentication is an unknown device.
    TrafficConfig tc;
    tc.requests = 20;
    const LoadReport report =
        service.execute(RequestGenerator(tc, 10).generate());
    EXPECT_EQ(report.unknown_device, 20u);
    EXPECT_EQ(report.accepted, 0u);
}

TEST(AuthService, PersistedStoreAuthenticatesInASecondRun)
{
    const auto path =
        (std::filesystem::temp_directory_path() /
         "codic_test_fleet_store.bin")
            .string();

    // Run 1: enroll and persist.
    {
        DeviceFleet fleet(testFleetConfig(32, 4));
        EnrollmentStore store(fleet.config().population_seed);
        AuthService service(fleet, store, {});
        service.enrollAll();
        store.saveFile(path);
    }

    // Run 2: reload and authenticate against the stored signatures.
    {
        EnrollmentStore store = EnrollmentStore::loadFile(path);
        EXPECT_EQ(store.size(), 32u);
        FleetConfig fc = testFleetConfig(32, 2);
        fc.population_seed = store.populationSeed();
        DeviceFleet fleet(fc);
        AuthService service(fleet, store, {});
        TrafficConfig tc;
        tc.requests = 400;
        const LoadReport report =
            service.execute(RequestGenerator(tc, 32).generate());
        const double rate =
            static_cast<double>(report.accepted) /
            static_cast<double>(report.accepted + report.rejected);
        EXPECT_GE(rate, 0.9936);
        EXPECT_EQ(report.unknown_device, 0u);
    }
    std::filesystem::remove(path);
}

// --- Scenario-level determinism across --shards. ---

std::string
fleetJson(const std::string &name, int shards, int threads)
{
    RunOptions options;
    options.seed = 3;
    options.scale = 0.01;
    options.shards = shards;
    options.threads = threads;
    std::ostringstream out;
    JsonResultSink sink(out);
    EXPECT_TRUE(runScenario(name, options, sink));
    sink.finish();
    return out.str();
}

TEST(FleetScenarios, AuthLoadJsonByteIdenticalAcrossShards)
{
    const std::string reference = fleetJson("fleet_auth_load", 1, 1);
    EXPECT_EQ(reference, fleetJson("fleet_auth_load", 4, 8));
    EXPECT_NE(reference.find("\"true_accept_rate\":1"),
              std::string::npos);
}

TEST(FleetScenarios, MixedJsonByteIdenticalAcrossShards)
{
    EXPECT_EQ(fleetJson("fleet_mixed", 1, 2),
              fleetJson("fleet_mixed", 3, 8));
}

// --- Queueing-aware latency and batched bank-parallel replay. ---

TEST(AuthService, QueueingWaitsOnlyForOpenLoopStreams)
{
    const auto runStream = [](double offered_rps) {
        DeviceFleet fleet(testFleetConfig(32, 2));
        EnrollmentStore store(fleet.config().population_seed);
        AuthService service(fleet, store, {});
        service.enrollAll();
        TrafficConfig tc;
        tc.traffic_seed = 23;
        tc.requests = 400;
        tc.zipf = 1.2; // Hot devices: back-to-back lane arrivals.
        tc.offered_rps = offered_rps;
        return service.execute(
            RequestGenerator(tc, 32).generate());
    };

    const LoadReport closed = runStream(0.0);
    EXPECT_FALSE(closed.open_loop);
    EXPECT_EQ(closed.wait_mean_ns, 0.0);
    EXPECT_EQ(closed.wait_max_ns, 0.0);
    // Closed loop: latency is the modeled service time alone.
    EXPECT_DOUBLE_EQ(closed.latency_mean_ns,
                     closed.total_service_ns /
                         static_cast<double>(closed.requests));

    // Open loop far above the lanes' service capacity: waits must
    // appear, and latency = wait + service dominates service-only.
    const LoadReport open = runStream(5e6);
    EXPECT_TRUE(open.open_loop);
    EXPECT_GT(open.wait_max_ns, 0.0);
    EXPECT_GT(open.wait_mean_ns, 0.0);
    EXPECT_GE(open.latency_p99_ns, closed.latency_p99_ns);
    EXPECT_DOUBLE_EQ(open.latency_mean_ns,
                     open.total_service_ns /
                             static_cast<double>(open.requests) +
                         open.wait_mean_ns);
}

TEST(AuthService, OutOfPopulationDeviceIdsReportUnknownNotPanic)
{
    // Regression: slice assembly must not touch the fleet for a
    // request whose store lookup fails - an authenticate probe with
    // an id outside the population reports unknown_device exactly
    // as in the serial-replay path.
    DeviceFleet fleet(testFleetConfig(16, 2));
    EnrollmentStore store(fleet.config().population_seed);
    AuthService service(fleet, store, {});
    service.enrollAll();
    std::vector<FleetRequest> stream(3);
    stream[0].device_id = 3; // Enrolled.
    stream[1].device_id = 1u << 20; // Far outside the population.
    stream[1].index = 1;
    stream[2].device_id = 5;
    stream[2].index = 2;
    const LoadReport report = service.execute(stream);
    EXPECT_EQ(report.unknown_device, 1u);
    EXPECT_EQ(report.accepted, 2u);
}

TEST(AuthService, BatchedReplayShortensShardMakespan)
{
    const auto makespan = [](int replay_batch) {
        FleetConfig fc = testFleetConfig(48, 2);
        fc.dram.scheduler.replay_batch = replay_batch;
        DeviceFleet fleet(fc);
        EnrollmentStore store(fc.population_seed);
        AuthService service(fleet, store, {});
        service.enrollAll();
        const LoadReport r =
            service.execute(mixedStream(48, 300));
        EXPECT_GT(r.accepted, 0u);
        return r.makespanNs();
    };
    const double serial = makespan(1);
    const double batched = makespan(8);
    EXPECT_GT(serial, 0.0);
    // The bank-parallel interleave must buy >= 15% on this mixed
    // batch (CI's codic_run smoke step asserts >= 20% on the
    // 8-shard fleet_scaling makespan at scale 0.25).
    EXPECT_LT(batched, serial * 0.85);
}

} // namespace
} // namespace codic
