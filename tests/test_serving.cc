/**
 * @file
 * Tests of the production-serving layer: LruIndex edge behavior
 * (the shared recency index behind both decode caches and the
 * deterministic cache plan), the streaming v2 store writer and the
 * mmap-backed read path (store_mmap.h), admission control / load
 * shedding (admission.h), the multi-region layer and shard-placement
 * policies (region.h), and the RunOptions contract for the new
 * --store-mmap/--regions/--shed CLI surface.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/run_options.h"
#include "common/varint.h"
#include "fleet/admission.h"
#include "fleet/auth_service.h"
#include "fleet/device_fleet.h"
#include "fleet/enrollment_store.h"
#include "fleet/region.h"
#include "fleet/store_format.h"
#include "fleet/store_mmap.h"

namespace codic {
namespace {

namespace fs = std::filesystem;

/** Small fleet that keeps tests fast. */
FleetConfig
servingFleetConfig(uint64_t devices = 48, int shards = 3)
{
    FleetConfig fc;
    fc.population_seed = 77;
    fc.devices = devices;
    fc.shards = shards;
    fc.dram = DramConfig::ddr3_1600(256, 1);
    fc.dram.scheduler = SchedulerPolicy::preset("batched");
    return fc;
}

std::string
tempPath(const std::string &name)
{
    return (fs::temp_directory_path() / name).string();
}

// --- LruIndex edge cases. ---

TEST(LruIndex, CapacityOneThrashes)
{
    LruIndex idx(1);
    EXPECT_FALSE(idx.touch(7));
    EXPECT_EQ(idx.evictIfOver(), std::nullopt);
    EXPECT_FALSE(idx.touch(8));
    EXPECT_EQ(idx.evictIfOver(), std::optional<uint64_t>(7));
    EXPECT_EQ(idx.evictIfOver(), std::nullopt);
    EXPECT_TRUE(idx.touch(8));
}

TEST(LruIndex, ZeroCapacityClampsToOne)
{
    LruIndex idx(0);
    idx.touch(1);
    idx.touch(2);
    EXPECT_EQ(idx.evictIfOver(), std::optional<uint64_t>(1));
    EXPECT_EQ(idx.evictIfOver(), std::nullopt);
}

TEST(LruIndex, TouchAfterEvictReinsertsAsNew)
{
    LruIndex idx(1);
    idx.touch(5);
    idx.touch(6);
    EXPECT_EQ(idx.evictIfOver(), std::optional<uint64_t>(5));
    // The evicted id must come back as a fresh insert, not a hit.
    EXPECT_FALSE(idx.touch(5));
    EXPECT_EQ(idx.evictIfOver(), std::optional<uint64_t>(6));
}

TEST(LruIndex, EvictIfOverDrainsLeastRecentFirst)
{
    LruIndex idx(2);
    for (uint64_t id : {1, 2, 3, 4})
        idx.touch(id);
    // Deferred draining pops victims oldest-first until at capacity.
    EXPECT_EQ(idx.evictIfOver(), std::optional<uint64_t>(1));
    EXPECT_EQ(idx.evictIfOver(), std::optional<uint64_t>(2));
    EXPECT_EQ(idx.evictIfOver(), std::nullopt);
    EXPECT_TRUE(idx.contains(3));
    EXPECT_TRUE(idx.contains(4));
}

TEST(LruIndex, ContainsIsAPurePeek)
{
    LruIndex idx(2);
    idx.touch(1);
    idx.touch(2);
    // A peek must not refresh recency: 1 stays the LRU victim.
    EXPECT_TRUE(idx.contains(1));
    idx.touch(3);
    EXPECT_EQ(idx.evictIfOver(), std::optional<uint64_t>(1));
}

TEST(LruIndex, EraseDropsOnlyThePresentId)
{
    LruIndex idx(4);
    idx.touch(1);
    EXPECT_TRUE(idx.erase(1));
    EXPECT_FALSE(idx.erase(1));
    EXPECT_FALSE(idx.contains(1));
}

// --- Streaming store writer (v2 format). ---

Response
cellsResponse(std::initializer_list<uint32_t> cells)
{
    Response r;
    r.cells = cells;
    return r;
}

TEST(EnrollmentStoreWriter, MatchesSaveBinaryByteForByte)
{
    EnrollmentStore store(4242);
    store.put(1, {99, 65536}, cellsResponse({7}));
    store.put(5, {123, 65536}, cellsResponse({1, 2, 500, 65535}));
    store.put(300, {4, 32768}, cellsResponse({}));
    std::ostringstream reference;
    store.saveBinary(reference);

    const std::string path = tempPath("codic_test_writer.bin");
    EnrollmentStoreWriter writer(path, 4242);
    writer.append(1, {99, 65536}, cellsResponse({7}));
    writer.append(5, {123, 65536}, cellsResponse({1, 2, 500, 65535}));
    writer.append(300, {4, 32768}, cellsResponse({}));
    writer.finish();

    std::ifstream in(path, std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    EXPECT_EQ(bytes.str(), reference.str());
    fs::remove(path);
}

TEST(EnrollmentStoreWriter, RejectsUnsortedAppends)
{
    const std::string path = tempPath("codic_test_writer_bad.bin");
    EnrollmentStoreWriter writer(path, 1);
    writer.append(5, {1, 64}, cellsResponse({1}));
    EXPECT_THROW(writer.append(3, {1, 64}, cellsResponse({2})),
                 FatalError);
    EXPECT_THROW(writer.append(5, {1, 64}, cellsResponse({2})),
                 FatalError);
    fs::remove(path);
}

TEST(EnrollmentStoreWriter, UnfinishedWriterCleansUpPartialFiles)
{
    const std::string path = tempPath("codic_test_writer_part.bin");
    {
        EnrollmentStoreWriter writer(path, 1);
        writer.append(1, {1, 64}, cellsResponse({1}));
        // Destroyed without finish(): a crash mid-campaign must not
        // leave a half-written store that a later run trusts.
    }
    EXPECT_FALSE(fs::exists(path));
    EXPECT_FALSE(fs::exists(path + ".idx"));
}

// --- Mmap-backed read path. ---

/** Write a deterministic test store and return its path. */
std::string
writeTestStore(const std::string &name, uint64_t seed = 321,
               uint64_t devices = 50)
{
    const std::string path = tempPath(name);
    EnrollmentStoreWriter writer(path, seed);
    for (uint64_t id = 0; id < devices; ++id) {
        // Odd ids get sparse signatures, evens denser ones.
        Response sig;
        for (uint32_t c = 0; c < 3 + (id % 5) * 4; ++c)
            sig.cells.push_back(
                static_cast<uint32_t>(id * 131 + c * 17));
        writer.append(id * 3, {id % 7, 65536}, sig);
    }
    writer.finish();
    return path;
}

TEST(MmapEnrollmentStore, LookupParityWithHeapStore)
{
    const std::string path =
        writeTestStore("codic_test_mmap_parity.bin");
    EnrollmentStore heap = EnrollmentStore::loadFile(path);
    MmapEnrollmentStore mm(path);

    EXPECT_EQ(mm.populationSeed(), heap.populationSeed());
    EXPECT_EQ(mm.size(), heap.size());
    EXPECT_EQ(mm.baseRecords(), heap.size());
    EXPECT_EQ(mm.deviceIds(), heap.deviceIds());
    for (uint64_t id : heap.deviceIds()) {
        EXPECT_TRUE(mm.contains(id));
        ASSERT_NE(mm.lookup(id), nullptr);
        EXPECT_EQ(*mm.lookup(id), *heap.lookup(id));
    }
    EXPECT_FALSE(mm.contains(1));  // Ids are multiples of 3.
    EXPECT_EQ(mm.lookup(1), nullptr);
    EXPECT_GT(mm.cacheHits(), 0u); // Double lookups above hit.
    fs::remove(path);
}

TEST(MmapEnrollmentStore, OverlayShadowsBaseRecords)
{
    const std::string path =
        writeTestStore("codic_test_mmap_overlay.bin");
    MmapEnrollmentStore mm(path);
    const size_t base = mm.size();

    // Re-enroll an existing device: the overlay supersedes its base
    // record; the mapped file is untouched.
    mm.put(3, {2, 65536}, cellsResponse({42, 43}));
    EXPECT_EQ(*mm.lookup(3), cellsResponse({42, 43}));
    EXPECT_EQ(mm.size(), base);
    EXPECT_EQ(mm.supersededRecords(), 1u);

    // Enroll a brand-new device: size grows.
    mm.put(1, {1, 65536}, cellsResponse({9}));
    EXPECT_TRUE(mm.contains(1));
    EXPECT_EQ(*mm.lookup(1), cellsResponse({9}));
    EXPECT_EQ(mm.size(), base + 1);
    EXPECT_EQ(mm.overlayRecords(), 2u);
    fs::remove(path);
}

TEST(MmapEnrollmentStore, CompactFoldsOverlayIntoAFreshFile)
{
    const std::string path =
        writeTestStore("codic_test_mmap_compact.bin");
    const std::string compacted =
        tempPath("codic_test_mmap_compacted.bin");
    MmapEnrollmentStore mm(path);
    mm.put(3, {2, 65536}, cellsResponse({42, 43}));   // Supersede.
    mm.put(1, {1, 65536}, cellsResponse({9}));        // New device.

    const auto stats = mm.compactTo(compacted);
    EXPECT_EQ(stats.base_records, mm.baseRecords());
    EXPECT_EQ(stats.overlay_records, 2u);
    EXPECT_EQ(stats.superseded, 1u);
    EXPECT_EQ(stats.records_written, mm.size());

    MmapEnrollmentStore fresh(compacted);
    EXPECT_EQ(fresh.size(), mm.size());
    EXPECT_EQ(fresh.supersededRecords(), 0u);
    EXPECT_EQ(fresh.deviceIds(), mm.deviceIds());
    for (uint64_t id : mm.deviceIds())
        EXPECT_EQ(*fresh.lookup(id), *mm.lookup(id));
    fs::remove(path);
    fs::remove(compacted);
}

TEST(MmapEnrollmentStore, RejectsMissingTruncatedAndCorruptFiles)
{
    EXPECT_THROW(
        MmapEnrollmentStore(tempPath("codic_no_such_store.bin")),
        FatalError);

    const std::string path =
        writeTestStore("codic_test_mmap_corrupt.bin");
    const auto full = fs::file_size(path);

    fs::resize_file(path, full - 4); // Truncated index footer.
    EXPECT_THROW(MmapEnrollmentStore{path}, FatalError);

    fs::resize_file(path, 16); // Header alone.
    EXPECT_THROW(MmapEnrollmentStore{path}, FatalError);

    // Bad magic.
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.put('X');
    }
    EXPECT_THROW(MmapEnrollmentStore{path}, FatalError);
    fs::remove(path);
}

TEST(MmapEnrollmentStore, RejectsARecordOffsetThatWraps)
{
    const std::string path =
        writeTestStore("codic_test_mmap_wrapped_offset.bin");
    {
        // Slot 0's record offset (index entry bytes 8..16) -> 2^64 - 8:
        // offset + the fixed record bytes wraps below the index, so a
        // sum-based bound would read before the mapping.
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        unsigned char le[8];
        f.seekg(32);
        f.read(reinterpret_cast<char *>(le), sizeof(le));
        uint64_t index_offset = 0;
        for (int i = 7; i >= 0; --i)
            index_offset = index_offset << 8 | le[i];
        f.seekp(static_cast<std::streamoff>(index_offset + 8));
        f.put(static_cast<char>(0xf8));
        for (int i = 1; i < 8; ++i)
            f.put(static_cast<char>(0xff));
        ASSERT_TRUE(f.good());
    }
    MmapEnrollmentStore mm(path);
    EXPECT_THROW(mm.lookup(mm.deviceIds().front()), FatalError);
    fs::remove(path);
}

TEST(MmapEnrollmentStore, RejectsAnIndexOffsetOffItsRecord)
{
    // Index entry 28's record offset, damaged two ways that stay
    // inside the record area, so a range check alone accepts both:
    // one flipped bit (1 KB back, mid-record) and the previous
    // entry's offset (another device's whole record). Both read paths
    // must reject the entry rather than serve other bytes.
    const uint64_t slot = 28;
    const uint64_t device = slot * 3;
    for (const bool flip_bit : {true, false}) {
        const std::string path =
            writeTestStore("codic_test_mmap_offset.bin", 321, 40);
        std::string bytes;
        {
            std::ifstream in(path, std::ios::binary);
            std::ostringstream all;
            all << in.rdbuf();
            bytes = all.str();
        }
        const auto le = [&](size_t pos) {
            uint64_t v = 0;
            for (int i = 7; i >= 0; --i)
                v = v << 8 | static_cast<uint8_t>(bytes[pos + i]);
            return v;
        };
        const size_t entry = le(32) + slot * 16;
        if (flip_bit) {
            ASSERT_TRUE(bytes[entry + 9] & 0x04)
                << "entry 28 must start past 1 KB";
            bytes[entry + 9] ^= 0x04;
        } else {
            bytes.replace(entry + 8, 8, bytes, entry - 8, 8);
        }
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << bytes;
        }
        EXPECT_THROW(EnrollmentStore::loadFile(path), FatalError);
        MmapEnrollmentStore mm(path);
        EXPECT_TRUE(mm.contains(device));
        EXPECT_THROW(mm.lookup(device), FatalError);
        fs::remove(path);
    }
}

/**
 * A one-record store image for device 7 whose cell list is `deltas`,
 * varint-encoded as written, in a `segment_bits`-bit segment.
 */
std::string
craftedStore(uint32_t segment_bits, std::initializer_list<uint64_t> deltas)
{
    EnrollmentRecord rec;
    rec.device_id = 7;
    rec.segment_id = 3;
    rec.segment_bits = segment_bits;
    rec.cell_count = static_cast<uint32_t>(deltas.size());
    for (uint64_t d : deltas)
        putVarint(rec.blob, d);
    std::ostringstream out;
    writeStoreHeader(out, 1, 1, kStoreHeaderBytes + storeRecordBytes(rec));
    writeStoreRecord(out, rec);
    writeStoreIndexEntry(out, rec.device_id, kStoreHeaderBytes);
    return out.str();
}

/** The FatalError message a lookup of device 7 raises, or "". */
std::string
lookupError(const EnrollmentBackend &store)
{
    try {
        store.lookup(7);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(EnrollmentStore, LookupsRejectCorruptCellLists)
{
    // Cell lists that decode without complaint unless every delta is
    // checked: repeated cells, a delta past 32 bits (truncated to 1), a
    // 32-bit delta that wraps below the previous cell, and cells at or
    // past the segment's end. Both read paths must refuse them.
    const struct
    {
        uint32_t segment_bits;
        std::initializer_list<uint64_t> deltas;
        const char *why;
    } corrupt[] = {
        {65536, {5, 0, 0}, "repeats cell 5"},
        {65536, {(1ull << 32) + 1}, "overflows 32 bits"},
        {65536, {9, 0xFFFFFFFF}, "overflows 32 bits"},
        {65536, {2097151}, "outside its 65536-bit segment"},
        {64, {10, 54}, "outside its 64-bit segment"},
        {64, {63, 1}, "outside its 64-bit segment"},
        {0, {0}, "outside its 0-bit segment"},
    };
    const std::string path = tempPath("codic_test_corrupt_cells.bin");
    for (const auto &c : corrupt) {
        const std::string bytes = craftedStore(c.segment_bits, c.deltas);
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << bytes;
        }
        const EnrollmentStore heap = EnrollmentStore::loadBinary(bytes);
        const MmapEnrollmentStore mapped(path);
        for (const EnrollmentBackend *store :
             {static_cast<const EnrollmentBackend *>(&heap),
              static_cast<const EnrollmentBackend *>(&mapped)}) {
            ASSERT_TRUE(store->contains(7));
            const std::string error = lookupError(*store);
            EXPECT_NE(error.find("device 7"), std::string::npos) << c.why;
            EXPECT_NE(error.find(c.why), std::string::npos) << error;
        }
    }
    // The edges of a valid list still decode: a first cell of 0, unit
    // steps, and the segment's last cell.
    const std::string bytes = craftedStore(64, {0, 1, 62});
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    EXPECT_EQ(*EnrollmentStore::loadBinary(bytes).lookup(7),
              cellsResponse({0, 1, 63}));
    EXPECT_EQ(*MmapEnrollmentStore(path).lookup(7),
              cellsResponse({0, 1, 63}));
    fs::remove(path);
}

TEST(MmapEnrollmentStore, SyntheticStoreIsDeterministic)
{
    const std::string a = tempPath("codic_test_synth_a.bin");
    const std::string b = tempPath("codic_test_synth_b.bin");
    writeSyntheticStore(a, 9, 100, 65536, 12);
    writeSyntheticStore(b, 9, 100, 65536, 12);

    std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
    std::stringstream ba, bb;
    ba << fa.rdbuf();
    bb << fb.rdbuf();
    EXPECT_EQ(ba.str(), bb.str());

    MmapEnrollmentStore mm(a);
    EXPECT_EQ(mm.baseRecords(), 100u);
    EXPECT_EQ(mm.populationSeed(), 9u);
    for (uint64_t id : {0ull, 57ull, 99ull}) {
        ASSERT_NE(mm.lookup(id), nullptr);
        EXPECT_FALSE(mm.lookup(id)->cells.empty());
    }
    fs::remove(a);
    fs::remove(b);
}

// --- Admission controller. ---

AdmissionConfig
admissionConfig(double capacity_rps, double burst = 64.0)
{
    AdmissionConfig cfg;
    cfg.capacity_rps = capacity_rps;
    cfg.burst = burst;
    return cfg;
}

TEST(AdmissionController, BucketShedsBestEffortBeforeUrgent)
{
    // Negligible refill, 4-token burst, half reserved for urgent:
    // best-effort admits while tokens > 2, urgent drains to zero.
    AdmissionConfig cfg = admissionConfig(1.0, 4.0);
    cfg.urgent_reserve = 0.5;
    cfg.max_wait_urgent_ns = 1e12;      // Isolate the bucket.
    cfg.max_wait_best_effort_ns = 1e12;
    cfg.lane_queue_depth = 1 << 20;
    AdmissionController ctrl(cfg, 4, 1000.0);

    int best_effort_admitted = 0, urgent_admitted = 0;
    for (uint64_t i = 0; i < 4; ++i)
        best_effort_admitted +=
            ctrl.offer(AdmissionClass::BestEffort, i, 0.0, 10.0)
                .admitted;
    for (uint64_t i = 0; i < 4; ++i)
        urgent_admitted +=
            ctrl.offer(AdmissionClass::Urgent, 10 + i, 0.0, 10.0)
                .admitted;
    EXPECT_EQ(best_effort_admitted, 2);
    EXPECT_EQ(urgent_admitted, 2); // Drains the reserve to zero.

    const auto d = ctrl.offer(AdmissionClass::Urgent, 99, 0.0, 10.0);
    EXPECT_FALSE(d.admitted);
    EXPECT_TRUE(d.bucket_shed);
}

TEST(AdmissionController, DeadlineDropsProjectedLateArrivals)
{
    AdmissionConfig cfg = admissionConfig(1e12, 1e6);
    cfg.max_wait_urgent_ns = 1000.0;
    cfg.max_wait_best_effort_ns = 1000.0;
    cfg.lane_queue_depth = 1 << 20;
    AdmissionController ctrl(cfg, /*lanes=*/1, 1000.0);

    // Same-lane arrivals at t=0 with 600 ns service: waits project
    // to 0, 600, 1200 - the third breaches the 1000 ns deadline.
    const auto a = ctrl.offer(AdmissionClass::Urgent, 0, 0.0, 600.0);
    EXPECT_TRUE(a.admitted);
    EXPECT_EQ(a.wait_ns, 0.0);
    const auto b = ctrl.offer(AdmissionClass::Urgent, 0, 0.0, 600.0);
    EXPECT_TRUE(b.admitted);
    EXPECT_EQ(b.wait_ns, 600.0);
    const auto c = ctrl.offer(AdmissionClass::Urgent, 0, 0.0, 600.0);
    EXPECT_FALSE(c.admitted);
    EXPECT_TRUE(c.deadline_shed);
}

TEST(AdmissionController, FullLaneQueueSheds)
{
    AdmissionConfig cfg = admissionConfig(1e12, 1e6);
    cfg.max_wait_urgent_ns = 1e12;
    cfg.max_wait_best_effort_ns = 1e12;
    cfg.lane_queue_depth = 2;
    AdmissionController ctrl(cfg, /*lanes=*/1, 1000.0);

    EXPECT_TRUE(
        ctrl.offer(AdmissionClass::Urgent, 0, 0.0, 500.0).admitted);
    EXPECT_TRUE(
        ctrl.offer(AdmissionClass::Urgent, 0, 0.0, 500.0).admitted);
    const auto d = ctrl.offer(AdmissionClass::Urgent, 0, 0.0, 500.0);
    EXPECT_FALSE(d.admitted);
    EXPECT_TRUE(d.queue_shed);

    // Once the first two complete, the lane admits again.
    const auto later =
        ctrl.offer(AdmissionClass::Urgent, 0, 2000.0, 500.0);
    EXPECT_TRUE(later.admitted);
    EXPECT_EQ(later.wait_ns, 0.0);
}

TEST(AdmissionController, AutoDeadlineDerivesFromTheCostModel)
{
    AdmissionConfig cfg = admissionConfig(1e6);
    AdmissionController ctrl(cfg, 4, /*auto_deadline_ns=*/8000.0);
    EXPECT_EQ(ctrl.deadlineNs(AdmissionClass::Urgent), 8000.0);
    EXPECT_EQ(ctrl.deadlineNs(AdmissionClass::BestEffort), 4000.0);
}

TEST(Admission, RequestKindsMapToTheDocumentedClasses)
{
    EXPECT_EQ(admissionClassOf(RequestKind::Authenticate),
              AdmissionClass::Urgent);
    EXPECT_EQ(admissionClassOf(RequestKind::Reenroll),
              AdmissionClass::BestEffort);
    EXPECT_EQ(admissionClassOf(RequestKind::TrngDraw),
              AdmissionClass::BestEffort);
    EXPECT_EQ(admissionClassOf(RequestKind::SecureDealloc),
              AdmissionClass::BestEffort);
}

// --- AuthService under admission control. ---

void
expectReportsEqual(const LoadReport &a, const LoadReport &b)
{
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.shed_urgent, b.shed_urgent);
    EXPECT_EQ(a.shed_best_effort, b.shed_best_effort);
    EXPECT_EQ(a.shed_deadline, b.shed_deadline);
    EXPECT_EQ(a.shed_queue, b.shed_queue);
    EXPECT_EQ(a.shed_bucket, b.shed_bucket);
    EXPECT_EQ(a.accepted, b.accepted);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.unknown_device, b.unknown_device);
    EXPECT_EQ(a.planned_cache_hits, b.planned_cache_hits);
    EXPECT_EQ(a.latency_p50_ns, b.latency_p50_ns);
    EXPECT_EQ(a.latency_p99_ns, b.latency_p99_ns);
    EXPECT_EQ(a.admitted_urgent_p50_ns, b.admitted_urgent_p50_ns);
    EXPECT_EQ(a.admitted_urgent_p99_ns, b.admitted_urgent_p99_ns);
    EXPECT_EQ(a.total_service_ns, b.total_service_ns);
    EXPECT_EQ(a.total_energy_nj, b.total_energy_nj);
}

std::vector<FleetRequest>
overloadStream(uint64_t devices, double offered_rps)
{
    TrafficConfig tc;
    tc.traffic_seed = 29;
    tc.requests = 500;
    tc.zipf = 0.9;
    tc.weight_auth = 0.7;
    tc.weight_trng = 0.2;
    tc.weight_dealloc = 0.1;
    tc.offered_rps = offered_rps;
    return RequestGenerator(tc, devices).generate();
}

TEST(AuthServiceAdmission, OverloadShedsAndProtectsUrgent)
{
    DeviceFleet fleet(servingFleetConfig());
    EnrollmentStore store(fleet.config().population_seed);
    AuthService probe(fleet, store, {});
    probe.enrollAll();
    const double capacity = probe.modeledCapacityRps();
    ASSERT_GT(capacity, 0.0);

    AuthConfig ac;
    ac.admission.capacity_rps = capacity;
    AuthService service(fleet, store, ac);
    const LoadReport r = service.execute(
        overloadStream(fleet.devices(), 3.0 * capacity));

    EXPECT_TRUE(r.admission_on);
    EXPECT_GT(r.shed, 0u);
    EXPECT_EQ(r.admitted + r.shed, r.requests);
    EXPECT_EQ(r.shed, r.shed_urgent + r.shed_best_effort);
    EXPECT_EQ(r.shed,
              r.shed_deadline + r.shed_queue + r.shed_bucket);

    // Urgent protection: the urgent shed fraction never exceeds the
    // best-effort shed fraction.
    const uint64_t urgent = r.by_kind[0];
    const uint64_t best_effort = r.requests - urgent;
    ASSERT_GT(urgent, 0u);
    ASSERT_GT(best_effort, 0u);
    const double urgent_frac = static_cast<double>(r.shed_urgent) /
                               static_cast<double>(urgent);
    const double best_frac =
        static_cast<double>(r.shed_best_effort) /
        static_cast<double>(best_effort);
    EXPECT_LE(urgent_frac, best_frac + 1e-9);

    // The admitted urgent tail stays within the class deadline's
    // reach: wait <= deadline, so p99 <= deadline + max service.
    EXPECT_GT(r.admitted_urgent_p99_ns, 0.0);
}

TEST(AuthServiceAdmission, DisabledAdmissionAdmitsEverything)
{
    DeviceFleet fleet(servingFleetConfig());
    EnrollmentStore store(fleet.config().population_seed);
    AuthService service(fleet, store, {});
    service.enrollAll();
    const LoadReport r =
        service.execute(overloadStream(fleet.devices(), 5e6));
    EXPECT_FALSE(r.admission_on);
    EXPECT_EQ(r.admitted, r.requests);
    EXPECT_EQ(r.shed, 0u);
    EXPECT_EQ(r.shed_rate, 0.0);
    // The urgent percentile mirrors the plain authenticate latency.
    EXPECT_GT(r.admitted_urgent_p99_ns, 0.0);
    EXPECT_LE(r.admitted_urgent_p50_ns, r.admitted_urgent_p99_ns);
}

TEST(AuthServiceAdmission, ReportIndependentOfShardsAndThreads)
{
    const auto runWith = [](int shards, int threads) {
        DeviceFleet fleet(servingFleetConfig(48, shards));
        EnrollmentStore store(fleet.config().population_seed);
        AuthConfig ac;
        ac.threads = threads;
        AuthService probe(fleet, store, ac);
        probe.enrollAll();
        ac.admission.capacity_rps = probe.modeledCapacityRps();
        AuthService service(fleet, store, ac);
        return service.execute(overloadStream(
            fleet.devices(), 3.0 * ac.admission.capacity_rps));
    };
    const LoadReport reference = runWith(1, 1);
    EXPECT_TRUE(reference.admission_on);
    EXPECT_GT(reference.shed, 0u);
    expectReportsEqual(reference, runWith(5, 8));
    expectReportsEqual(reference, runWith(3, 2));
}

// --- Shard-placement policies. ---

TEST(ShardSelector, FactoryCoversNamedPoliciesAndRejectsUnknown)
{
    EXPECT_STREQ(ShardSelector::create("modulo")->name(), "modulo");
    EXPECT_STREQ(ShardSelector::create("hash")->name(), "hash");
    EXPECT_THROW(ShardSelector::create("round-robin"), FatalError);
}

TEST(ShardSelector, HashPolicyStaysInRangeAndMixesSequentialIds)
{
    const auto hash = ShardSelector::create("hash");
    int seen[8] = {};
    for (uint64_t id = 0; id < 1000; ++id) {
        const int shard = hash->shardOf(id, 8);
        ASSERT_GE(shard, 0);
        ASSERT_LT(shard, 8);
        ++seen[shard];
    }
    // A mixing hash must spread a sequential range over every shard.
    for (int s = 0; s < 8; ++s)
        EXPECT_GT(seen[s], 0) << "shard " << s << " never hit";
}

TEST(ShardSelector, ExplicitPinsOverrideTheFallback)
{
    ExplicitShardSelector sel({{7, 3}, {9, 7}},
                              ShardSelector::create("modulo"));
    EXPECT_EQ(sel.shardOf(7, 4), 3);
    EXPECT_EQ(sel.shardOf(6, 4), 2);       // Fallback modulo.
    EXPECT_EQ(sel.shardOf(9, 4), 1);       // Pin out of range: falls
                                           // back to 9 % 4.
    EXPECT_EQ(sel.pinnedDevices(), 2u);
}

TEST(ShardSelector, RebalancedSelectorSpreadsAModuloHotspot)
{
    // Devices 0, 4, 8, 12 all land on shard 0 under modulo with 4
    // shards; a measured stream pins them onto distinct shards.
    std::vector<FleetRequest> stream;
    const auto addRequests = [&](uint64_t id, int n) {
        for (int i = 0; i < n; ++i) {
            FleetRequest r;
            r.device_id = id;
            stream.push_back(r);
        }
    };
    addRequests(0, 100);
    addRequests(4, 50);
    addRequests(8, 30);
    addRequests(12, 20);

    const auto sel = rebalancedSelector(
        stream, 4, ShardSelector::create("modulo"));
    std::set<int> shards;
    for (uint64_t id : {0ull, 4ull, 8ull, 12ull})
        shards.insert(sel->shardOf(id, 4));
    EXPECT_EQ(shards.size(), 4u) << "hot devices still colocated";
    // Unmeasured devices fall through to the modulo fallback.
    EXPECT_EQ(sel->shardOf(16, 4), 0);
}

TEST(ShardSelector, PlacementNeverChangesTheStructuredReport)
{
    const auto runWith =
        [](std::shared_ptr<const ShardSelector> sel) {
            FleetConfig fc = servingFleetConfig(48, 4);
            fc.shard_selector = std::move(sel);
            DeviceFleet fleet(fc);
            EnrollmentStore store(fc.population_seed);
            AuthService service(fleet, store, {});
            service.enrollAll();
            return service.execute(
                overloadStream(fleet.devices(), 0.0));
        };
    const LoadReport modulo = runWith(nullptr);
    expectReportsEqual(modulo, runWith(ShardSelector::create("hash")));
    expectReportsEqual(modulo,
                       runWith(rebalancedSelector(
                           overloadStream(48, 0.0), 4,
                           ShardSelector::create("modulo"))));
}

TEST(DeviceFleet, ShardDeviceIdsPartitionUnderAnySelector)
{
    FleetConfig fc = servingFleetConfig(20, 3);
    fc.shard_selector = ShardSelector::create("hash");
    DeviceFleet fleet(fc);
    size_t total = 0;
    for (int s = 0; s < fleet.shards(); ++s) {
        for (uint64_t id : fleet.shardDeviceIds(s))
            EXPECT_EQ(fleet.shardOf(id), s);
        total += fleet.shardDeviceIds(s).size();
    }
    EXPECT_EQ(total, 20u);
}

// --- Multi-region serving. ---

RegionConfig
testRegion(const std::string &name, uint64_t seed,
           uint64_t traffic_seed)
{
    RegionConfig rc;
    rc.name = name;
    rc.fleet = servingFleetConfig(32, 2);
    rc.fleet.population_seed = seed;
    rc.traffic.traffic_seed = traffic_seed;
    rc.traffic.requests = 300;
    rc.traffic.zipf = 0.8;
    rc.traffic.weight_auth = 0.8;
    rc.traffic.weight_trng = 0.2;
    return rc;
}

TEST(RegionSet, SingleRegionMatchesStandaloneService)
{
    const RegionConfig rc = testRegion("solo", 123, 11);
    RegionSet set({rc});
    set.enrollAll(2);
    const auto result = set.serve(2);
    ASSERT_EQ(result.reports.size(), 1u);
    ASSERT_EQ(result.names[0], "solo");

    DeviceFleet fleet(rc.fleet);
    EnrollmentStore store(rc.fleet.population_seed);
    AuthService service(fleet, store, rc.auth);
    service.enrollAll();
    const LoadReport solo = service.execute(
        RequestGenerator(rc.traffic, fleet.devices()).generate());
    expectReportsEqual(result.reports[0], solo);

    EXPECT_EQ(result.global.requests, solo.requests);
    EXPECT_EQ(result.global.admitted, solo.requests);
    EXPECT_EQ(result.global.latency_p50_ns, solo.latency_p50_ns);
}

TEST(RegionSet, ReportsIndependentOfThreadCount)
{
    const auto serveWith = [](int threads) {
        RegionSet set({testRegion("a", 100, 5),
                       testRegion("b", 200, 7)});
        set.enrollAll(threads);
        return set.serve(threads);
    };
    const auto one = serveWith(1);
    const auto eight = serveWith(8);
    ASSERT_EQ(one.reports.size(), 2u);
    for (size_t r = 0; r < one.reports.size(); ++r)
        expectReportsEqual(one.reports[r], eight.reports[r]);
    EXPECT_EQ(one.global.requests, eight.global.requests);
    EXPECT_EQ(one.global.latency_p50_ns,
              eight.global.latency_p50_ns);
    EXPECT_EQ(one.global.latency_p99_ns,
              eight.global.latency_p99_ns);
    EXPECT_EQ(one.global.total_energy_nj,
              eight.global.total_energy_nj);
}

TEST(RegionSet, GlobalRollupSumsTheRegions)
{
    RegionSet set(
        {testRegion("a", 100, 5), testRegion("b", 200, 7)});
    set.enrollAll(2);
    const auto result = set.serve(2);
    uint64_t requests = 0, admitted = 0;
    for (const LoadReport &r : result.reports) {
        requests += r.requests;
        admitted += r.admitted;
    }
    EXPECT_EQ(result.global.requests, requests);
    EXPECT_EQ(result.global.admitted, admitted);
    EXPECT_EQ(result.global.shed, requests - admitted);
}

// --- RunOptions contract for the serving CLI surface. ---

TEST(RunOptions, RejectsOutOfContractServingOptions)
{
    const auto rejects = [](auto mutate) {
        RunOptions o;
        mutate(o);
        EXPECT_THROW(o.validate(), FatalError);
    };
    rejects([](RunOptions &o) { o.regions = -1; });
    rejects([](RunOptions &o) { o.shed = -0.5; });
    rejects([](RunOptions &o) { o.shed = std::nan(""); });
    rejects([](RunOptions &o) {
        o.shed = std::numeric_limits<double>::infinity();
    });
    rejects([](RunOptions &o) { o.store_mmap = true; });
}

TEST(RunOptions, AcceptsTheServingDefaultsAndOverrides)
{
    RunOptions o;
    o.validate(); // Defaults are always in contract.
    o.regions = 4;
    o.shed = 0.0;
    o.store_mmap = true;
    o.store_path = "fleet.bin";
    o.validate();
    EXPECT_EQ(o.regionsOr(3), 4);
    EXPECT_EQ(o.shedOr(125.0), 0.0);
    o.shed = -1.0;
    EXPECT_EQ(o.shedOr(125.0), 125.0);
    o.regions = 0;
    EXPECT_EQ(o.regionsOr(3), 3);
}

} // namespace
} // namespace codic
