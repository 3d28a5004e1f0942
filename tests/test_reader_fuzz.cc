/**
 * @file
 * Mutation fuzzing of the file readers: TraceReader, seeded from the
 * committed bench/traces samples, and both enrollment-store read
 * paths (the heap load and MmapEnrollmentStore), seeded from a
 * generated store. Mutants are bit flips, truncations, and false
 * 32- and 64-bit length, count and offset fields, drawn from a fixed
 * seed.
 *
 * Every mutant must load or raise FatalError through every entry
 * point - never crash, read outside the file (the ASan+UBSan build
 * checks that), raise another exception, or make one allocation
 * larger than the file. Where both store paths accept a mutant they
 * must return the same answer for every device, and every signature
 * either path returns must hold strictly ascending cells inside its
 * record's segment.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <new>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "fleet/enrollment_store.h"
#include "fleet/store_format.h"
#include "fleet/store_mmap.h"
#include "trace/trace_io.h"

// --- Allocation watch --------------------------------------------------------
//
// This binary replaces the global operator new so a test can see the
// largest single allocation a reader makes.

namespace {

std::atomic<bool> g_watching{false};
std::atomic<size_t> g_largest{0};

void *
countedAlloc(std::size_t n)
{
    if (g_watching.load(std::memory_order_relaxed)) {
        size_t seen = g_largest.load(std::memory_order_relaxed);
        while (n > seen &&
               !g_largest.compare_exchange_weak(seen, n,
                                                std::memory_order_relaxed))
        {
        }
    }
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace codic {
namespace {

namespace fs = std::filesystem;

/**
 * Error messages and path strings cost a few hundred bytes whatever
 * the file holds; anything bigger must be paid for by file bytes.
 */
constexpr size_t kAllocSlack = 4096;

/** Records the largest single allocation while alive. */
class AllocationWatch
{
  public:
    AllocationWatch()
    {
        g_largest.store(0);
        g_watching.store(true);
    }
    ~AllocationWatch() { g_watching.store(false); }
    AllocationWatch(const AllocationWatch &) = delete;
    AllocationWatch &operator=(const AllocationWatch &) = delete;

    size_t largest() const { return g_largest.load(); }
};

/**
 * Run one reader entry point: it must return or raise FatalError.
 * Any other exception propagates and fails the test.
 */
bool
survives(const std::function<void()> &step)
{
    try {
        step();
        return true;
    } catch (const FatalError &) {
        return false;
    }
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
}

uint64_t
loadField(const std::string &bytes, size_t pos, int width)
{
    uint64_t v = 0;
    for (int i = width - 1; i >= 0; --i)
        v = v << 8 | static_cast<uint8_t>(bytes[pos + i]);
    return v;
}

void
storeField(std::string &bytes, size_t pos, int width, uint64_t v)
{
    for (int i = 0; i < width; ++i)
        bytes[pos + i] = static_cast<char>(v >> (8 * i));
}

/** A little-endian length, count or offset field of a seed file. */
struct Field
{
    size_t pos;
    int width; //!< 4 or 8 bytes.
};

struct Mutant
{
    std::string what; //!< How it was made (failure messages).
    std::string bytes;
};

/**
 * Mutants of `seed`: `flips` single-bit flips (half of them inside
 * the first and last 256 bytes, where the headers and indexes
 * live), truncations at header-sized and random lengths, and every
 * field overwritten with values that break a naive size check.
 */
std::vector<Mutant>
mutants(const std::string &seed, const std::vector<Field> &fields,
        int flips, uint64_t rng_seed)
{
    Rng rng(rng_seed);
    const uint64_t n = seed.size();
    std::vector<Mutant> out;

    for (int i = 0; i < flips; ++i) {
        uint64_t pos = rng.below(n);
        if (i % 4 == 1)
            pos = rng.below(std::min<uint64_t>(n, 256));
        else if (i % 4 == 3)
            pos = n - 1 - rng.below(std::min<uint64_t>(n, 256));
        const int bit = static_cast<int>(rng.below(8));
        std::string bytes = seed;
        bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << bit));
        out.push_back({"flip byte " + std::to_string(pos) + " bit " +
                           std::to_string(bit),
                       std::move(bytes)});
    }

    std::set<uint64_t> lengths = {0, 1, 8, 12, 16, 39, 40, 41, 55,
                                  56, 57, n - 1, n - 8, n - 16, n - 24};
    for (int i = 0; i < 6; ++i)
        lengths.insert(rng.below(n));
    for (uint64_t len : lengths)
        if (len < n)
            out.push_back({"truncate to " + std::to_string(len),
                           seed.substr(0, len)});

    for (const Field &f : fields) {
        const uint64_t v = loadField(seed, f.pos, f.width);
        const uint64_t max =
            f.width == 8 ? ~uint64_t{0} : uint64_t{0xffffffff};
        for (uint64_t value : {uint64_t{0}, uint64_t{1}, v - 1, v + 1,
                               n, uint64_t{0x80000000}, max / 2 + 1,
                               max}) {
            std::string bytes = seed;
            storeField(bytes, f.pos, f.width, value & max);
            out.push_back({"field at " + std::to_string(f.pos) +
                               " := " + std::to_string(value & max),
                           std::move(bytes)});
        }
    }
    return out;
}

std::string
scratchPath(const std::string &name)
{
    return (fs::temp_directory_path() / ("codic_reader_fuzz_" + name))
        .string();
}

// --- Traces ------------------------------------------------------------------

/** Header and first/last epoch-index fields of a trace. */
std::vector<Field>
traceFields(const std::string &trace)
{
    std::vector<Field> fields = {{12, 4}, {16, 8}, {24, 8}, {32, 8},
                                 {48, 4}, {52, 4}};
    const uint64_t index = loadField(trace, 24, 8);
    const uint64_t epochs = loadField(trace, index, 8);
    fields.push_back({index, 8});
    for (uint64_t e : {uint64_t{0}, epochs - 1})
        for (size_t k = 0; k < 3; ++k)
            fields.push_back({index + 8 + e * 24 + k * 8, 8});
    return fields;
}

/** Drive every TraceReader entry point over one file. */
void
exerciseTrace(const std::string &path, Rng &rng)
{
    std::optional<TraceReader> reader;
    if (!survives([&] { reader.emplace(path); }))
        return;
    TraceRecord r;
    survives([&] {
        TraceCursor c = reader->cursor();
        while (c.next(r)) {
        }
    });
    survives([&] { reader->describe(); });
    const uint64_t record = rng.below(reader->recordCount() + 1);
    survives([&] {
        TraceCursor c = reader->seekToRecord(record);
        for (int i = 0; i < 64 && c.next(r); ++i) {
        }
    });
    const uint64_t tick = rng.next64() % (uint64_t{1} << 32);
    survives([&] {
        TraceCursor c = reader->seekToTick(tick);
        for (int i = 0; i < 64 && c.next(r); ++i) {
        }
    });
}

TEST(ReaderFuzz, TraceMutantsLoadOrRaiseFatalError)
{
    std::vector<fs::path> samples;
    for (const auto &entry : fs::directory_iterator(
             std::string(CODIC_REPO_DIR) + "/bench/traces"))
        if (entry.path().extension() == ".trace")
            samples.push_back(entry.path());
    std::sort(samples.begin(), samples.end());
    ASSERT_GE(samples.size(), 2u);

    const std::string path = scratchPath("mutant.trace");
    Rng rng(2021);
    uint64_t seed_no = 0;
    for (const fs::path &sample : samples) {
        const std::string seed = readBytes(sample.string());
        ASSERT_GT(seed.size(), 1024u) << sample;
        for (const Mutant &m :
             mutants(seed, traceFields(seed), 150, 11 + seed_no++)) {
            writeBytes(path, m.bytes);
            AllocationWatch watch;
            exerciseTrace(path, rng);
            EXPECT_LE(watch.largest(),
                      std::max(m.bytes.size(), kAllocSlack))
                << sample.filename() << ": " << m.what;
        }
    }
    fs::remove(path);
}

// --- Enrollment stores -------------------------------------------------------

constexpr int kStoreRecords = 64;

/** Device ids of the generated store: sparse, some past 2^32. */
uint64_t
storeId(int i)
{
    return static_cast<uint64_t>(i) * 7919 + (i % 3 == 0 ? 1ull << 40 : 0);
}

/** Segment width of the generated records: room for every cell. */
constexpr int kStoreSegmentBits = 1 << 20;

/**
 * A store with empty, short and multi-byte-varint signatures, in the
 * bytes EnrollmentStoreWriter produces.
 */
std::string
generatedStore(const std::string &path)
{
    std::vector<uint64_t> ids;
    for (int i = 0; i < kStoreRecords; ++i)
        ids.push_back(storeId(i));
    std::sort(ids.begin(), ids.end());
    EnrollmentStoreWriter writer(path, 4242);
    Rng rng(7);
    for (uint64_t id : ids) {
        Response sig;
        uint32_t cell = 0;
        const uint64_t cells = id % 5 == 0 ? 0 : 4 + rng.below(40);
        for (uint64_t c = 0; c < cells; ++c) {
            cell += 1 + static_cast<uint32_t>(rng.below(c % 4 ? 300 : 70000));
            sig.cells.push_back(cell);
        }
        writer.append(id, {id % 977, kStoreSegmentBits}, sig);
    }
    writer.finish();
    return readBytes(path);
}

/** Header, record-prefix and index fields of a store. */
std::vector<Field>
storeFields(const std::string &store)
{
    std::vector<Field> fields = {{24, 8}, {32, 8}};
    const uint64_t index = loadField(store, 32, 8);
    for (uint64_t slot : {uint64_t{0}, uint64_t{kStoreRecords / 2},
                          uint64_t{kStoreRecords - 1}}) {
        const uint64_t entry = index + slot * 16;
        const uint64_t record = loadField(store, entry + 8, 8);
        fields.push_back({entry, 8});       // device id
        fields.push_back({entry + 8, 8});   // record offset
        fields.push_back({record, 8});      // record device id
        fields.push_back({record + 20, 4}); // cell count
        fields.push_back({record + 24, 4}); // blob length
    }
    return fields;
}

/** What one read path answers for one device. */
struct Answer
{
    bool known = false;
    bool fatal = false;
    std::vector<uint32_t> cells;

    bool operator==(const Answer &) const = default;
};

/**
 * Ask one read path about one device. A signature it returns must
 * hold strictly ascending cells below the segment_bits of the record
 * it was decoded from, which `segmentBits` reads.
 */
Answer
ask(const EnrollmentBackend &store, uint64_t id,
    const std::function<uint32_t()> &segmentBits, size_t &decoded)
{
    Answer a;
    a.known = store.contains(id);
    a.fatal = !survives([&] {
        if (auto sig = store.lookup(id)) {
            a.cells = sig->cells;
            ++decoded;
        }
    });
    if (!a.cells.empty()) {
        EXPECT_EQ(std::adjacent_find(a.cells.begin(), a.cells.end(),
                                     std::greater_equal<uint32_t>()),
                  a.cells.end())
            << "device " << id;
        EXPECT_LT(a.cells.back(), segmentBits()) << "device " << id;
    }
    return a;
}

TEST(ReaderFuzz, StoreMutantsLoadOrRaiseFatalErrorAndPathsAgree)
{
    const std::string path = scratchPath("mutant.bin");
    const std::string seed = generatedStore(path);
    std::vector<uint64_t> probe_ids = {2, 1ull << 40, ~uint64_t{0}};
    for (int i = 0; i < kStoreRecords; ++i)
        probe_ids.push_back(storeId(i));

    size_t both_accepted = 0;
    size_t heap_decoded = 0;
    size_t mmap_decoded = 0;
    for (const Mutant &m : mutants(seed, storeFields(seed), 600, 5)) {
        writeBytes(path, m.bytes);
        AllocationWatch watch;
        std::optional<EnrollmentStore> heap;
        std::optional<MmapEnrollmentStore> mapped;
        survives([&] { heap.emplace(EnrollmentStore::loadFile(path)); });
        survives([&] { mapped.emplace(path); });
        std::vector<uint64_t> ids = probe_ids;
        if (heap)
            for (uint64_t id : heap->deviceIds())
                ids.push_back(id);
        for (uint64_t id : ids) {
            std::optional<Answer> from_heap, from_mmap;
            if (heap)
                from_heap = ask(
                    *heap, id,
                    [&] { return heap->record(id)->segment_bits; },
                    heap_decoded);
            if (mapped)
                from_mmap = ask(
                    *mapped, id,
                    [&] {
                        // The lookup succeeded, so the mapped path's
                        // parser accepts this record too.
                        const StoreFileView view(
                            reinterpret_cast<const uint8_t *>(
                                m.bytes.data()),
                            m.bytes.size(), "mutant");
                        return view.record(view.findSlot(id))
                            .segment_bits;
                    },
                    mmap_decoded);
            if (heap && mapped) {
                EXPECT_EQ(*from_heap, *from_mmap)
                    << m.what << ": device " << id;
            }
        }
        if (heap && mapped) {
            ++both_accepted;
            EXPECT_EQ(heap->populationSeed(), mapped->populationSeed());
            EXPECT_EQ(heap->deviceIds(), mapped->deviceIds()) << m.what;
        }
        EXPECT_LE(watch.largest(), std::max(m.bytes.size(), kAllocSlack))
            << m.what;
    }
    // The checks above must not be vacuous: blob and payload flips
    // leave both paths accepting the file and decoding signatures.
    EXPECT_GT(both_accepted, 0u);
    EXPECT_GT(heap_decoded, 0u);
    EXPECT_GT(mmap_decoded, 0u);
    fs::remove(path);
}

} // namespace
} // namespace codic
