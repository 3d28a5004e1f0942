#include "puf/chip_model.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"

namespace codic {

namespace {

/** Stable 64-bit mix of several keys (SplitMix64 chaining). */
uint64_t
mixKeys(uint64_t a, uint64_t b, uint64_t c = 0)
{
    SplitMix64 sm(a ^ (b * 0x9e3779b97f4a7c15ULL) ^
                  (c * 0xbf58476d1ce4e5b9ULL));
    sm.next();
    return sm.next();
}

/** Population count with sub-Poisson jitter around fraction * bits. */
size_t
populationCount(Rng &rng, double fraction, int bits)
{
    const double lambda = fraction * static_cast<double>(bits);
    const double jitter = rng.gaussian(0.0, std::sqrt(std::max(
                                                lambda, 1.0)));
    const double k = std::max(0.0, lambda + jitter);
    return static_cast<size_t>(std::llround(k));
}

// Domain tags for deterministic per-chip streams.
constexpr uint64_t kDomainParams = 1;
constexpr uint64_t kDomainSig = 2;
constexpr uint64_t kDomainSigExtra = 3;
constexpr uint64_t kDomainLatency = 4;
constexpr uint64_t kDomainPrelatChip = 5;
constexpr uint64_t kDomainPrelatSeg = 6;

} // namespace

std::vector<uint32_t>
drawPositions(Rng &rng, size_t count, int bits)
{
    // A sort beats the bitmap scan on small draws; a bitmap much
    // larger than the draw count would cost more to scan (and hold)
    // than the sort it replaces.
    constexpr size_t kBitmapMinDraws = 64;
    constexpr size_t kBitmapWordsPerDraw = 16;
    const uint64_t n = static_cast<uint64_t>(bits);
    const size_t words = static_cast<size_t>(n / 64 + (n % 64 != 0));
    std::vector<uint32_t> pos;
    pos.reserve(count);
    if (count < kBitmapMinDraws || words > kBitmapWordsPerDraw * count) {
        for (size_t i = 0; i < count; ++i)
            pos.push_back(static_cast<uint32_t>(rng.below(n)));
        std::sort(pos.begin(), pos.end());
        pos.erase(std::unique(pos.begin(), pos.end()), pos.end());
        return pos;
    }
    // The same draws marked in a bitmap, and each marked word in a
    // summary of one bit per word. The scan visits only the words
    // the summary marks, so each position comes out once, in
    // ascending order, without a pass over every word.
    std::vector<uint64_t> seen(words);
    std::vector<uint64_t> touched(words / 64 + (words % 64 != 0));
    for (size_t i = 0; i < count; ++i) {
        const uint64_t p = rng.below(n);
        seen[p / 64] |= uint64_t{1} << (p % 64);
        touched[p / 4096] |= uint64_t{1} << (p / 64 % 64);
    }
    for (size_t t = 0; t < touched.size(); ++t)
        for (uint64_t tm = touched[t]; tm != 0; tm &= tm - 1) {
            const size_t w = t * 64 + std::countr_zero(tm);
            for (uint64_t m = seen[w]; m != 0; m &= m - 1)
                pos.push_back(
                    static_cast<uint32_t>(w * 64 + std::countr_zero(m)));
        }
    return pos;
}

SimulatedChip::SimulatedChip(const ChipSpec &spec) : spec_(spec)
{
    Rng rng = domainRng(kDomainParams);
    // Flip-cell fraction: log-uniform across the paper's observed
    // 0.01-0.22 % band (Section 6.1).
    const double lo = std::log(1.0e-4);
    const double hi = std::log(2.2e-3);
    sig_flip_fraction_ = std::exp(rng.uniform(lo, hi));
    // 48 h methodology coverage: 34-99 % of cells (Section 6.1).
    coverage_ = rng.uniform(0.34, 0.99);
    // tRCD-weak population (DRAM Latency PUF substrate).
    latency_weak_fraction_ = rng.uniform(0.004, 0.012);
    // tRP-weak column population (PreLatPUF substrate).
    prelat_col_fraction_ = rng.uniform(0.0012, 0.0032);
}

Rng
SimulatedChip::domainRng(uint64_t domain, uint64_t salt) const
{
    return Rng(mixKeys(spec_.seed, domain, salt));
}

uint64_t
SimulatedChip::segments() const
{
    // A chip contributes 1/8 of each rank-level 8 KB row; segments
    // are whole 8 KB rank rows, capacity_gbit * 8 chips per rank.
    const double chip_bytes = spec_.capacity_gbit * (1 << 30) / 8.0;
    return static_cast<uint64_t>(chip_bytes * 8.0 / 8192.0);
}

int
SimulatedChip::segmentBank(uint64_t segment_id) const
{
    return static_cast<int>(segment_id % 8);
}

std::vector<SigCell>
SimulatedChip::sigCells(uint64_t segment_id, int segment_bits) const
{
    Rng rng = domainRng(kDomainSig, segment_id);
    const size_t count =
        populationCount(rng, sig_flip_fraction_, segment_bits);
    const auto positions = drawPositions(rng, count, segment_bits);
    std::vector<SigCell> cells;
    cells.reserve(positions.size());
    for (uint32_t p : positions)
        cells.push_back({p, rng.uniform(), rng.uniform()});
    return cells;
}

std::vector<SigCell>
SimulatedChip::sigExtraCells(uint64_t segment_id, int segment_bits) const
{
    Rng rng = domainRng(kDomainSigExtra, segment_id);
    const size_t count = populationCount(
        rng, sig_flip_fraction_ * 0.08, segment_bits);
    const auto positions = drawPositions(rng, count, segment_bits);
    std::vector<SigCell> cells;
    cells.reserve(positions.size());
    for (uint32_t p : positions)
        cells.push_back({p, rng.uniform(), rng.uniform()});
    return cells;
}

std::vector<LatencyWeakCell>
SimulatedChip::latencyWeakCells(uint64_t segment_id, int segment_bits,
                                bool temp_shifts) const
{
    Rng rng = domainRng(kDomainLatency, segment_id);
    const size_t count =
        populationCount(rng, latency_weak_fraction_, segment_bits);
    const auto positions = drawPositions(rng, count, segment_bits);
    std::vector<LatencyWeakCell> cells;
    cells.reserve(positions.size());
    for (uint32_t p : positions) {
        const double strength = rng.uniform();
        double shift = 0.0;
        if (temp_shifts)
            shift = rng.gaussian(0.0, 1.0);
        else
            rng.skipGaussian();
        cells.push_back({p, strength, shift});
    }
    return cells;
}

std::vector<PrelatColumn>
SimulatedChip::prelatChipColumns(int row_columns) const
{
    Rng rng = domainRng(kDomainPrelatChip);
    const size_t count =
        populationCount(rng, prelat_col_fraction_, row_columns);
    const auto positions = drawPositions(rng, count, row_columns);
    std::vector<PrelatColumn> cols;
    cols.reserve(positions.size());
    for (uint32_t p : positions)
        cols.push_back({p, rng.uniform()});
    return cols;
}

std::vector<PrelatColumn>
SimulatedChip::prelatColumns(uint64_t segment_id, int segment_bits) const
{
    // Chip-level weak columns express in most banks; each bank adds
    // its own smaller population, and each row a small local one.
    // This column-shared structure is what makes PreLatPUF responses
    // from different segments of the same chip overlap (poor
    // Inter-Jaccard, paper Fig. 5).
    const int bank = segmentBank(segment_id);
    const auto chip_cols = prelatChipColumns(segment_bits);
    std::vector<PrelatColumn> out;
    out.reserve(chip_cols.size() + 16);
    for (const auto &c : chip_cols) {
        const uint64_t h = mixKeys(spec_.seed, 0xBA0000 + bank, c.index);
        // ~85 % of chip-level weak columns express in a given bank.
        if ((h % 1000) < 850)
            out.push_back(c);
    }
    // Bank-local extras: ~20 % of the chip population size.
    Rng bank_rng = domainRng(kDomainPrelatSeg, 0xB000 + bank);
    const size_t bank_extra = chip_cols.size() / 5;
    for (uint32_t p :
         drawPositions(bank_rng, bank_extra, segment_bits))
        out.push_back({p, bank_rng.uniform()});
    // Row-local extras: ~10 %.
    Rng row_rng = domainRng(kDomainPrelatSeg, segment_id);
    const size_t row_extra = chip_cols.size() / 10;
    for (uint32_t p : drawPositions(row_rng, row_extra, segment_bits))
        out.push_back({p, row_rng.uniform()});

    std::sort(out.begin(), out.end(),
              [](const PrelatColumn &a, const PrelatColumn &b) {
                  return a.index < b.index;
              });
    out.erase(std::unique(out.begin(), out.end(),
                          [](const PrelatColumn &a, const PrelatColumn &b) {
                              return a.index == b.index;
                          }),
              out.end());
    return out;
}

std::vector<ChipSpec>
moduleChips(const std::string &name, Vendor vendor, int chips,
            double capacity_gbit, int freq_mts, bool ddr3l,
            uint64_t seed_base)
{
    std::vector<ChipSpec> out;
    out.reserve(static_cast<size_t>(chips));
    for (int i = 0; i < chips; ++i) {
        ChipSpec spec;
        spec.vendor = vendor;
        spec.capacity_gbit = capacity_gbit;
        spec.freq_mts = freq_mts;
        spec.ddr3l = ddr3l;
        spec.module = name;
        spec.seed = mixKeys(seed_base, 0xC419, static_cast<uint64_t>(i));
        out.push_back(spec);
    }
    return out;
}

std::vector<SimulatedChip>
buildPaperPopulation(uint64_t seed)
{
    struct ModuleRow
    {
        const char *name;
        Vendor vendor;
        int chips;
        double gbit;
        int mts;
        bool ddr3l;
    };
    // Paper Table 12: 15 modules, 136 chips.
    static const ModuleRow rows[] = {
        {"M1", Vendor::A, 8, 4, 1600, true},
        {"M2", Vendor::A, 8, 4, 1600, true},
        {"M3", Vendor::A, 8, 4, 1600, true},
        {"M4", Vendor::A, 8, 4, 1600, true},
        {"M5", Vendor::A, 8, 4, 1600, false},
        {"M6", Vendor::A, 8, 4, 1600, false},
        {"M7", Vendor::A, 8, 4, 1600, false},
        {"M8", Vendor::A, 8, 4, 1600, false},
        {"M9", Vendor::B, 16, 2, 1333, false},
        {"M10", Vendor::B, 16, 2, 1333, false},
        {"M11", Vendor::B, 8, 4, 1600, true},
        {"M12", Vendor::C, 8, 4, 1600, true},
        {"M13", Vendor::C, 8, 4, 1600, true},
        {"M14", Vendor::C, 8, 4, 1600, true},
        {"M15", Vendor::C, 8, 4, 1600, true},
    };
    std::vector<SimulatedChip> chips;
    chips.reserve(136);
    uint64_t module_index = 0;
    for (const auto &row : rows) {
        const uint64_t module_seed = mixKeys(seed, 0x40D, module_index++);
        for (auto &spec :
             moduleChips(row.name, row.vendor, row.chips, row.gbit,
                         row.mts, row.ddr3l, module_seed))
            chips.emplace_back(spec);
    }
    CODIC_ASSERT(chips.size() == 136);
    return chips;
}

std::vector<const SimulatedChip *>
filterByVoltage(const std::vector<SimulatedChip> &chips, bool ddr3l)
{
    std::vector<const SimulatedChip *> out;
    for (const auto &c : chips)
        if (c.spec().ddr3l == ddr3l)
            out.push_back(&c);
    return out;
}

} // namespace codic
