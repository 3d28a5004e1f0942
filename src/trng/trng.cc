#include "trng/trng.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.h"
#include "common/parallel.h"
#include "nist/extractor.h"
#include "nist/special_functions.h"

namespace codic {

TrngHealthTests::TrngHealthTests(int repetition_cutoff, int window,
                                 int proportion_cutoff)
    : repetition_cutoff_(repetition_cutoff), window_(window),
      proportion_cutoff_(proportion_cutoff)
{
    CODIC_ASSERT(repetition_cutoff > 1);
    CODIC_ASSERT(proportion_cutoff > window / 2);
}

bool
TrngHealthTests::feed(uint8_t bit)
{
    ++observed_;
    // Repetition count test (SP 800-90B 4.4.1).
    if (bit == last_bit_) {
        if (++run_length_ >= repetition_cutoff_)
            failed_ = true;
    } else {
        last_bit_ = bit;
        run_length_ = 1;
    }
    // Adaptive proportion test (SP 800-90B 4.4.2).
    if (window_fill_ == 0) {
        window_first_ = bit;
        window_matches_ = 1;
        window_fill_ = 1;
    } else {
        if (bit == window_first_)
            ++window_matches_;
        if (++window_fill_ >= window_) {
            if (window_matches_ >= proportion_cutoff_)
                failed_ = true;
            window_fill_ = 0;
        }
    }
    return !failed_;
}

CodicTrng::CodicTrng(const TrngConfig &config) : config_(config)
{
    // Enrollment: scan the segment's SA population (deterministic per
    // device) for cells whose effective offset sits inside the
    // metastable window around the trip point. Cell i's offset is
    // sigma * g for the i-th normal g of the device stream, so cells
    // 2k and 2k+1 share the k-th Box-Muller pair.
    Rng device(config_.run.seed ^ 0x7241D);
    const double sigma = saOffsetSigma(config_.params);
    const double bias = designedSaBiasAt(config_.params);
    const double noise_rms = thermalNoiseRms(config_.params);
    const double window = config_.metastable_window * noise_rms;

    // Radius cut: both normals of a pair are bounded by its radius
    // r = sqrt(-2 ln u1), and a kept cell needs |sigma| * r >
    // |bias| - window. Pairs with u1 >= exp(-r_min^2 / 2) therefore
    // hold no metastable cell: their uniforms are still drawn, which
    // keeps the stream in step, but the transform is skipped. The
    // margin, far above double rounding, keeps the cut conservative;
    // when |bias| <= window nothing is skipped (u1 < 1 always).
    const double margin = 1e-9 * (std::fabs(bias) + std::fabs(window));
    const double excess = std::fabs(bias) - window - margin;
    double u1_cut = 1.0;
    if (excess > 0.0) {
        const double r_min = excess / std::fabs(sigma); // inf at sigma 0
        u1_cut = std::exp(-0.5 * r_min * r_min);
    }

    const auto consider = [&](int64_t i, double g) {
        // The exact arithmetic of device.gaussian(0.0, sigma) + bias.
        const double residual = (0.0 + sigma * g) + bias;
        if (std::fabs(residual) < window) {
            MetastableCell cell;
            cell.index = static_cast<uint32_t>(i);
            cell.offset = residual;
            // P(read 1) = P(residual + noise > 0).
            cell.p_one = 1.0 - normalCdf(-residual / noise_rms);
            sources_.push_back(cell);
        }
    };
    for (int64_t i = 0; i < config_.segment_bits; i += 2) {
        const auto [u1, u2] = device.boxMullerUniforms();
        if (u1 >= u1_cut)
            continue;
        const auto [first, second] = boxMuller(u1, u2);
        consider(i, first);
        if (i + 1 < config_.segment_bits)
            consider(i + 1, second);
    }
}

std::vector<uint8_t>
CodicTrng::harvest(size_t bits, Rng &noise, TrngHealthTests *health)
{
    if (sources_.empty())
        fatal("TRNG enrollment found no metastable cells; widen the "
              "window or use a larger segment");
    std::vector<uint8_t> out;
    out.reserve(bits);
    size_t guard = 0;
    while (out.size() < bits) {
        // Two back-to-back CODIC commands: each metastable source
        // flips its coin twice. The Von Neumann pair is formed
        // *per cell across the two evaluations* - pairing adjacent
        // cells would combine different biases p_i != p_j, for which
        // P(01) != P(10) and the extractor output stays biased.
        for (const auto &cell : sources_) {
            const uint8_t first = noise.chance(cell.p_one) ? 1 : 0;
            const uint8_t second = noise.chance(cell.p_one) ? 1 : 0;
            if (health) {
                health->feed(first);
                health->feed(second);
            }
            if (first != second && out.size() < bits)
                out.push_back(first);
        }
        if (++guard > 100 * bits + 1000)
            fatal("TRNG harvest is not converging");
    }
    return out;
}

double
CodicTrng::rawThroughputBitsPerSec() const
{
    return static_cast<double>(sources_.size()) /
           (config_.harvest_latency_ns * 1e-9);
}

std::vector<CodicTrng>
enrollDevices(const TrngConfig &base, size_t count)
{
    // Each device's enrollment scan is deterministic from its own
    // device seed, so devices are independent tasks.
    std::vector<std::unique_ptr<CodicTrng>> enrolled(count);
    CampaignEngine engine(base.run.threads);
    engine.forEach(count, [&](size_t i) {
        TrngConfig cfg = base;
        cfg.run.seed = base.run.seed + i;
        enrolled[i] = std::make_unique<CodicTrng>(cfg);
    });

    std::vector<CodicTrng> out;
    out.reserve(count);
    for (auto &dev : enrolled)
        out.push_back(std::move(*dev));
    return out;
}

double
CodicTrng::whitenedThroughputBitsPerSec() const
{
    // Von Neumann emits one bit per discordant pair; with per-cell
    // p near 1/2 the expected yield is ~1/4 of the raw bits.
    double yield = 0.0;
    for (const auto &cell : sources_)
        yield += cell.p_one * (1.0 - cell.p_one);
    return yield / (config_.harvest_latency_ns * 1e-9);
}

} // namespace codic
