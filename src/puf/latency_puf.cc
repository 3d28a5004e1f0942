#include "puf/latency_puf.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace codic {

namespace {

/** Failure probability of a cell with logistic argument z. */
double
logistic(double z)
{
    return 1.0 / (1.0 + std::exp(-z));
}

/**
 * Largest logistic argument z at which no cell can pass the read
 * filter. A cell of failure probability p is kept iff
 * llround(reads * p + sd * g) > filter_threshold, i.e. iff
 * reads * p + sd * g >= filter_threshold + 1/2, with
 * sd = sqrt(max(reads * p * (1 - p), 1e-12)) and |g| <= R =
 * kGaussianRadius. The reach reads * p + R * sd is nondecreasing on
 * p in [0, 1/2], so bisection finds the largest p there whose reach
 * stays under the threshold less a margin of 1e-9 of it, far above
 * the rounding error of the filter's arithmetic. The cut is capped
 * at p = 1/2 (z = 0); -inf (no cut) when even p = 0 could pass.
 */
double
filterCut(const LatencyPufParams &params)
{
    const double n = static_cast<double>(params.reads);
    const auto reach = [n](double p) {
        return n * p +
               kGaussianRadius * std::sqrt(std::max(n * p * (1.0 - p),
                                                    1e-12));
    };
    const double pass = params.filter_threshold + 0.5;
    const double target = pass - 1e-9 * pass;
    double lo = 0.0;
    double hi = 0.5;
    if (reach(lo) >= target)
        return -std::numeric_limits<double>::infinity();
    if (reach(hi) < target) {
        lo = hi;
    } else {
        for (int i = 0; i < 100; ++i) {
            const double mid = 0.5 * (lo + hi);
            (reach(mid) < target ? lo : hi) = mid;
        }
    }
    return std::log(lo / (1.0 - lo));
}

/**
 * The smaller root in p of (target - n p)^2 = r2 n p (1 - p), for
 * 0 < target < n: below it n p + r sd stays under target, with
 * r = sqrt(r2) and sd = sqrt(n p (1 - p)). The quadratic
 * n (n + r2) p^2 - n (2 target + r2) p + target^2 = 0 is positive at
 * p = 0 and p = 1 and negative at p = target / n, so one root lies on
 * each side of target / n. Its discriminant is
 * r2 n (r2 n + 4 target (n - target)) > 0, and the small root is
 * taken as 2c / (b + sqrt(disc)), which does not cancel.
 */
double
lowerReachRoot(double n, double target, double r2)
{
    const double b = n * (2.0 * target + r2);
    const double disc = r2 * n * (r2 * n + 4.0 * target * (n - target));
    return 2.0 * target * target / (b + std::sqrt(disc));
}

/**
 * The filter's bounds on z for each u1 bin. A cell is kept iff
 * reads * p + sd * g >= filter_threshold + 1/2 (filterCut), and bin b
 * bounds |g| by r = sqrt(-2 ln(b / kFilterBins)), the radius at its
 * lower edge; bin 0 keeps R = kGaussianRadius. With T the threshold
 * plus 1/2, the reach n p + r sd crosses T once, upward, at the
 * smaller root of (T - n p)^2 = r^2 n p (1 - p), and n p - r sd
 * crosses it once, upward, at the larger root; between the roots the
 * filter depends on g. The larger root is 1 - q for the smaller root
 * q of the same equation with T replaced by n - T (p -> 1 - p), so
 * neither root is a difference near 1. T is padded outward by
 * filterCut's margin of 1e-9 of it. That covers the rounding of the
 * filter's arithmetic and of the roots, and also any error of up to
 * 6e-12 in the radius (r sd <= 148 T at either root), far above
 * libm's log and sqrt.
 */
std::vector<DramLatencyPuf::FilterBounds>
filterBinBounds(const LatencyPufParams &params)
{
    const double n = static_cast<double>(params.reads);
    const double pass = params.filter_threshold + 0.5;
    const double fail_target = pass - 1e-9 * pass;
    const double keep_target = n - (pass + 1e-9 * pass);
    constexpr size_t bins = DramLatencyPuf::kFilterBins;
    std::vector<DramLatencyPuf::FilterBounds> out(bins);
    for (size_t b = 0; b < bins; ++b) {
        const double r2 =
            b == 0 ? kGaussianRadius * kGaussianRadius
                   : -2.0 * std::log(static_cast<double>(b) / bins);
        const double p = lowerReachRoot(n, fail_target, r2);
        const double q = lowerReachRoot(n, keep_target, r2);
        out[b] = {std::log(p / (1.0 - p)), std::log((1.0 - q) / q)};
    }
    return out;
}

} // namespace

DramLatencyPuf::DramLatencyPuf(const LatencyPufParams &params)
    : params_(params)
{
    if (params_.reads < 1)
        fatal("DRAM Latency PUF reads must be >= 1, got ",
              params_.reads);
    if (params_.filter_threshold < 0 ||
        params_.filter_threshold >= params_.reads)
        fatal("DRAM Latency PUF filter_threshold must lie in [0, reads = ",
              params_.reads, "), got ", params_.filter_threshold);
    if (!(params_.width > 0.0) || !std::isfinite(params_.width))
        fatal("DRAM Latency PUF width must be positive and finite, got ",
              params_.width);
    if (!(params_.temp_shift_sigma >= 0.0) ||
        !std::isfinite(params_.temp_shift_sigma))
        fatal("DRAM Latency PUF temp_shift_sigma must be finite and >= 0, "
              "got ",
              params_.temp_shift_sigma);
    if (!std::isfinite(params_.theta_30c) ||
        !std::isfinite(params_.theta_per_c))
        fatal("DRAM Latency PUF theta_30c and theta_per_c must be finite, "
              "got ",
              params_.theta_30c, " and ", params_.theta_per_c);
    cut_logit_ = filterCut(params_);
    bounds_ = filterBinBounds(params_);
}

double
DramLatencyPuf::failureLogit(const LatencyWeakCell &cell,
                             double temperature_c) const
{
    const double dt = temperature_c - 30.0;
    const double theta = params_.theta_30c + params_.theta_per_c * dt;
    // The cell's effective strength drifts with temperature by a
    // per-cell amount, reshuffling which cells sit near threshold.
    const double strength =
        cell.strength +
        cell.temp_shift * params_.temp_shift_sigma * (dt / 55.0);
    return (theta - strength) / params_.width;
}

double
DramLatencyPuf::failureProbability(const LatencyWeakCell &cell,
                                   double temperature_c) const
{
    return logistic(failureLogit(cell, temperature_c));
}

Response
DramLatencyPuf::evaluate(const SimulatedChip &chip,
                         const Challenge &challenge,
                         const QueryEnv &env) const
{
    return evaluateEach(chip, challenge, {&env, 1}, false).front();
}

Response
DramLatencyPuf::evaluateFiltered(const SimulatedChip &chip,
                                 const Challenge &challenge,
                                 const QueryEnv &env) const
{
    return evaluateEach(chip, challenge, {&env, 1}, true).front();
}

std::vector<Response>
DramLatencyPuf::evaluateEach(const SimulatedChip &chip,
                             const Challenge &challenge,
                             std::span<const QueryEnv> envs,
                             bool filtered) const
{
    // failureLogit() scales a cell's drift by
    // temp_shift_sigma * (T - 30) / 55. At 30 C or with no drift that
    // is +-0 (every operand is finite), and strength +- 0 is strength
    // bit for bit, so the drift normals are drawn only if some env
    // scales them by a nonzero amount.
    const bool temp_shifts =
        params_.temp_shift_sigma != 0.0 &&
        std::any_of(envs.begin(), envs.end(), [](const QueryEnv &env) {
            return env.temperature_c != 30.0;
        });
    const auto cells = chip.latencyWeakCells(
        challenge.segment_id, challenge.segment_bits, temp_shifts);
    std::vector<Response> out;
    out.reserve(envs.size());
    for (const QueryEnv &env : envs)
        out.push_back(filtered ? readFiltered(chip, cells, env)
                               : readPass(chip, cells, env));
    return out;
}

Response
DramLatencyPuf::readPass(const SimulatedChip &chip,
                         const std::vector<LatencyWeakCell> &cells,
                         const QueryEnv &env) const
{
    // The population is sorted and unique, so the response is too.
    Rng noise = chip.domainRng(0x1A7, env.nonce ^ 0x5c4d);
    Response r;
    for (const auto &cell : cells) {
        const double p = failureProbability(cell, env.temperature_c);
        if (noise.chance(p))
            r.cells.push_back(cell.index);
    }
    return r;
}

Response
DramLatencyPuf::readFiltered(const SimulatedChip &chip,
                             const std::vector<LatencyWeakCell> &cells,
                             const QueryEnv &env) const
{
    // Binomial(reads, p) failure count, via the normal approximation
    // with continuity correction (the filter only cares about the
    // > threshold tail; exact draws would cost 100 RNG calls per cell
    // on campaign-scale sweeps). Cell i takes the i-th normal of the
    // call's own noise stream, so cells 2k and 2k + 1 share the k-th
    // Box-Muller pair. Every pair's uniforms are drawn to keep the
    // stream in step. u1's bin decides each cell its bounds cover,
    // and only a pair with an undecided cell pays the transform, and
    // only an undecided cell its exp and sqrt.
    Rng noise = chip.domainRng(0x1A7F, env.nonce ^ 0x77aa);
    const double n = static_cast<double>(params_.reads);
    // llround(x) > filter_threshold iff x >= filter_threshold + 1/2.
    const double pass = params_.filter_threshold + 0.5;
    // Room for every cell: each pair writes its cells' indices and
    // advances past the kept ones, without a branch per cell.
    Response r;
    r.cells.resize(cells.size());
    uint32_t *kept = r.cells.data();
    const auto passes = [&](double z, double g) {
        const double p = logistic(z);
        const double mean = n * p;
        const double sd = std::sqrt(std::max(n * p * (1.0 - p), 1e-12));
        // The exact arithmetic of noise.gaussian(mean, sd).
        return mean + sd * g >= pass;
    };
    for (size_t i = 0; i < cells.size(); i += 2) {
        const bool pair = i + 1 < cells.size();
        const double z0 = failureLogit(cells[i], env.temperature_c);
        const double z1 =
            pair ? failureLogit(cells[i + 1], env.temperature_c) : z0;
        const auto [u1, u2] = noise.boxMullerUniforms();
        // u1 is a multiple of 2^-53 in (0, 1): the product is exact.
        const FilterBounds &bin =
            bounds_[static_cast<size_t>(u1 * kFilterBins)];
        const auto open = [&bin](double z) {
            return !(z < bin.fail) && !(z > bin.keep);
        };
        const bool open0 = open(z0);
        const bool open1 = pair && open(z1);
        bool keep0 = z0 > bin.keep;
        bool keep1 = pair && z1 > bin.keep;
        if (open0 || open1) {
            const auto [g0, g1] = boxMuller(u1, u2);
            if (open0)
                keep0 = passes(z0, g0);
            if (open1)
                keep1 = passes(z1, g1);
        }
        *kept = cells[i].index;
        kept += keep0;
        if (pair) {
            *kept = cells[i + 1].index;
            kept += keep1;
        }
    }
    r.cells.resize(static_cast<size_t>(kept - r.cells.data()));
    return r;
}

int
DramLatencyPuf::passesPerEvaluation(bool filtered) const
{
    return filtered ? params_.reads : 1;
}

} // namespace codic
