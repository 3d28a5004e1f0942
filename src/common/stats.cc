#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace codic {

void
RunningStats::add(double x)
{
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

double
RunningStats::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double total = static_cast<double>(n_ + other.n_);
    const double delta = other.mean_ - mean_;
    m2_ += other.m2_ +
           delta * delta * static_cast<double>(n_) *
               static_cast<double>(other.n_) / total;
    mean_ = (mean_ * static_cast<double>(n_) +
             other.mean_ * static_cast<double>(other.n_)) / total;
    sum_ += other.sum_;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

Histogram::Histogram(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0)
{
    CODIC_ASSERT(bins > 0);
    CODIC_ASSERT(hi > lo);
}

void
Histogram::add(double x)
{
    const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
    long bin = static_cast<long>(std::floor((x - lo_) / width));
    bin = std::clamp<long>(bin, 0, static_cast<long>(counts_.size()) - 1);
    ++counts_[static_cast<size_t>(bin)];
    ++total_;
}

uint64_t
Histogram::binCount(size_t bin) const
{
    CODIC_ASSERT(bin < counts_.size());
    return counts_[bin];
}

double
Histogram::binFraction(size_t bin) const
{
    if (total_ == 0)
        return 0.0;
    return static_cast<double>(binCount(bin)) /
           static_cast<double>(total_);
}

double
Histogram::binCenter(size_t bin) const
{
    CODIC_ASSERT(bin < counts_.size());
    const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
    return lo_ + width * (static_cast<double>(bin) + 0.5);
}

std::string
Histogram::ascii() const
{
    static const char ramp[] = " .:-=+*#%@";
    uint64_t peak = 0;
    for (uint64_t c : counts_)
        peak = std::max(peak, c);
    std::string out;
    out.reserve(counts_.size());
    for (uint64_t c : counts_) {
        if (peak == 0) {
            out.push_back(' ');
            continue;
        }
        const size_t idx =
            static_cast<size_t>(std::llround(static_cast<double>(c) * 9.0 /
                                             static_cast<double>(peak)));
        out.push_back(ramp[idx]);
    }
    return out;
}

double
percentile(std::vector<double> samples, double p)
{
    std::sort(samples.begin(), samples.end());
    return sortedPercentile(samples, p);
}

double
sortedPercentile(const std::vector<double> &sorted, double p)
{
    CODIC_ASSERT(!sorted.empty());
    CODIC_ASSERT(p >= 0.0 && p <= 100.0);
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = static_cast<size_t>(std::ceil(rank));
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

} // namespace codic
