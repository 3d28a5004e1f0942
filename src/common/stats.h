/**
 * @file
 * Lightweight statistics accumulators used by experiment harnesses:
 * running mean/variance (Welford), min/max tracking, and fixed-bin
 * histograms for the distribution plots (e.g. Jaccard-index figures).
 */

#ifndef CODIC_COMMON_STATS_H
#define CODIC_COMMON_STATS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace codic {

/** Online mean/variance/min/max accumulator (Welford's algorithm). */
class RunningStats
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Number of samples added. */
    size_t count() const { return n_; }

    /** Sample mean; 0 if empty. */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Unbiased sample variance; 0 if fewer than two samples. */
    double variance() const;

    /** Unbiased sample standard deviation. */
    double stddev() const;

    /** Smallest sample seen; +inf if empty. */
    double min() const { return min_; }

    /** Largest sample seen; -inf if empty. */
    double max() const { return max_; }

    /** Sum of all samples. */
    double sum() const { return sum_; }

    /** Merge another accumulator into this one. */
    void merge(const RunningStats &other);

  private:
    size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = 1.0 / 0.0;
    double max_ = -1.0 / 0.0;
};

/**
 * Fixed-width histogram over a closed interval [lo, hi].
 *
 * Samples outside the interval are clamped into the end bins so that
 * probability mass is conserved, matching how the paper's distribution
 * plots bucket Jaccard indices into [0, 1].
 */
class Histogram
{
  public:
    /**
     * @param lo Lower edge of the histogram range.
     * @param hi Upper edge of the histogram range (must exceed lo).
     * @param bins Number of equal-width bins (must be nonzero).
     */
    Histogram(double lo, double hi, size_t bins);

    /** Add one sample (clamped into range). */
    void add(double x);

    /** Total number of samples. */
    size_t count() const { return total_; }

    /** Raw count in a bin. */
    uint64_t binCount(size_t bin) const;

    /** Fraction of samples in a bin (0 if histogram is empty). */
    double binFraction(size_t bin) const;

    /** Center x-value of a bin. */
    double binCenter(size_t bin) const;

    /** Number of bins. */
    size_t bins() const { return counts_.size(); }

    /** Smallest sample value mapped to a given bin's left edge. */
    double lo() const { return lo_; }

    /** Histogram range upper edge. */
    double hi() const { return hi_; }

    /**
     * Render a compact ASCII sparkline-style summary,
     * e.g. for bench output ("  .:-=+*#").
     */
    std::string ascii() const;

  private:
    double lo_;
    double hi_;
    std::vector<uint64_t> counts_;
    size_t total_ = 0;
};

/** Percentile over a copy of the sample vector (p in [0,100]). */
double percentile(std::vector<double> samples, double p);

/**
 * percentile() of samples already sorted ascending: a caller that
 * reads several percentiles of one vector sorts it once.
 */
double sortedPercentile(const std::vector<double> &sorted, double p);

} // namespace codic

#endif // CODIC_COMMON_STATS_H
