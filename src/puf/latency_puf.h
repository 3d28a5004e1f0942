/**
 * @file
 * The DRAM Latency PUF baseline (Kim et al., HPCA 2018 [80]; compared
 * against in paper Section 6.1).
 *
 * Mechanism: read the segment with a drastically reduced
 * tRCD = 2.5 ns; cells that cannot deliver enough charge in time fail
 * probabilistically. The production filter reads the segment 100
 * times and keeps only cells failing in more than 90 reads.
 *
 * Properties reproduced from the paper:
 *  - Intra-Jaccard distributed toward 1 but dispersed (noisy failure
 *    probabilities near the filter threshold);
 *  - excellent Inter-Jaccard (per-cell mechanism, independent across
 *    segments);
 *  - strong sensitivity to temperature (failure probabilities shift
 *    with T, reshuffling the filtered set; paper Fig. 6).
 */

#ifndef CODIC_PUF_LATENCY_PUF_H
#define CODIC_PUF_LATENCY_PUF_H

#include <span>
#include <vector>

#include "puf/chip_model.h"
#include "puf/puf.h"

namespace codic {

/** Tuning constants of the DRAM Latency PUF model. */
struct LatencyPufParams
{
    int reads = 100;          //!< Reads per filtered evaluation.
    int filter_threshold = 90;//!< Keep cells failing > this many reads.
    double theta_30c = 0.35;  //!< Failure threshold at 30 C.
    double theta_per_c = 0.004; //!< Threshold shift per degree C.
    double width = 0.08;      //!< Logistic width of failure prob.
    double temp_shift_sigma = 1.2; //!< Per-cell strength drift scale.
};

/** The DRAM Latency PUF implementation. */
class DramLatencyPuf : public DramPuf
{
  public:
    /**
     * @throws FatalError if reads < 1, if filter_threshold lies
     *         outside [0, reads), if width is not a positive finite
     *         number, if temp_shift_sigma is negative or not finite,
     *         or if theta_30c or theta_per_c is not finite.
     */
    explicit DramLatencyPuf(const LatencyPufParams &params = {});

    const char *name() const override { return "DRAM Latency PUF"; }

    /** Single unfiltered read pass (noisy). */
    Response evaluate(const SimulatedChip &chip,
                      const Challenge &challenge,
                      const QueryEnv &env) const override;

    /** The 100-read > 90 filter of the original proposal. */
    Response evaluateFiltered(const SimulatedChip &chip,
                              const Challenge &challenge,
                              const QueryEnv &env) const override;

    /**
     * Each env's read pass or filter over one shared population. Its
     * temperature drifts are drawn only if some env is off 30 C and
     * temp_shift_sigma != 0: otherwise every drift is scaled by zero.
     */
    std::vector<Response> evaluateEach(const SimulatedChip &chip,
                                       const Challenge &challenge,
                                       std::span<const QueryEnv> envs,
                                       bool filtered) const override;

    int passesPerEvaluation(bool filtered) const override;

    /** Failure probability of one weak cell at temperature T. */
    double failureProbability(const LatencyWeakCell &cell,
                              double temperature_c) const;

    /**
     * The filter's cut on the logistic argument z of
     * failureProbability(): no noise draw can lift a cell with
     * z < filterCutLogit() past filter_threshold. filterBounds()
     * refines it per u1 bin: bin 0, whose radius is R, reproduces it
     * up to rounding unless it is capped at p = 1/2, and every other
     * bin lies above it. -inf when no cell is decided that way.
     */
    double filterCutLogit() const { return cut_logit_; }

    /**
     * The filter's bounds on z for the cells of one Box-Muller pair
     * whose first uniform u1 lies in one bin. Both normals of the
     * pair have |g| <= sqrt(-2 ln u1), which the bin bounds by its
     * lower edge.
     */
    struct FilterBounds
    {
        double fail; //!< z < fail: the cell fails for every such g.
        double keep; //!< z > keep: the cell passes for every such g.
    };

    /** u1 bins: bin b holds u1 in [b, b + 1) / kFilterBins. */
    static constexpr size_t kFilterBins = 1024;

    /** The bounds of each u1 bin, kFilterBins of them. */
    std::span<const FilterBounds> filterBounds() const { return bounds_; }

  private:
    /** Logistic argument z: failure probability 1 / (1 + e^-z). */
    double failureLogit(const LatencyWeakCell &cell,
                        double temperature_c) const;

    /** One noisy read pass over a segment's population. */
    Response readPass(const SimulatedChip &chip,
                      const std::vector<LatencyWeakCell> &cells,
                      const QueryEnv &env) const;

    /** The read filter over a segment's population. */
    Response readFiltered(const SimulatedChip &chip,
                          const std::vector<LatencyWeakCell> &cells,
                          const QueryEnv &env) const;

    LatencyPufParams params_;
    double cut_logit_;
    std::vector<FilterBounds> bounds_;
};

} // namespace codic

#endif // CODIC_PUF_LATENCY_PUF_H
