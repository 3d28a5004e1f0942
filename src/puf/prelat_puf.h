/**
 * @file
 * The PreLatPUF baseline (Talukder et al., IEEE Access 2019 [153];
 * compared against in paper Section 6.1).
 *
 * Mechanism: precharge with a drastically reduced tRP = 2.5 ns; the
 * bitlines of weak sense-amplifier/precharge structures do not reach
 * Vdd/2 in time and the following access fails.
 *
 * Properties reproduced from the paper:
 *  - very repeatable responses (Intra-Jaccard near 1) and the best
 *    temperature robustness (the mechanism lives in the SA/bitline
 *    structure, not in cell charge);
 *  - poor uniqueness (Inter-Jaccard dispersed and far from 0):
 *    because the failures are column-structured, different segments
 *    of the same chip share a large part of their response.
 */

#ifndef CODIC_PUF_PRELAT_PUF_H
#define CODIC_PUF_PRELAT_PUF_H

#include <vector>

#include "puf/chip_model.h"
#include "puf/puf.h"

namespace codic {

/** Tuning constants of the PreLatPUF model. */
struct PrelatPufParams
{
    /** Fraction of weak columns that are marginal per query. */
    double marginal_fraction = 0.002;

    /** Response perturbation per 55 C delta (very small). */
    double temp_dropout_at_55c = 0.008;

    /** Number of challenges in the conservative majority filter. */
    int filter_challenges = 5;

    /**
     * Relative pass cost of one evaluation: PreLatPUF writes known
     * data, precharges with reduced tRP, and reads back, costing
     * ~1.8x a plain read pass (Table 4: 1.59 ms vs 0.88 ms).
     */
    double pass_cost = 1.8;
};

/** The PreLatPUF implementation. */
class PrelatPuf : public DramPuf
{
  public:
    explicit PrelatPuf(const PrelatPufParams &params = {});

    const char *name() const override { return "PreLatPUF"; }

    Response evaluate(const SimulatedChip &chip,
                      const Challenge &challenge,
                      const QueryEnv &env) const override;

    /**
     * Strict-majority vote over filter_challenges evaluations; pass
     * i (from 0) evaluates with nonce env.nonce * 1000033 + i + 1.
     */
    Response evaluateFiltered(const SimulatedChip &chip,
                              const Challenge &challenge,
                              const QueryEnv &env) const override;

    /**
     * Strict majority over the noise passes of each env. The
     * segment's weak columns are built once and shared by every env
     * and pass.
     */
    std::vector<Response> evaluateEach(const SimulatedChip &chip,
                                       const Challenge &challenge,
                                       std::span<const QueryEnv> envs,
                                       bool filtered) const override;

    int passesPerEvaluation(bool filtered) const override;

    /** Relative cost of one pass vs. a plain read pass. */
    double passCost() const { return params_.pass_cost; }

  private:
    PrelatPufParams params_;
};

} // namespace codic

#endif // CODIC_PUF_PRELAT_PUF_H
