/**
 * @file
 * The CODIC-sig PUF (paper Sections 4.1.1 and 5.1).
 *
 * Mechanism: a CODIC-sig command drives every cell of the segment to
 * the precharge voltage; the following activation amplifies each cell
 * to a direction decided by process variation. Most cells amplify to
 * the majority direction; the sparse minority ("flip") cells form the
 * response.
 *
 * Properties reproduced from the paper:
 *  - responses are highly stable (99.7 % of challenges give the
 *    exact same response; a light 5-challenge majority filter makes
 *    them fully repeatable);
 *  - strong temperature resilience: the cell residue and the SA trip
 *    point drift together (common mode), so only a small fraction of
 *    the response changes even at a 55 C delta;
 *  - data independence: cells are precharged to Vdd/2 regardless of
 *    prior content.
 */

#ifndef CODIC_PUF_SIG_PUF_H
#define CODIC_PUF_SIG_PUF_H

#include <vector>

#include "puf/chip_model.h"
#include "puf/puf.h"

namespace codic {

/** Tuning constants of the CODIC-sig response model. */
struct SigPufParams
{
    /**
     * Fraction of flip cells that are marginal (flicker per query).
     * Calibrated so ~0.3-0.6 % of challenges see a changed response
     * (paper: 99.72 % identical on the worst module; 0.64 % average
     * false-rejection rate for exact-match authentication).
     */
    double marginal_fraction = 0.0003;

    /** DDR3L parts are slightly more stable (paper Fig. 5). */
    double ddr3l_marginal_fraction = 0.00015;

    /** Fraction of the response that drops out per 55 C delta. */
    double temp_dropout_at_55c = 0.05;

    /** Extra-cell appearance scale per 55 C delta. */
    double temp_growth_at_55c = 0.04;

    /** Response perturbation after accelerated aging (tiny). */
    double aging_dropout = 0.01;

    /** Number of challenges in the conservative majority filter. */
    int filter_challenges = 5;
};

/** The CODIC-sig PUF implementation. */
class CodicSigPuf : public DramPuf
{
  public:
    explicit CodicSigPuf(const SigPufParams &params = {});

    const char *name() const override { return "CODIC-sig PUF"; }

    Response evaluate(const SimulatedChip &chip,
                      const Challenge &challenge,
                      const QueryEnv &env) const override;

    /**
     * Strict-majority vote over filter_challenges evaluations; pass
     * i (from 0) evaluates with nonce env.nonce * 1000003 + i + 1.
     */
    Response evaluateFiltered(const SimulatedChip &chip,
                              const Challenge &challenge,
                              const QueryEnv &env) const override;

    /**
     * Strict majority over the noise passes of each env. The
     * segment's flip cells (and its extra cells, if some env is hot)
     * are built once and shared by every env and pass.
     */
    std::vector<Response> evaluateEach(const SimulatedChip &chip,
                                       const Challenge &challenge,
                                       std::span<const QueryEnv> envs,
                                       bool filtered) const override;

    int passesPerEvaluation(bool filtered) const override;

  private:
    SigPufParams params_;
};

} // namespace codic

#endif // CODIC_PUF_SIG_PUF_H
