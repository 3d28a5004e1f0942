/**
 * @file
 * Core DRAM-PUF abstractions: challenges, responses, query
 * environment, the PUF interface, and the Jaccard-index metrics the
 * paper uses to quantify PUF quality (Section 6.1.1, citing [70]).
 *
 * A challenge identifies a memory segment (address + size, paper
 * Section 5.1); the response is the set of cell positions inside the
 * segment that express the PUF's failure/signature mechanism. Two
 * responses are compared with the Jaccard index of their sets.
 */

#ifndef CODIC_PUF_PUF_H
#define CODIC_PUF_PUF_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"

namespace codic {

class SimulatedChip;

/**
 * A PUF challenge: one memory segment of a chip.
 *
 * The paper uses 8 KB segments (64 Kib); segment_id enumerates
 * disjoint segments across the chip's banks and rows.
 */
struct Challenge
{
    uint64_t segment_id = 0;  //!< Which segment of the chip.
    int segment_bits = 65536; //!< Segment size in bits (8 KB default).
};

/** Environmental conditions and per-query entropy for an evaluation. */
struct QueryEnv
{
    double temperature_c = 30.0; //!< Die temperature.
    bool aged = false;           //!< After accelerated aging (§6.1.1).
    uint64_t nonce = 0;          //!< Per-query noise stream selector.
};

/**
 * A PUF response: sorted, deduplicated cell positions (bit indices
 * within the segment) that expressed the mechanism.
 */
struct Response
{
    std::vector<uint32_t> cells;

    size_t size() const { return cells.size(); }
    bool operator==(const Response &) const = default;
};

/**
 * Jaccard index |a n b| / |a u b| of two responses (1 if both empty:
 * two empty responses are identical).
 */
double jaccard(const Response &a, const Response &b);

/**
 * One member of a population that noise passes filter: a cell
 * position that survives every pass unless it is marginal, in which
 * case each pass drops it on a fair coin from that pass's noise.
 */
struct PassMember
{
    uint32_t index;
    bool marginal;
};

/**
 * Strict-majority vote over noise passes of one population (the
 * conservative filter of Section 6.1.1; a single pass is a plain
 * evaluation). `members` must have sorted, unique indices. Each
 * pass draws one chance(0.5) from its own stream per marginal
 * member, in population order. Returns, in population order, the
 * members that survive more than half of the passes.
 */
std::vector<uint32_t> majorityVote(const std::vector<PassMember> &members,
                                   std::vector<Rng> passes);

/** Abstract DRAM PUF. */
class DramPuf
{
  public:
    virtual ~DramPuf() = default;

    /** PUF name for reports ("CODIC-sig PUF", ...). */
    virtual const char *name() const = 0;

    /** Evaluate a challenge against a chip under given conditions. */
    virtual Response evaluate(const SimulatedChip &chip,
                              const Challenge &challenge,
                              const QueryEnv &env) const = 0;

    /**
     * Evaluate with the PUF's production filtering mechanism (e.g.
     * majority over 5 challenges for CODIC-sig/PreLatPUF, the
     * 100-read >90 filter for the DRAM Latency PUF). The default
     * forwards to evaluate() for PUFs whose evaluate() is already
     * filtered.
     */
    virtual Response evaluateFiltered(const SimulatedChip &chip,
                                      const Challenge &challenge,
                                      const QueryEnv &env) const;

    /**
     * Evaluate one challenge once per env, in order: response i is
     * what evaluateFiltered(chip, challenge, envs[i]) returns, or
     * evaluate() if !filtered. The default makes exactly those
     * calls. A PUF overrides it to build the segment's population
     * once for every env, and answers its single queries through it.
     */
    virtual std::vector<Response> evaluateEach(const SimulatedChip &chip,
                                               const Challenge &challenge,
                                               std::span<const QueryEnv> envs,
                                               bool filtered) const;

    /** Number of raw segment passes one evaluation costs (Table 4). */
    virtual int passesPerEvaluation(bool filtered) const = 0;
};

} // namespace codic

#endif // CODIC_PUF_PUF_H
