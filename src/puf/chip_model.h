/**
 * @file
 * Synthetic DRAM chip population standing in for the paper's 136 real
 * DDR3 chips (Tables 3 and 12).
 *
 * Each SimulatedChip is a stable "device": all of its per-cell
 * properties are derived deterministically from the chip seed by
 * hashing, so repeated queries see the same silicon, exactly like
 * process variation in hardware. Cell populations are generated
 * lazily per segment (a 4 Gb chip is never materialized), which makes
 * campaign-scale experiments (10,000 Jaccard pairs over 136 chips)
 * instantaneous.
 *
 * Three failure/signature mechanisms are modeled, one per PUF:
 *  - sig flip cells: the sparse population of cells whose CODIC-sig
 *    value amplifies to the minority direction (0.01-0.22 % of cells,
 *    Section 6.1). Highly stable; nearly temperature-insensitive
 *    (common-mode tracking of the cell and the SA trip point).
 *  - tRCD weak cells: cells that fail under tRCD = 2.5 ns reads
 *    (DRAM Latency PUF). Probabilistic per read, strongly
 *    temperature-dependent.
 *  - tRP weak columns: sense-amplifier/bitline structures that fail
 *    under tRP = 2.5 ns (PreLatPUF). Stable and temperature-robust,
 *    but column-structured, so different segments of the same chip
 *    share them (the poor uniqueness the paper observes in Fig. 5).
 */

#ifndef CODIC_PUF_CHIP_MODEL_H
#define CODIC_PUF_CHIP_MODEL_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "puf/puf.h"

namespace codic {

/** DRAM vendor, as anonymized in the paper (A, B, C). */
enum class Vendor : uint8_t { A, B, C };

/** Static description of one chip (one row of Table 12, per chip). */
struct ChipSpec
{
    Vendor vendor = Vendor::A;
    double capacity_gbit = 4.0;  //!< Per-chip density.
    int freq_mts = 1600;         //!< Transfer rate (MT/s).
    bool ddr3l = false;          //!< 1.35 V low-voltage part.
    std::string module;          //!< Module name ("M1".."M15").
    uint64_t seed = 0;           //!< Device identity.
};

/** Per-cell record of the sig flip-cell population. */
struct SigCell
{
    uint32_t index;       //!< Bit position within the segment.
    double stability;     //!< U(0,1); tiny values flicker per query.
    double temp_u;        //!< U(0,1); drives temperature dropout.
};

/** Per-cell record of the tRCD-weak population. */
struct LatencyWeakCell
{
    uint32_t index;    //!< Bit position within the segment.
    double strength;   //!< U(0,1); compared against theta(T).
    double temp_shift; //!< N(0, 1): strength drift with temperature,
                       //!< scaled by the PUF's temp_shift_sigma;
                       //!< 0 if built without temp_shifts.
};

/** Per-column record of the tRP-weak population. */
struct PrelatColumn
{
    uint32_t index;    //!< Column position within the row.
    double stability;  //!< U(0,1); tiny values flicker per query.
};

/**
 * One simulated DRAM chip.
 *
 * All generator methods are const and deterministic in
 * (seed, segment): they re-derive the same populations every call.
 */
class SimulatedChip
{
  public:
    explicit SimulatedChip(const ChipSpec &spec);

    const ChipSpec &spec() const { return spec_; }

    /** Number of 8 KB segments this chip contributes to its rank. */
    uint64_t segments() const;

    /**
     * Fraction of cells whose CODIC-sig value is the minority
     * direction (per-chip, in the paper's 0.01-0.22 % band).
     */
    double sigFlipFraction() const { return sig_flip_fraction_; }

    /**
     * Fraction of cells for which the 48 h retention methodology of
     * Section 6.1 can establish the CODIC value (paper: 34-99 %).
     */
    double methodologyCoverage() const { return coverage_; }

    /** The sig flip-cell population of one segment. */
    std::vector<SigCell> sigCells(uint64_t segment_id,
                                  int segment_bits) const;

    /** Extra sig cells that appear only at elevated temperature. */
    std::vector<SigCell> sigExtraCells(uint64_t segment_id,
                                       int segment_bits) const;

    /**
     * The tRCD-weak population of one segment. Without temp_shifts
     * every temp_shift is 0: the normals are skipped but their
     * uniforms still drawn (Rng::skipGaussian()), so index and
     * strength are the same either way. A caller that only scales
     * temp_shift by zero (30 C, or no drift) loses nothing.
     */
    std::vector<LatencyWeakCell>
    latencyWeakCells(uint64_t segment_id, int segment_bits,
                     bool temp_shifts = true) const;

    /** Chip-level weak columns (shared structure across segments). */
    std::vector<PrelatColumn> prelatChipColumns(int row_columns) const;

    /** Bank index a segment belongs to (segments stripe over banks). */
    int segmentBank(uint64_t segment_id) const;

    /**
     * Per-(bank, segment) modulation of the weak-column set: which
     * chip-level columns express in this bank plus bank/row-local
     * extras. Returned as a full response-position list.
     */
    std::vector<PrelatColumn> prelatColumns(uint64_t segment_id,
                                            int segment_bits) const;

    /** Deterministic per-chip derived RNG stream for a named domain. */
    Rng domainRng(uint64_t domain, uint64_t salt = 0) const;

  private:
    ChipSpec spec_;
    double sig_flip_fraction_;
    double coverage_;
    double latency_weak_fraction_;
    double prelat_col_fraction_;
};

/**
 * Draw `count` uniform bit positions in [0, bits) with
 * rng.below(bits), one draw each, and return the distinct ones in
 * ascending order: sort + unique of the draws, computed without a
 * comparison sort, and without a pass over all `bits`, once the
 * draws are many. Every population above is drawn with it.
 */
std::vector<uint32_t> drawPositions(Rng &rng, size_t count, int bits);

/** Build one module's chips. */
std::vector<ChipSpec> moduleChips(const std::string &name, Vendor vendor,
                                  int chips, double capacity_gbit,
                                  int freq_mts, bool ddr3l,
                                  uint64_t seed_base);

/**
 * The full 136-chip / 15-module population of paper Table 12.
 * @param seed Population seed (chip identities derive from it).
 */
std::vector<SimulatedChip> buildPaperPopulation(uint64_t seed = 2021);

/** Subset helper: chips at a given voltage class. */
std::vector<const SimulatedChip *>
filterByVoltage(const std::vector<SimulatedChip> &chips, bool ddr3l);

} // namespace codic

#endif // CODIC_PUF_CHIP_MODEL_H
