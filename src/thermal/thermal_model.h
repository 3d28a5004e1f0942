/**
 * @file
 * RC-style per-bank thermal model closing the loop the paper only
 * measures statically: per-bank epoch activity (thermal/epoch_stats.h)
 * converts to epoch energy through the command-level energy model
 * (power/energy_model.h), energy to temperature through a first-order
 * RC network per bank, and temperature feeds back into the chip model
 * (QueryEnv::temperature_c) so PUF dropout, retention decay, and
 * sig-cell appearance respond to DRAM activity.
 *
 * Discretization (exact for piecewise-constant power, so the update
 * is unconditionally stable at any epoch length):
 *
 *   T_ss  = ambient + P / G
 *   T'    = T_ss + (T - T_ss) * exp(-G * dt / C)
 *
 * with P the bank's average epoch power from activity energy only.
 * Background/standby power is calibrated into the ambient operating
 * point, so a fully idle system sits at exactly `ambient_c` and the
 * closed loop reproduces the paper's static 30 C numbers bit-for-bit
 * (the idle-convergence invariant CI pins).
 *
 * The RC constants are calibrated for simulation timescales (a
 * sustained write storm moves a bank by tens of degrees within a few
 * hundred microseconds) rather than for the seconds-scale thermal
 * mass of a physical module: the paper's temperature campaigns span
 * 25 C deltas, and the scenarios need to traverse that range inside
 * tractable simulated time.
 */

#ifndef CODIC_THERMAL_THERMAL_MODEL_H
#define CODIC_THERMAL_THERMAL_MODEL_H

#include <cstdint>
#include <vector>

#include "power/energy_model.h"
#include "thermal/epoch_stats.h"

namespace codic {

/** Thermal network parameters (per bank). */
struct ThermalConfig
{
    /** Ambient / heat-sink temperature, C (the idle fixed point). */
    double ambient_c = 30.0;

    /** Bank-to-ambient thermal conductance, W/K. */
    double conductance_w_per_k = 0.04;

    /** Bank thermal capacitance, J/K (tau = C/G = 400 us default). */
    double capacitance_j_per_k = 1.6e-5;

    /** Epoch length, microseconds. */
    double epoch_us = 100.0;

    /** Static power of a bank holding a row open, mW. */
    double open_row_mw = 2.0;

    /** Modeled ambient range (chip model calibration limits). */
    static constexpr double kMinAmbientC = -40.0;
    static constexpr double kMaxAmbientC = 120.0;

    /** Reject out-of-contract values with a clear FatalError. */
    void validate() const;

    /** RC time constant tau = C/G of one bank, microseconds. */
    double tauUs() const
    {
        return 1e6 * capacitance_j_per_k / conductance_w_per_k;
    }
};

/** Per-bank RC thermal state advanced one epoch at a time. */
class ThermalModel
{
  public:
    /**
     * @param config Network parameters (validated).
     * @param banks Bank count (EpochStats::bankCount()).
     * @param energy Command energy constants.
     */
    ThermalModel(const ThermalConfig &config, size_t banks,
                 const EnergyParams &energy = {});

    const ThermalConfig &config() const { return config_; }

    /** Banks tracked. */
    size_t bankCount() const { return temp_c_.size(); }

    /**
     * Activity energy of one bank's epoch, in nJ: ACT/PRE pairs,
     * column bursts, the bank's share of rank REFs, and the row-open
     * static term over the open residency.
     */
    double bankEnergyNj(const BankEpochActivity &activity,
                        double tck_ns) const;

    /**
     * Advance every bank one epoch of `epoch_ns` given its activity
     * (index-aligned with the construction-time bank order).
     */
    void stepEpoch(const std::vector<BankEpochActivity> &activity,
                   double epoch_ns, double tck_ns);

    /** Idle step: every bank relaxes toward ambient for epoch_ns. */
    void stepIdle(double epoch_ns);

    /** Temperature of one bank, C. */
    double bankTemp(size_t i) const { return temp_c_[i]; }

    /** Hottest bank temperature, C. */
    double maxTemp() const;

    /** Index of the hottest bank (lowest index on ties). */
    size_t hottestBank() const;

    /** Mean bank temperature, C. */
    double meanTemp() const;

  private:
    ThermalConfig config_;
    EnergyParams energy_;
    std::vector<double> temp_c_;
};

/**
 * Hysteresis throttle for the thermal_throttling scenario: engages
 * above the ceiling, releases below the floor, never chatters in the
 * band between.
 */
class ThermalThrottle
{
  public:
    ThermalThrottle(double ceiling_c, double floor_c);

    /** Update with the current hottest temperature; new state. */
    bool update(double temp_c);

    bool throttled() const { return throttled_; }

    /** Times the throttle engaged (false -> true transitions). */
    uint64_t engagements() const { return engagements_; }

  private:
    double ceiling_c_;
    double floor_c_;
    bool throttled_ = false;
    uint64_t engagements_ = 0;
};

} // namespace codic

#endif // CODIC_THERMAL_THERMAL_MODEL_H
