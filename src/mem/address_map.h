/**
 * @file
 * Physical-address to DRAM-coordinate mapping.
 *
 * A scheme is a permutation of the five coordinate fields (channel,
 * rank, row, bank, column) from most- to least-significant position
 * above the burst offset; decode/encode walk the permutation, so
 * every scheme is round-trip invertible by construction.
 *
 * The default mapping is row:bank:column (RoBaCo): consecutive cache
 * lines walk through a row, then banks interleave at row granularity.
 * This keeps row-sequential streams (the zeroing loops of the TCG and
 * secure-deallocation evaluations) as row hits while spreading
 * independent rows across banks for parallelism. Channel-aware
 * schemes additionally interleave across channels at burst or
 * row-block granularity so sequential streams exercise every channel
 * of a DramSystem.
 */

#ifndef CODIC_MEM_ADDRESS_MAP_H
#define CODIC_MEM_ADDRESS_MAP_H

#include <array>
#include <cstdint>
#include <vector>

#include "dram/command.h"
#include "dram/config.h"

namespace codic {

/**
 * Interleaving granularity options. Names list fields from most- to
 * least-significant; channel and rank sit above the named fields
 * when a name omits them (the legacy single-channel layouts).
 */
enum class MapScheme
{
    RowBankColumn,        //!< ch:rank:row:bank:col (bank interleave per row).
    BankRowColumn,        //!< ch:rank:bank:row:col (contiguous per bank).
    RowBankColumnChannel, //!< rank:row:bank:col:ch (line interleave across channels).
    RowChannelBankColumn, //!< rank:row:ch:bank:col (bank-block interleave across channels).
    RowBankRankColumn,    //!< ch:row:bank:rank:col (line interleave across ranks).
};

/** Display name of a scheme. */
const char *mapSchemeName(MapScheme s);

/** All supported schemes (test sweeps, CLI listings). */
const std::vector<MapScheme> &allMapSchemes();

/** Maps physical byte addresses to DRAM coordinates and back. */
class AddressMap
{
  public:
    AddressMap(const DramConfig &config,
               MapScheme scheme = MapScheme::RowBankColumn);

    /** Decompose a physical byte address. */
    Address decode(uint64_t phys_addr) const;

    /** Recompose a physical byte address (inverse of decode). */
    uint64_t encode(const Address &addr) const;

    /** Channel owning a physical byte address. */
    int channelOf(uint64_t phys_addr) const;

    /** The scheme in use. */
    MapScheme scheme() const { return scheme_; }

    /** Bytes covered by one row across the rank. */
    int64_t rowBytes() const { return config_.row_bytes; }

    /** Bytes per column burst. */
    int64_t burstBytes() const { return config_.burst_bytes; }

    /** Total mapped capacity in bytes. */
    int64_t capacityBytes() const { return config_.capacityBytes(); }

  private:
    /** Coordinate fields, in decode (LSB-first) order per scheme. */
    enum class Field : uint8_t { Channel, Rank, Bank, Row, Column };

    uint64_t fieldSize(Field f) const;
    static std::array<Field, 5> fieldOrder(MapScheme s);

    DramConfig config_;
    MapScheme scheme_;
    std::array<Field, 5> order_; //!< LSB-first field order.

    /** config_.capacityBytes(), the bound decode() checks. */
    uint64_t capacity_ = 0;

    /** Field sizes in order_ order, cached off the config. */
    std::array<uint64_t, 5> sizes_{};

    /**
     * Power-of-two fast path: every real module geometry (and the
     * burst size) is a power of two, so decode's per-field div/mod
     * chain collapses to shifts and masks. Falls back to the generic
     * chain for exotic test geometries.
     */
    bool pow2_ = false;
    int burst_shift_ = 0;
    std::array<int, 5> shift_{};
    std::array<uint64_t, 5> mask_{};
};

} // namespace codic

#endif // CODIC_MEM_ADDRESS_MAP_H
