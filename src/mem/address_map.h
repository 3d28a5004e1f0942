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

#include "common/logging.h"
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

    /**
     * Decompose a physical byte address. When every field size and
     * the burst size are powers of two, as in every preset module,
     * each field is one shift and mask of the address; any other
     * geometry (e.g. three channels) takes the div/mod chain.
     */
    Address decode(uint64_t phys_addr) const
    {
        CODIC_ASSERT(phys_addr < capacity_);
        if (!pow2_)
            return decodeChain(phys_addr);
        const auto field = [&](Field f) {
            const size_t i = static_cast<size_t>(f);
            return (phys_addr >> lsb_[i]) & mask_[i];
        };
        Address a;
        a.channel = static_cast<int>(field(Field::Channel));
        a.rank = static_cast<int>(field(Field::Rank));
        a.bank = static_cast<int>(field(Field::Bank));
        a.row = static_cast<int64_t>(field(Field::Row));
        a.column = static_cast<int>(field(Field::Column));
        return a;
    }

    /** Recompose a physical byte address (inverse of decode). */
    uint64_t encode(const Address &addr) const;

    /** Channel owning a physical byte address. */
    int channelOf(uint64_t phys_addr) const
    {
        return decode(phys_addr).channel;
    }

    /** The scheme in use. */
    MapScheme scheme() const { return scheme_; }

    /** Bytes covered by one row across the rank. */
    int64_t rowBytes() const { return config_.row_bytes; }

    /** Bytes per column burst. */
    int64_t burstBytes() const { return config_.burst_bytes; }

    /** Total mapped capacity in bytes. */
    int64_t capacityBytes() const { return config_.capacityBytes(); }

  private:
    /** Coordinate fields; order_ lists them LSB-first per scheme. */
    enum class Field : uint8_t { Channel, Rank, Bank, Row, Column };

    uint64_t fieldSize(Field f) const;
    static std::array<Field, 5> fieldOrder(MapScheme s);

    /** decode() for a geometry with a field that is not a power of two. */
    Address decodeChain(uint64_t phys_addr) const;

    DramConfig config_;
    MapScheme scheme_;
    std::array<Field, 5> order_; //!< LSB-first field order.

    /** config_.capacityBytes(), the bound decode() checks. */
    uint64_t capacity_ = 0;

    /** Field sizes in order_ order, cached off the config. */
    std::array<uint64_t, 5> sizes_{};

    /** Every field size and the burst size is a power of two. */
    bool pow2_ = false;
    /**
     * With pow2_: each field's lowest address bit and its mask,
     * indexed by Field, so decode() reads the five fields
     * independently.
     */
    std::array<int, 5> lsb_{};
    std::array<uint64_t, 5> mask_{};
};

} // namespace codic

#endif // CODIC_MEM_ADDRESS_MAP_H
