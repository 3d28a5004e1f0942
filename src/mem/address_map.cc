#include "mem/address_map.h"

#include "common/logging.h"

namespace codic {

const char *
mapSchemeName(MapScheme s)
{
    switch (s) {
      case MapScheme::RowBankColumn: return "row:bank:col";
      case MapScheme::BankRowColumn: return "bank:row:col";
      case MapScheme::RowBankColumnChannel: return "row:bank:col:ch";
      case MapScheme::RowChannelBankColumn: return "row:ch:bank:col";
      case MapScheme::RowBankRankColumn: return "row:bank:rank:col";
    }
    panic("unknown map scheme");
}

const std::vector<MapScheme> &
allMapSchemes()
{
    static const std::vector<MapScheme> schemes = {
        MapScheme::RowBankColumn,
        MapScheme::BankRowColumn,
        MapScheme::RowBankColumnChannel,
        MapScheme::RowChannelBankColumn,
        MapScheme::RowBankRankColumn,
    };
    return schemes;
}

std::array<AddressMap::Field, 5>
AddressMap::fieldOrder(MapScheme s)
{
    using F = Field;
    // LSB-first: the first entry varies fastest above the burst
    // offset. Each order is a permutation of all five fields, so
    // decode/encode are inverses for any geometry.
    switch (s) {
      case MapScheme::RowBankColumn:
        return {F::Column, F::Bank, F::Row, F::Rank, F::Channel};
      case MapScheme::BankRowColumn:
        return {F::Column, F::Row, F::Bank, F::Rank, F::Channel};
      case MapScheme::RowBankColumnChannel:
        return {F::Channel, F::Column, F::Bank, F::Row, F::Rank};
      case MapScheme::RowChannelBankColumn:
        return {F::Column, F::Bank, F::Channel, F::Row, F::Rank};
      case MapScheme::RowBankRankColumn:
        return {F::Column, F::Rank, F::Bank, F::Row, F::Channel};
    }
    panic("unknown map scheme");
}

namespace {

bool
isPow2(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

int
log2Of(uint64_t v)
{
    int n = 0;
    while (v > 1) {
        v >>= 1;
        ++n;
    }
    return n;
}

} // namespace

AddressMap::AddressMap(const DramConfig &config, MapScheme scheme)
    : config_(config), scheme_(scheme), order_(fieldOrder(scheme))
{
    // A geometry nothing can map (channels = 0, inconsistent row
    // size, ...) is a user configuration error, not a simulator bug.
    config_.validate();
    capacity_ = static_cast<uint64_t>(config_.capacityBytes());

    pow2_ = isPow2(static_cast<uint64_t>(config_.burst_bytes));
    int lsb = log2Of(static_cast<uint64_t>(config_.burst_bytes));
    for (size_t i = 0; i < order_.size(); ++i) {
        sizes_[i] = fieldSize(order_[i]);
        pow2_ = pow2_ && isPow2(sizes_[i]);
        const size_t f = static_cast<size_t>(order_[i]);
        lsb_[f] = lsb;
        mask_[f] = sizes_[i] - 1;
        lsb += log2Of(sizes_[i]);
    }
}

uint64_t
AddressMap::fieldSize(Field f) const
{
    switch (f) {
      case Field::Channel:
        return static_cast<uint64_t>(config_.channels);
      case Field::Rank: return static_cast<uint64_t>(config_.ranks);
      case Field::Bank: return static_cast<uint64_t>(config_.banks);
      case Field::Row: return static_cast<uint64_t>(config_.rows);
      case Field::Column:
        return static_cast<uint64_t>(config_.columns);
    }
    panic("unknown address field");
}

Address
AddressMap::decodeChain(uint64_t phys_addr) const
{
    uint64_t x = phys_addr / static_cast<uint64_t>(config_.burst_bytes);
    Address a;
    for (size_t i = 0; i < order_.size(); ++i) {
        const uint64_t v = x % sizes_[i];
        x /= sizes_[i];
        switch (order_[i]) {
          case Field::Channel: a.channel = static_cast<int>(v); break;
          case Field::Rank: a.rank = static_cast<int>(v); break;
          case Field::Bank: a.bank = static_cast<int>(v); break;
          case Field::Row: a.row = static_cast<int64_t>(v); break;
          case Field::Column: a.column = static_cast<int>(v); break;
        }
    }
    return a;
}

uint64_t
AddressMap::encode(const Address &a) const
{
    uint64_t x = 0;
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
        uint64_t v = 0;
        switch (*it) {
          case Field::Channel: v = static_cast<uint64_t>(a.channel); break;
          case Field::Rank: v = static_cast<uint64_t>(a.rank); break;
          case Field::Bank: v = static_cast<uint64_t>(a.bank); break;
          case Field::Row: v = static_cast<uint64_t>(a.row); break;
          case Field::Column: v = static_cast<uint64_t>(a.column); break;
        }
        CODIC_ASSERT(v < fieldSize(*it));
        x = x * fieldSize(*it) + v;
    }
    return x * static_cast<uint64_t>(config_.burst_bytes);
}

} // namespace codic
