/**
 * @file
 * Byte codecs of the on-disk formats (traces, enrollment stores):
 * LEB128 varints and explicitly little-endian fixed-width integers,
 * so a file written on one host reads on any other.
 *
 * Decoders read untrusted bytes: a varint that runs past the end of
 * its field, or that carries more than 64 bits, raises FatalError
 * instead of reading past the field or silently dropping bits.
 */

#ifndef CODIC_COMMON_VARINT_H
#define CODIC_COMMON_VARINT_H

#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/logging.h"

namespace codic {

/** Store `v` little-endian at `p` (sizeof(T) bytes). */
template <typename T>
inline void
storeLe(uint8_t *p, T v)
{
    static_assert(std::is_unsigned_v<T>);
    for (size_t i = 0; i < sizeof(T); ++i)
        p[i] = static_cast<uint8_t>(v >> (8 * i));
}

/** Load a little-endian T from `p` (sizeof(T) bytes). */
template <typename T>
inline T
loadLe(const uint8_t *p)
{
    static_assert(std::is_unsigned_v<T>);
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i)
        v |= static_cast<T>(p[i]) << (8 * i);
    return v;
}

/** Append `v` as a LEB128 varint (1 to 10 bytes). */
inline void
putVarint(std::vector<uint8_t> &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<uint8_t>(v));
}

/**
 * Decode the varint at data[pos] and advance pos past it; the field
 * holding it ends at data[end]. @throws FatalError, prefixed with
 * `what`, when the varint runs past `end` or is wider than 64 bits.
 */
inline uint64_t
getVarint(const uint8_t *data, uint64_t &pos, uint64_t end,
          std::string_view what)
{
    uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
        if (pos >= end)
            fatal(what, " ends inside a varint (truncated or corrupt)");
        const uint8_t byte = data[pos++];
        // The 10th byte holds only bit 63: a wider payload, or a
        // continuation into an 11th byte, would silently drop bits.
        if (shift == 63 && byte > 1)
            fatal(what, " holds an overlong varint (wider than 64 "
                        "bits)");
        v |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return v;
    }
}

} // namespace codic

#endif // CODIC_COMMON_VARINT_H
