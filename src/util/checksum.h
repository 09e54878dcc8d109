/**
 * @file
 * Checksums for crash-consistency markers and logs: FNV-1a for small
 * header fields, CRC-64 for bulk content (salvage regions, the resume
 * block, flight-recorder records). The CRC's carry-less-multiply path
 * lives in checksum.cc.
 */

#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

namespace wsp {

/** FNV-1a 64-bit hash over a byte span. */
constexpr uint64_t
fnv1a(std::span<const uint8_t> bytes, uint64_t seed = 0xcbf29ce484222325ull)
{
    uint64_t hash = seed;
    for (uint8_t byte : bytes) {
        hash ^= byte;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** FNV-1a over a single 64-bit word (for marker fields). */
constexpr uint64_t
fnv1aU64(uint64_t value, uint64_t seed = 0xcbf29ce484222325ull)
{
    uint64_t hash = seed;
    for (int i = 0; i < 8; ++i) {
        hash ^= value & 0xff;
        hash *= 0x100000001b3ull;
        value >>= 8;
    }
    return hash;
}

namespace detail {

/** Reflected ECMA-182 polynomial (CRC-64/XZ). */
constexpr uint64_t kCrc64Poly = 0xc96c5795d7870f42ull;

/**
 * Slice-by-8 tables: [0] is the bytewise table; [k][i] is the CRC of
 * byte i followed by k zero bytes, so eight table lookups fold one
 * 64-bit word at a time.
 */
constexpr std::array<std::array<uint64_t, 256>, 8>
makeCrc64Tables()
{
    std::array<std::array<uint64_t, 256>, 8> tables{};
    for (uint64_t i = 0; i < 256; ++i) {
        uint64_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1) ? kCrc64Poly : 0);
        tables[0][i] = crc;
    }
    for (size_t k = 1; k < tables.size(); ++k) {
        for (size_t i = 0; i < 256; ++i) {
            const uint64_t prev = tables[k - 1][i];
            tables[k][i] = tables[0][prev & 0xff] ^ (prev >> 8);
        }
    }
    return tables;
}

inline constexpr std::array<std::array<uint64_t, 256>, 8> kCrc64Tables =
    makeCrc64Tables();

/**
 * Slice-by-8 CRC-64/XZ: whole 8-byte words at run time on
 * little-endian hosts, bytewise under constant evaluation, on
 * big-endian hosts and for the tail. Same contract as crc64(); it is
 * the one table loop, serving short inputs, hosts without carry-less
 * multiply and the folded path's last 16-31 bytes.
 */
constexpr uint64_t
crc64Table(std::span<const uint8_t> bytes, uint64_t crc)
{
    const auto &t = kCrc64Tables;
    crc = ~crc;
    size_t i = 0;
    if constexpr (std::endian::native == std::endian::little) {
        if (!std::is_constant_evaluated()) {
            for (; i + 8 <= bytes.size(); i += 8) {
                uint64_t word;
                std::memcpy(&word, bytes.data() + i, sizeof(word));
                word ^= crc;
                crc = t[7][word & 0xff] ^ t[6][(word >> 8) & 0xff] ^
                      t[5][(word >> 16) & 0xff] ^
                      t[4][(word >> 24) & 0xff] ^
                      t[3][(word >> 32) & 0xff] ^
                      t[2][(word >> 40) & 0xff] ^
                      t[1][(word >> 48) & 0xff] ^ t[0][word >> 56];
            }
        }
    }
    for (; i < bytes.size(); ++i)
        crc = t[0][(crc ^ bytes[i]) & 0xff] ^ (crc >> 8);
    return ~crc;
}

/** Shortest input crc64() hands to the folded path: one 4-lane step. */
constexpr size_t kCrc64FoldMinBytes = 64;

/**
 * True when the host can run crc64Folded(): x86-64 with PCLMULQDQ,
 * probed once per process. Always false elsewhere.
 */
bool crc64FoldAvailable();

/**
 * CRC-64/XZ by carry-less multiply: four 128-bit lanes fold 64 bytes
 * per step, collapse into one, fold 16 bytes at a time, and hand the
 * last 128-bit remainder plus the tail to crc64Table(). Same contract
 * as crc64(). Requires @p size >= kCrc64FoldMinBytes and
 * crc64FoldAvailable().
 */
uint64_t crc64Folded(const uint8_t *data, size_t size, uint64_t crc);

} // namespace detail

/**
 * CRC-64 (ECMA-182, reflected; the CRC-64/XZ parameters) over a byte
 * span. Unlike FNV-1a, a CRC detects every burst error shorter than
 * the polynomial — the media faults flash actually suffers (bit
 * flips, torn lines, bad blocks) — which is why the per-region
 * salvage directory and the resume block bind CRCs and not hashes.
 * Incremental use: feed the previous return value as @p crc.
 *
 * At run time, inputs of at least 64 bytes on a host with PCLMULQDQ
 * go through the carry-less-multiply fold (detail::crc64Folded);
 * everything else — constant evaluation, other hosts, shorter inputs
 * such as the flight recorder's 56-byte records — goes through the
 * slice-by-8 tables (detail::crc64Table). Both give identical results.
 */
constexpr uint64_t
crc64(std::span<const uint8_t> bytes, uint64_t crc = 0)
{
    if (!std::is_constant_evaluated() &&
        bytes.size() >= detail::kCrc64FoldMinBytes &&
        detail::crc64FoldAvailable())
        return detail::crc64Folded(bytes.data(), bytes.size(), crc);
    return detail::crc64Table(bytes, crc);
}

} // namespace wsp
