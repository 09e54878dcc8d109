#include "util/checksum.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace wsp::detail {

#if defined(__x86_64__)

namespace {

/**
 * x^n mod P in the CRC state's reflected bit order (bit i holds the
 * coefficient of x^(63-i)): start from x^0 and multiply by x n times,
 * reducing x^64 to the polynomial's low terms.
 */
constexpr uint64_t
reflectedXPowModP(unsigned n)
{
    uint64_t r = 1ull << 63;
    for (unsigned i = 0; i < n; ++i)
        r = (r >> 1) ^ ((r & 1) ? kCrc64Poly : 0);
    return r;
}

/**
 * Multipliers that move a 128-bit lane @p bits further down the
 * message. A reflected carry-less product carries an extra factor of
 * x, so the lane's low qword (its x^127..x^64 half) is multiplied by
 * x^(bits+63) mod P and its high qword by x^(bits-1) mod P.
 */
struct FoldConstants
{
    uint64_t lo;
    uint64_t hi;
};

constexpr FoldConstants
foldBy(unsigned bits)
{
    return {reflectedXPowModP(bits + 63), reflectedXPowModP(bits - 1)};
}

constexpr FoldConstants kFold512 = foldBy(512);
constexpr FoldConstants kFold384 = foldBy(384);
constexpr FoldConstants kFold256 = foldBy(256);
constexpr FoldConstants kFold128 = foldBy(128);

__attribute__((target("pclmul"))) inline __m128i
fold(__m128i lane, __m128i k)
{
    return _mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00),
                         _mm_clmulepi64_si128(lane, k, 0x11));
}

inline __m128i
load(const uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

inline __m128i
constants(FoldConstants k)
{
    return _mm_set_epi64x(static_cast<long long>(k.hi),
                          static_cast<long long>(k.lo));
}

} // namespace

bool
crc64FoldAvailable()
{
    static const bool available = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") != 0;
    }();
    return available;
}

__attribute__((target("pclmul"))) uint64_t
crc64Folded(const uint8_t *data, size_t size, uint64_t crc)
{
    // The initial state enters as an XOR into the first eight bytes;
    // from here on the lanes hold raw message polynomials.
    __m128i x0 = _mm_xor_si128(load(data),
                               _mm_cvtsi64_si128(static_cast<long long>(~crc)));
    __m128i x1 = load(data + 16);
    __m128i x2 = load(data + 32);
    __m128i x3 = load(data + 48);
    const uint8_t *p = data + kCrc64FoldMinBytes;
    size_t left = size - kCrc64FoldMinBytes;

    const __m128i k512 = constants(kFold512);
    for (; left >= 64; p += 64, left -= 64) {
        x0 = _mm_xor_si128(fold(x0, k512), load(p));
        x1 = _mm_xor_si128(fold(x1, k512), load(p + 16));
        x2 = _mm_xor_si128(fold(x2, k512), load(p + 32));
        x3 = _mm_xor_si128(fold(x3, k512), load(p + 48));
    }

    const __m128i k128 = constants(kFold128);
    __m128i x = _mm_xor_si128(
        _mm_xor_si128(fold(x0, constants(kFold384)),
                      fold(x1, constants(kFold256))),
        _mm_xor_si128(fold(x2, k128), x3));
    for (; left >= 16; p += 16, left -= 16)
        x = _mm_xor_si128(fold(x, k128), load(p));

    // The remainder is congruent to everything folded so far, so the
    // table loop from raw state 0 (crc ~0) finishes the CRC with no
    // Barrett reduction; the tail then continues from its result.
    alignas(16) uint8_t rest[16];
    _mm_store_si128(reinterpret_cast<__m128i *>(rest), x);
    return crc64Table({p, left}, crc64Table(rest, ~0ull));
}

#else

bool
crc64FoldAvailable()
{
    return false;
}

uint64_t
crc64Folded(const uint8_t *data, size_t size, uint64_t crc)
{
    return crc64Table({data, size}, crc);
}

#endif

} // namespace wsp::detail
