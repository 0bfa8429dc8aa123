/**
 * @file kernels_impl.h
 * The kernel-variant implementation, compiled once per ISA level.
 *
 * This header is included by exactly four translation units
 * (kernels_scalar.cc, kernels_avx2.cc, kernels_avx512.cc,
 * kernels_vnni.cc), each of which defines the configuration macros
 * below and is built with the matching per-TU -m flags. The body
 * provides every KernelTable entry; intrinsic fast paths are guarded
 * by the FABNET_KV_* macros (NOT by __AVX2__ etc., so a stray global
 * flag cannot silently upgrade the scalar variant).
 *
 * Configuration macros (set by the including TU):
 *   FABNET_KV_NS      variant namespace (kv_scalar, kv_avx2, ...)
 *   FABNET_KV_ISA     runtime::Isa enumerator of this variant
 *   FABNET_KV_EXPORT  name of the exported table accessor
 *   FABNET_KV_AVX2    1 to enable AVX2 integer-tile fast paths
 *   FABNET_KV_F16C    1 to enable hardware binary16 conversions
 *   FABNET_KV_AVX512  1 to enable AVX-512 fast paths
 *   FABNET_KV_VNNI    1 to enable the VNNI int8 dot-product tile
 *
 * ## The parity argument, per family
 * - fp32/fp16 GEMM: the register tile keeps one k-ascending
 *   accumulator chain per output element through the pinned madd
 *   (mul+add in every TU, -ffp-contract=off build-wide), so every
 *   variant, row split and thread count is bitwise identical.
 * - int8 GEMM: int32 accumulation is exact; scalar, vpmaddwd and
 *   vpdpwssd tiles compute identical integers.
 * - butterfly stages: y = w0*x1 + w1*x2 is a single madd expression
 *   per output (no chain), so lane order never matters. The int8
 *   stage is exact even in int16 lanes: |w0*x1 + w1*x2| <= 2*127^2.
 * - reductions (maxAbsRow, per-row requant max): max is commutative
 *   and associative on the non-NaN data the kernels see.
 * - binary16 rounding: hardware vcvtps2ph (RNE) is bit-identical to
 *   the software conversion in tensor/half.h for all finite values
 *   and infinities (pinned by tests/quantize_golden_test.cpp).
 * - transcendental rows (GELU, softmax): every lane runs expPinned's
 *   op sequence (kernels_common.h) - IEEE mul/add/sub/div without
 *   FMA, exact int conversions and exponent-bit shifts, and
 *   compare-and-select for the specials - so lane order never
 *   matters. The softmax max is exact in any order and its
 *   denominator stays one serial ascending sum.
 */

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if FABNET_KV_AVX2 || FABNET_KV_F16C || FABNET_KV_AVX512 || FABNET_KV_VNNI
#include <immintrin.h>
#endif

#include "runtime/dispatch.h"
#include "runtime/kernels_common.h"
#include "runtime/workspace.h"
#include "tensor/half.h"

namespace fabnet {
namespace runtime {
namespace FABNET_KV_NS {

// ------------------------------------------------------- fp32 GEMM

/** The one fp32 register tile, kGemmTileM x kGemmTileN. */
constexpr int kMr = static_cast<int>(kGemmTileM);
constexpr int kNr = static_cast<int>(kGemmTileN);

/**
 * One register tile: C[i0..i0+mr) x [j0..j0+jn) = (bias|0) + A * B.
 * mr <= kMr rows, jn <= kNr columns. The accumulators live in a
 * fixed-size local array the whole k loop, so there is no C traffic
 * (and no load/store rounding detour) inside the hot loop.
 */
inline void
gemmTile(const float *a, const float *b, float *c, std::size_t i0,
         std::size_t mr, std::size_t j0, std::size_t jn, std::size_t k,
         std::size_t n, const float *bias)
{
    float acc[kMr][kNr];
    for (std::size_t r = 0; r < mr; ++r) {
        if (bias) {
            for (std::size_t j = 0; j < jn; ++j)
                acc[r][j] = bias[j0 + j];
        } else {
            for (std::size_t j = 0; j < jn; ++j)
                acc[r][j] = 0.0f;
        }
    }
    if (mr == static_cast<std::size_t>(kMr) &&
        jn == static_cast<std::size_t>(kNr)) {
        // Full tile: constant trip counts so the compiler keeps the
        // kMr x kNr accumulator block in vector registers.
        const float *ar[kMr];
        for (int r = 0; r < kMr; ++r)
            ar[r] = a + (i0 + r) * k;
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float *brow = b + kk * n + j0;
            float av[kMr];
            for (int r = 0; r < kMr; ++r)
                av[r] = ar[r][kk];
            for (int j = 0; j < kNr; ++j) {
                const float bv = brow[j];
                for (int r = 0; r < kMr; ++r)
                    acc[r][j] = madd(av[r], bv, acc[r][j]);
            }
        }
    } else {
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float *brow = b + kk * n + j0;
            for (std::size_t r = 0; r < mr; ++r) {
                const float av = a[(i0 + r) * k + kk];
                for (std::size_t j = 0; j < jn; ++j)
                    acc[r][j] = madd(av, brow[j], acc[r][j]);
            }
        }
    }
    for (std::size_t r = 0; r < mr; ++r)
        std::memcpy(c + (i0 + r) * n + j0, acc[r], jn * sizeof(float));
}

/** Panel of kMr x kNr tiles over C rows [r0, r1). */
void
gemmF32(const float *a, const float *b, float *c, std::size_t r0,
        std::size_t r1, std::size_t k, std::size_t n, const float *bias)
{
    for (std::size_t i = r0; i < r1;
         i += static_cast<std::size_t>(kMr)) {
        const std::size_t mr =
            (i + kMr <= r1) ? static_cast<std::size_t>(kMr) : r1 - i;
        for (std::size_t j = 0; j < n;
             j += static_cast<std::size_t>(kNr)) {
            const std::size_t jn =
                (j + kNr <= n) ? static_cast<std::size_t>(kNr) : n - j;
            gemmTile(a, b, c, i, mr, j, jn, k, n, bias);
        }
    }
}

// ------------------------------------------------------- int8 GEMM

/** Scalar int8 tile: exact int32 accumulation off the packed layout.
 *  Also the tail path of the vector kernels - integer math is exact,
 *  so both produce identical accumulators. */
inline void
gemmTileInt8Scalar(const std::int8_t *a, const std::int16_t *bp,
                   float *c, std::size_t i0, std::size_t mr,
                   std::size_t j0, std::size_t jn, std::size_t k,
                   std::size_t n, const float *a_scale,
                   const float *b_scale, const float *bias)
{
    const std::size_t kp_count = k / 2;
    for (std::size_t r = 0; r < mr; ++r) {
        const std::int8_t *arow = a + (i0 + r) * k;
        for (std::size_t j = 0; j < jn; ++j) {
            std::int32_t acc = 0;
            const std::int16_t *bcol = bp + (j0 + j) * 2;
            for (std::size_t kp = 0; kp < kp_count; ++kp) {
                const std::int16_t *bpair = bcol + kp * n * 2;
                acc += static_cast<std::int32_t>(arow[2 * kp]) *
                       bpair[0];
                acc += static_cast<std::int32_t>(arow[2 * kp + 1]) *
                       bpair[1];
            }
            if (k & 1) {
                const std::int16_t *bpair = bcol + kp_count * n * 2;
                acc += static_cast<std::int32_t>(arow[k - 1]) *
                       bpair[0];
            }
            c[(i0 + r) * n + j0 + j] =
                dequantInt8(acc, a_scale[i0 + r], b_scale[j0 + j],
                            bias ? bias[j0 + j] : 0.0f);
        }
    }
}

#if FABNET_KV_AVX2 && !FABNET_KV_VNNI

/**
 * Full 4x32 int8 tile: 16 ymm accumulators, one vpmaddwd + vpaddd per
 * (row, 8-column group, k-pair). @p arow holds the tile's four A rows
 * pre-widened to int16 pairs (an int32 load broadcasts one pair).
 * Each vpmaddwd lane computes a[2kp]*b[2kp][j] + a[2kp+1]*b[2kp+1][j]
 * exactly (products <= 127^2, pair sums <= 2*127^2 fit int32), so the
 * vector path's accumulators equal the scalar tile's.
 */
inline void
gemmTileInt8Wide(const std::int16_t *const arow[kGemmTileM],
                 const std::int16_t *bp, float *c, std::size_t i0,
                 std::size_t j0, std::size_t kp_count, std::size_t n,
                 const float *a_scale, const float *b_scale,
                 const float *bias)
{
    __m256i acc[kGemmTileM][4];
    for (std::size_t r = 0; r < kGemmTileM; ++r)
        for (std::size_t v = 0; v < 4; ++v)
            acc[r][v] = _mm256_setzero_si256();

    for (std::size_t kp = 0; kp < kp_count; ++kp) {
        const std::int16_t *brow = bp + (kp * n + j0) * 2;
        __m256i bv[4];
        for (std::size_t v = 0; v < 4; ++v)
            bv[v] = _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                brow + v * 16));
        for (std::size_t r = 0; r < kGemmTileM; ++r) {
            int pair;
            std::memcpy(&pair, arow[r] + 2 * kp, sizeof(pair));
            const __m256i av = _mm256_set1_epi32(pair);
            for (std::size_t v = 0; v < 4; ++v)
                acc[r][v] = _mm256_add_epi32(
                    acc[r][v], _mm256_madd_epi16(av, bv[v]));
        }
    }

    alignas(32) std::int32_t lanes[8];
    for (std::size_t r = 0; r < kGemmTileM; ++r) {
        for (std::size_t v = 0; v < 4; ++v) {
            _mm256_store_si256(reinterpret_cast<__m256i *>(lanes),
                               acc[r][v]);
            const std::size_t jb = j0 + v * 8;
            for (std::size_t j = 0; j < 8; ++j)
                c[(i0 + r) * n + jb + j] =
                    dequantInt8(lanes[j], a_scale[i0 + r],
                                b_scale[jb + j],
                                bias ? bias[jb + j] : 0.0f);
        }
    }
}

#define FABNET_KV_WIDE_I8_TILE 1
#endif // FABNET_KV_AVX2 && !FABNET_KV_VNNI

#if FABNET_KV_VNNI

/**
 * Full 4x32 int8 tile on AVX-512 VNNI: vpdpwssd fuses the int16-pair
 * multiply-add-accumulate into one instruction over 16 int32 lanes,
 * so the whole tile is 8 dpwssd + 2 loads + 4 broadcasts per k-pair.
 * Operands are bounded to [-127, 127], so the in-lane pair sum cannot
 * overflow and the accumulators are exact - identical to the scalar
 * tile.
 */
inline void
gemmTileInt8Wide(const std::int16_t *const arow[kGemmTileM],
                 const std::int16_t *bp, float *c, std::size_t i0,
                 std::size_t j0, std::size_t kp_count, std::size_t n,
                 const float *a_scale, const float *b_scale,
                 const float *bias)
{
    __m512i acc[kGemmTileM][2];
    for (std::size_t r = 0; r < kGemmTileM; ++r) {
        acc[r][0] = _mm512_setzero_si512();
        acc[r][1] = _mm512_setzero_si512();
    }

    for (std::size_t kp = 0; kp < kp_count; ++kp) {
        const std::int16_t *brow = bp + (kp * n + j0) * 2;
        const __m512i bv0 = _mm512_loadu_si512(brow);
        const __m512i bv1 = _mm512_loadu_si512(brow + 32);
        for (std::size_t r = 0; r < kGemmTileM; ++r) {
            int pair;
            std::memcpy(&pair, arow[r] + 2 * kp, sizeof(pair));
            const __m512i av = _mm512_set1_epi32(pair);
            acc[r][0] = _mm512_dpwssd_epi32(acc[r][0], av, bv0);
            acc[r][1] = _mm512_dpwssd_epi32(acc[r][1], av, bv1);
        }
    }

    alignas(64) std::int32_t lanes[16];
    for (std::size_t r = 0; r < kGemmTileM; ++r) {
        for (std::size_t v = 0; v < 2; ++v) {
            _mm512_store_si512(lanes, acc[r][v]);
            const std::size_t jb = j0 + v * 16;
            for (std::size_t j = 0; j < 16; ++j)
                c[(i0 + r) * n + jb + j] =
                    dequantInt8(lanes[j], a_scale[i0 + r],
                                b_scale[jb + j],
                                bias ? bias[jb + j] : 0.0f);
        }
    }
}

#define FABNET_KV_WIDE_I8_TILE 1
#endif // FABNET_KV_VNNI

#if FABNET_KV_WIDE_I8_TILE
/** Workspace tag for the per-chunk int16-widened A rows. */
struct GemmInt8AWideWs;
#endif

void
gemmInt8(const std::int8_t *a, const std::int16_t *bp, float *c,
         std::size_t r0, std::size_t r1, std::size_t k, std::size_t n,
         const float *a_scale, const float *b_scale, const float *bias)
{
#if FABNET_KV_WIDE_I8_TILE
    const std::size_t kp_count = (k + 1) / 2;
    // Widen this chunk's A rows to int16 pairs once (zero-padded odd
    // k), so the vector tiles broadcast a pair with a single int32
    // load. Pure widening: the accumulated integers are unchanged.
    std::int16_t *a16 =
        threadWorkspaceAs<GemmInt8AWideWs, std::int16_t>(
            (r1 - r0) * kp_count * 2);
    for (std::size_t i = r0; i < r1; ++i) {
        std::int16_t *dst = a16 + (i - r0) * kp_count * 2;
        const std::int8_t *src = a + i * k;
        for (std::size_t kk = 0; kk < k; ++kk)
            dst[kk] = src[kk];
        if (k & 1)
            dst[k] = 0;
    }
#endif
    for (std::size_t i = r0; i < r1; i += kGemmTileM) {
        const std::size_t mr = (i + kGemmTileM <= r1) ? kGemmTileM
                                                      : r1 - i;
        std::size_t j = 0;
#if FABNET_KV_WIDE_I8_TILE
        if (mr == kGemmTileM) {
            const std::int16_t *arow[kGemmTileM];
            for (std::size_t r = 0; r < kGemmTileM; ++r)
                arow[r] = a16 + (i + r - r0) * kp_count * 2;
            for (; j + kGemmTileN <= n; j += kGemmTileN)
                gemmTileInt8Wide(arow, bp, c, i, j, kp_count, n,
                                 a_scale, b_scale, bias);
        }
#endif
        for (; j < n; j += kGemmTileN) {
            const std::size_t jn =
                (j + kGemmTileN <= n) ? kGemmTileN : n - j;
            gemmTileInt8Scalar(a, bp, c, i, mr, j, jn, k, n, a_scale,
                               b_scale, bias);
        }
    }
}

// --------------------------------------------------- row reductions

/** Largest |x| over @p n contiguous floats. (Max is commutative and
 *  associative on the non-NaN data the kernels see, so the vectorised
 *  reduction returns the same value as the scalar loop.) */
float
maxAbsRow(const float *x, std::size_t n)
{
    float m = 0.0f;
    std::size_t i = 0;
#if FABNET_KV_AVX512
    if (n >= 16) {
        const __m512 absmask =
            _mm512_castsi512_ps(_mm512_set1_epi32(0x7FFFFFFF));
        __m512 vm = _mm512_setzero_ps();
        for (; i + 16 <= n; i += 16)
            vm = _mm512_max_ps(
                vm, _mm512_and_ps(_mm512_loadu_ps(x + i), absmask));
        m = _mm512_reduce_max_ps(vm);
    }
#elif FABNET_KV_AVX2
    if (n >= 8) {
        const __m256 absmask =
            _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
        __m256 vm = _mm256_setzero_ps();
        for (; i + 8 <= n; i += 8)
            vm = _mm256_max_ps(
                vm, _mm256_and_ps(_mm256_loadu_ps(x + i), absmask));
        __m128 lo = _mm256_castps256_ps128(vm);
        __m128 hi = _mm256_extractf128_ps(vm, 1);
        __m128 v4 = _mm_max_ps(lo, hi);
        v4 = _mm_max_ps(v4, _mm_movehl_ps(v4, v4));
        v4 = _mm_max_ss(v4, _mm_shuffle_ps(v4, v4, 0x1));
        m = _mm_cvtss_f32(v4);
    }
#endif
    for (; i < n; ++i)
        m = std::max(m, std::fabs(x[i]));
    return m;
}

#if FABNET_KV_AVX512
/** The tail of quantizeInt8 over 16 lanes of products @p p: RNE
 *  conversion (lrintf's rounding) and the [-127, 127] clamp, stored
 *  as int8 codes (vpmovsdb alone would saturate to -128, so the clamp
 *  is explicit). */
inline void
storeInt8Lanes(std::int8_t *q, __m512 p)
{
    const __m512i lo = _mm512_set1_epi32(-kInt8Max);
    const __m512i hi = _mm512_set1_epi32(kInt8Max);
    __m512i r = _mm512_cvtps_epi32(p);
    r = _mm512_min_epi32(_mm512_max_epi32(r, lo), hi);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(q),
                     _mm512_cvtsepi32_epi8(r));
}

/** 16-lane quantizeInt8 (same product rounding, RNE conversion and
 *  clamp as the scalar helper). */
inline void
quantizeInt8Lanes(const float *x, std::int8_t *q, __m512 vinv)
{
    storeInt8Lanes(q, _mm512_mul_ps(_mm512_loadu_ps(x), vinv));
}
#elif FABNET_KV_AVX2
/** storeInt8Lanes on two 8-lane halves (lanes 0-7 in @p p0, 8-15 in
 *  @p p1): RNE conversion, clamp, then in-order narrowing (the packs
 *  never saturate after the clamp). */
inline void
storeInt8Lanes(std::int8_t *q, __m256 p0, __m256 p1)
{
    const __m256i lo = _mm256_set1_epi32(-kInt8Max);
    const __m256i hi = _mm256_set1_epi32(kInt8Max);
    const __m256i r0 =
        _mm256_min_epi32(_mm256_max_epi32(_mm256_cvtps_epi32(p0), lo), hi);
    const __m256i r1 =
        _mm256_min_epi32(_mm256_max_epi32(_mm256_cvtps_epi32(p1), lo), hi);
    // packs_epi32 interleaves 128-bit halves; 0xD8 restores lane order.
    const __m256i w16 =
        _mm256_permute4x64_epi64(_mm256_packs_epi32(r0, r1), 0xD8);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(q),
                     _mm_packs_epi16(_mm256_castsi256_si128(w16),
                                     _mm256_extracti128_si256(w16, 1)));
}
#endif

void
quantizeInt8RowInv(const float *x, std::int8_t *q, std::size_t n,
                   float inv)
{
    std::size_t i = 0;
#if FABNET_KV_AVX512
    const __m512 vinv = _mm512_set1_ps(inv);
    for (; i + 16 <= n; i += 16)
        quantizeInt8Lanes(x + i, q + i, vinv);
#endif
    for (; i < n; ++i)
        q[i] = quantizeInt8(x[i], inv);
}

void
quantizeInt8RowPerColInv(const float *x, std::int8_t *q, std::size_t n,
                         const float *inv)
{
    std::size_t i = 0;
#if FABNET_KV_AVX512
    const __m512i lo = _mm512_set1_epi32(-kInt8Max);
    const __m512i hi = _mm512_set1_epi32(kInt8Max);
    for (; i + 16 <= n; i += 16) {
        __m512i r = _mm512_cvtps_epi32(_mm512_mul_ps(
            _mm512_loadu_ps(x + i), _mm512_loadu_ps(inv + i)));
        r = _mm512_min_epi32(_mm512_max_epi32(r, lo), hi);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(q + i),
                         _mm512_cvtsepi32_epi8(r));
    }
#endif
    for (; i < n; ++i)
        q[i] = quantizeInt8(x[i], inv[i]);
}

// --------------------------------------------------- binary16 rows

// The row conversion helpers use the F16C units (vcvtps2ph/vcvtph2ps)
// when this variant may: hardware round-to-nearest-even float<->
// binary16 conversion is bit-identical to the software conversion in
// tensor/half.h for all finite values and infinities (pinned by
// tests/quantize_golden_test.cpp), and turns the fp16 operand
// rounding from the dominant cost of the fp16 GEMM into noise.

void
roundRowToHalfV(float *x, std::size_t n)
{
    std::size_t i = 0;
#if FABNET_KV_F16C
    for (; i + 8 <= n; i += 8) {
        const __m128i h = _mm256_cvtps_ph(
            _mm256_loadu_ps(x + i),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
        _mm256_storeu_ps(x + i, _mm256_cvtph_ps(h));
    }
#endif
    for (; i < n; ++i)
        x[i] = roundToHalf(x[i]);
}

void
halfBitsToFloatRowV(const std::uint16_t *h, float *f, std::size_t n)
{
    std::size_t i = 0;
#if FABNET_KV_F16C
    for (; i + 8 <= n; i += 8) {
        const __m128i bits =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(h + i));
        _mm256_storeu_ps(f + i, _mm256_cvtph_ps(bits));
    }
#endif
    for (; i < n; ++i)
        f[i] = halfBitsToFloat(h[i]);
}

void
floatToHalfBitsRowV(const float *f, std::uint16_t *h, std::size_t n)
{
    std::size_t i = 0;
#if FABNET_KV_F16C
    for (; i + 8 <= n; i += 8) {
        const __m128i bits = _mm256_cvtps_ph(
            _mm256_loadu_ps(f + i),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(h + i), bits);
    }
#endif
    for (; i < n; ++i)
        h[i] = floatToHalfBits(f[i]);
}

// ------------------------------------------------ transcendental rows
// expPinned and geluPinned (kernels_common.h) replayed lane by lane:
// the same out-of-range substitution, reduction, polynomial,
// exponent-bit scaling and selects, each op the IEEE vector form of
// the scalar one (mul + add, never FMA), so every lane equals the
// scalar function. The tails and
// the scalar table run the scalar form, which is branch-free and
// vectorises at the baseline ISA.

#if FABNET_KV_AVX512
inline __m512
pow2i16(__m512i n)
{
    return _mm512_castsi512_ps(_mm512_slli_epi32(
        _mm512_add_epi32(n, _mm512_set1_epi32(127)), 23));
}

inline __m512
expPinned16(__m512 x)
{
    const __m512 lo = _mm512_set1_ps(kExpLo);
    const __m512 hi = _mm512_set1_ps(kExpHi);
    const __m512 magic = _mm512_set1_ps(kRoundMagic);
    const __m512 xc = _mm512_maskz_mov_ps(
        _mm512_cmp_ps_mask(x, lo, _CMP_GE_OQ) &
            _mm512_cmp_ps_mask(x, hi, _CMP_LE_OQ),
        x);
    const __m512 nf = _mm512_sub_ps(
        _mm512_add_ps(_mm512_mul_ps(xc, _mm512_set1_ps(kLog2e)), magic),
        magic);
    const __m512 r = _mm512_sub_ps(
        _mm512_sub_ps(xc, _mm512_mul_ps(nf, _mm512_set1_ps(kLn2Hi))),
        _mm512_mul_ps(nf, _mm512_set1_ps(kLn2Lo)));
    __m512 p = _mm512_set1_ps(kExpP0);
    for (const float c : {kExpP1, kExpP2, kExpP3, kExpP4, kExpP5})
        p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(c));
    __m512 y = _mm512_add_ps(
        _mm512_add_ps(_mm512_mul_ps(p, _mm512_mul_ps(r, r)), r),
        _mm512_set1_ps(1.0f));
    const __m512i n = _mm512_cvttps_epi32(nf);
    const __m512i n1 = _mm512_srai_epi32(n, 1);
    y = _mm512_mul_ps(_mm512_mul_ps(y, pow2i16(n1)),
                      pow2i16(_mm512_sub_epi32(n, n1)));
    y = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(x, lo, _CMP_LT_OQ), y,
                             _mm512_setzero_ps());
    y = _mm512_mask_blend_ps(
        _mm512_cmp_ps_mask(x, hi, _CMP_GT_OQ), y,
        _mm512_set1_ps(std::numeric_limits<float>::infinity()));
    return _mm512_mask_blend_ps(_mm512_cmp_ps_mask(x, x, _CMP_UNORD_Q), y,
                                x);
}

inline __m512
geluPinned16(__m512 v)
{
    const __m512 v3 = _mm512_mul_ps(
        _mm512_mul_ps(_mm512_mul_ps(_mm512_set1_ps(0.044715f), v), v), v);
    const __m512 u =
        _mm512_mul_ps(_mm512_set1_ps(kGeluK), _mm512_add_ps(v, v3));
    const __m512 e = expPinned16(_mm512_mul_ps(_mm512_set1_ps(-2.0f), u));
    return _mm512_div_ps(v, _mm512_add_ps(_mm512_set1_ps(1.0f), e));
}
#elif FABNET_KV_AVX2
inline __m256
pow2i8(__m256i n)
{
    return _mm256_castsi256_ps(_mm256_slli_epi32(
        _mm256_add_epi32(n, _mm256_set1_epi32(127)), 23));
}

inline __m256
expPinned8(__m256 x)
{
    const __m256 lo = _mm256_set1_ps(kExpLo);
    const __m256 hi = _mm256_set1_ps(kExpHi);
    const __m256 magic = _mm256_set1_ps(kRoundMagic);
    const __m256 xc = _mm256_and_ps(
        _mm256_and_ps(_mm256_cmp_ps(x, lo, _CMP_GE_OQ),
                      _mm256_cmp_ps(x, hi, _CMP_LE_OQ)),
        x);
    const __m256 nf = _mm256_sub_ps(
        _mm256_add_ps(_mm256_mul_ps(xc, _mm256_set1_ps(kLog2e)), magic),
        magic);
    const __m256 r = _mm256_sub_ps(
        _mm256_sub_ps(xc, _mm256_mul_ps(nf, _mm256_set1_ps(kLn2Hi))),
        _mm256_mul_ps(nf, _mm256_set1_ps(kLn2Lo)));
    __m256 p = _mm256_set1_ps(kExpP0);
    for (const float c : {kExpP1, kExpP2, kExpP3, kExpP4, kExpP5})
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(c));
    __m256 y = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(p, _mm256_mul_ps(r, r)), r),
        _mm256_set1_ps(1.0f));
    const __m256i n = _mm256_cvttps_epi32(nf);
    const __m256i n1 = _mm256_srai_epi32(n, 1);
    y = _mm256_mul_ps(_mm256_mul_ps(y, pow2i8(n1)),
                      pow2i8(_mm256_sub_epi32(n, n1)));
    y = _mm256_blendv_ps(y, _mm256_setzero_ps(),
                         _mm256_cmp_ps(x, lo, _CMP_LT_OQ));
    y = _mm256_blendv_ps(
        y, _mm256_set1_ps(std::numeric_limits<float>::infinity()),
        _mm256_cmp_ps(x, hi, _CMP_GT_OQ));
    return _mm256_blendv_ps(y, x, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
}

inline __m256
geluPinned8(__m256 v)
{
    const __m256 v3 = _mm256_mul_ps(
        _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.044715f), v), v), v);
    const __m256 u =
        _mm256_mul_ps(_mm256_set1_ps(kGeluK), _mm256_add_ps(v, v3));
    const __m256 e = expPinned8(_mm256_mul_ps(_mm256_set1_ps(-2.0f), u));
    return _mm256_div_ps(v, _mm256_add_ps(_mm256_set1_ps(1.0f), e));
}
#endif

void
geluRow(const float *x, float *y, std::size_t n)
{
    std::size_t i = 0;
#if FABNET_KV_AVX512
    for (; i + 16 <= n; i += 16)
        _mm512_storeu_ps(y + i, geluPinned16(_mm512_loadu_ps(x + i)));
#elif FABNET_KV_AVX2
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(y + i, geluPinned8(_mm256_loadu_ps(x + i)));
#endif
    for (; i < n; ++i)
        y[i] = geluPinned(x[i]);
}

/**
 * The pinned softmax chain, in place: s *= scale and the max from
 * -1e30f (max is exact in any order, so this pass runs lane-parallel;
 * NaN scores never become the max, as in std::max), then
 * e = expPinned(s - max), the denominator summed serially in ascending
 * order, and s * (1 / denominator); a NaN denominator yields a row of
 * quiet NaNs.
 */
void
softmaxRowV(float *s, std::size_t n, float scale)
{
    std::size_t j = 0;
    float mx = -1e30f;
#if FABNET_KV_AVX512
    const __m512 vs = _mm512_set1_ps(scale);
    __m512 vm = _mm512_set1_ps(-1e30f);
    for (; j + 16 <= n; j += 16) {
        const __m512 v = _mm512_mul_ps(_mm512_loadu_ps(s + j), vs);
        _mm512_storeu_ps(s + j, v);
        vm = _mm512_max_ps(v, vm);
    }
    mx = _mm512_reduce_max_ps(vm);
#elif FABNET_KV_AVX2
    const __m256 vs = _mm256_set1_ps(scale);
    __m256 vm = _mm256_set1_ps(-1e30f);
    for (; j + 8 <= n; j += 8) {
        const __m256 v = _mm256_mul_ps(_mm256_loadu_ps(s + j), vs);
        _mm256_storeu_ps(s + j, v);
        vm = _mm256_max_ps(v, vm);
    }
    alignas(32) float m8[8];
    _mm256_store_ps(m8, vm);
    for (const float m : m8)
        mx = std::max(mx, m);
#else
    // Sixteen running maxima. The inner loop must stay a loop - fully
    // unrolled into sixteen selects, GCC no longer vectorises it.
    float m16[16];
    std::fill(m16, m16 + 16, -1e30f);
    for (; j + 16 <= n; j += 16) {
#pragma GCC unroll 1
        for (std::size_t k = 0; k < 16; ++k) {
            const float v = s[j + k] * scale;
            s[j + k] = v;
            m16[k] = std::max(m16[k], v);
        }
    }
    for (const float m : m16)
        mx = std::max(mx, m);
#endif
    for (; j < n; ++j) {
        s[j] *= scale;
        mx = std::max(mx, s[j]);
    }
    j = 0;
#if FABNET_KV_AVX512
    const __m512 vmx = _mm512_set1_ps(mx);
    for (; j + 16 <= n; j += 16)
        _mm512_storeu_ps(s + j, expPinned16(_mm512_sub_ps(
                                    _mm512_loadu_ps(s + j), vmx)));
#elif FABNET_KV_AVX2
    const __m256 vmx = _mm256_set1_ps(mx);
    for (; j + 8 <= n; j += 8)
        _mm256_storeu_ps(s + j, expPinned8(_mm256_sub_ps(
                                    _mm256_loadu_ps(s + j), vmx)));
#endif
    for (; j < n; ++j)
        s[j] = expPinned(s[j] - mx);
    float denom = 0.0f;
    for (j = 0; j < n; ++j)
        denom += s[j];
    // A NaN or +inf score makes the denominator NaN and every output
    // NaN. Give them one payload: x86 returns the first of two NaN
    // operands, and the compiler may order s * inv either way.
    if (denom != denom) {
        std::fill(s, s + n, std::numeric_limits<float>::quiet_NaN());
        return;
    }
    const float inv = 1.0f / denom;
    for (j = 0; j < n; ++j)
        s[j] = s[j] * inv;
}

// ------------------------------------------------- butterfly stages
// Every stage-major block is exactly kLanes = runtime::kBflyBlockRows
// (16) lanes wide, one activation row per lane. The edge kernels take
// the valid-row count nb, touch only those rows and zero-fill lanes
// nb..15 on the way in; the stage kernels never see a row count, so
// every loop in them has a compile-time width. Lanes never interact
// and a zero lane stays zero (fp32/fp16: w*0 + w'*0 is +-0; int8: a
// zero-max lane keeps scale 0 and zero codes), so each valid lane of
// a padded tail block runs exactly the expression chain of a full one.

constexpr std::size_t kLanes = kBflyBlockRows;

/**
 * One fp32 butterfly stage over a transposed [n, 16] block, in place:
 * pair (i1, i2) only reads its own two lanes, so the update needs no
 * second buffer.
 */
void
bflyStage(float *buf, const float *wp, std::size_t n, std::size_t h)
{
    for (std::size_t base = 0; base < n; base += 2 * h) {
        for (std::size_t j = 0; j < h; ++j, wp += 4) {
            const float w0 = wp[0], w1 = wp[1], w2 = wp[2], w3 = wp[3];
            float *x1 = buf + (base + j) * kLanes;
            float *x2 = x1 + h * kLanes;
            // Stage through non-escaping locals: frees the compiler
            // from the (unprovable) x1/x2 overlap question, so all
            // four loops vectorise cleanly.
            float a[kLanes], bv[kLanes];
            for (std::size_t r = 0; r < kLanes; ++r) {
                a[r] = x1[r];
                bv[r] = x2[r];
            }
            for (std::size_t r = 0; r < kLanes; ++r)
                x1[r] = madd(w0, a[r], w1 * bv[r]);
            for (std::size_t r = 0; r < kLanes; ++r)
                x2[r] = madd(w2, a[r], w3 * bv[r]);
        }
    }
}

#if FABNET_KV_AVX512
/**
 * 16-lane fp16 pair op: mul+add (the pinned madd contraction) plus
 * hardware binary16 round - the exact vector form of f16PairOut, so
 * the vectorised block path stays bitwise equal to the scalar
 * reference.
 */
inline void
f16PairSweepLanes16(float *x1, float *x2, float w0, float w1, float w2,
                    float w3)
{
    const __m512 a = _mm512_loadu_ps(x1);
    const __m512 b = _mm512_loadu_ps(x2);
    const __m512 y1 =
        _mm512_add_ps(_mm512_mul_ps(_mm512_set1_ps(w0), a),
                      _mm512_mul_ps(_mm512_set1_ps(w1), b));
    const __m512 y2 =
        _mm512_add_ps(_mm512_mul_ps(_mm512_set1_ps(w2), a),
                      _mm512_mul_ps(_mm512_set1_ps(w3), b));
    constexpr int rne = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
    _mm512_storeu_ps(x1, _mm512_cvtph_ps(_mm512_cvtps_ph(y1, rne)));
    _mm512_storeu_ps(x2, _mm512_cvtph_ps(_mm512_cvtps_ph(y2, rne)));
}
#elif FABNET_KV_F16C
/** 8-lane form of f16PairSweepLanes16 (F16C without AVX-512). */
inline void
f16PairSweepLanes8(float *x1, float *x2, float w0, float w1, float w2,
                   float w3)
{
    const __m256 a = _mm256_loadu_ps(x1);
    const __m256 b = _mm256_loadu_ps(x2);
    const __m256 y1 =
        _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(w0), a),
                      _mm256_mul_ps(_mm256_set1_ps(w1), b));
    const __m256 y2 =
        _mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(w2), a),
                      _mm256_mul_ps(_mm256_set1_ps(w3), b));
    constexpr int rne = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;
    _mm256_storeu_ps(x1, _mm256_cvtph_ps(_mm256_cvtps_ph(y1, rne)));
    _mm256_storeu_ps(x2, _mm256_cvtph_ps(_mm256_cvtps_ph(y2, rne)));
}
#endif

/** f16PairOut, skipping the software binary16 round of a zero sum
 *  (padding lanes): roundToHalf(+-0) is +-0, so the bits match. */
inline float
f16PairOutLane(float w0, float x1, float w1, float x2)
{
    const float y = madd(w0, x1, w1 * x2);
    return y == 0.0f ? y : roundToHalf(y);
}

void
qbflyF16Stage(float *buf, const float *wp, std::size_t n, std::size_t h)
{
    for (std::size_t base = 0; base < n; base += 2 * h) {
        for (std::size_t j = 0; j < h; ++j, wp += 4) {
            float *x1 = buf + (base + j) * kLanes;
            float *x2 = x1 + h * kLanes;
            const float w0 = wp[0], w1 = wp[1];
            const float w2 = wp[2], w3 = wp[3];
#if FABNET_KV_AVX512
            f16PairSweepLanes16(x1, x2, w0, w1, w2, w3);
#elif FABNET_KV_F16C
            f16PairSweepLanes8(x1, x2, w0, w1, w2, w3);
            f16PairSweepLanes8(x1 + 8, x2 + 8, w0, w1, w2, w3);
#else
            for (std::size_t r = 0; r < kLanes; ++r) {
                const float a = x1[r], b = x2[r];
                x1[r] = f16PairOutLane(w0, a, w1, b);
                x2[r] = f16PairOutLane(w2, a, w3, b);
            }
#endif
        }
    }
}

void
qbflyI8Stage(const std::int8_t *q, std::int16_t *y, const std::int8_t *w,
             std::size_t n, std::size_t h)
{
    // Codes and weights lie in [-127, 127], so every output obeys
    // |w*a + w'*b| <= 2*127^2 = 32258 < 2^15: the pair op is exact in
    // int16 lanes, products and sum alike.
    for (std::size_t base = 0; base < n; base += 2 * h) {
        for (std::size_t j = 0; j < h; ++j, w += 4) {
            const std::int8_t *x1 = q + (base + j) * kLanes;
            const std::int8_t *x2 = x1 + h * kLanes;
            std::int16_t *y1 = y + (base + j) * kLanes;
            std::int16_t *y2 = y1 + h * kLanes;
#if FABNET_KV_AVX2
            const __m256i a = _mm256_cvtepi8_epi16(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(x1)));
            const __m256i b = _mm256_cvtepi8_epi16(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(x2)));
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(y1),
                _mm256_add_epi16(
                    _mm256_mullo_epi16(_mm256_set1_epi16(w[0]), a),
                    _mm256_mullo_epi16(_mm256_set1_epi16(w[1]), b)));
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(y2),
                _mm256_add_epi16(
                    _mm256_mullo_epi16(_mm256_set1_epi16(w[2]), a),
                    _mm256_mullo_epi16(_mm256_set1_epi16(w[3]), b)));
#else
            // int16 operands, so the lane loop vectorises as 16-bit
            // multiplies even at the baseline ISA.
            const std::int16_t w0 = w[0], w1 = w[1];
            const std::int16_t w2 = w[2], w3 = w[3];
            for (std::size_t r = 0; r < kLanes; ++r) {
                const std::int16_t a = x1[r], b = x2[r];
                y1[r] = static_cast<std::int16_t>(w0 * a + w1 * b);
                y2[r] = static_cast<std::int16_t>(w2 * a + w3 * b);
            }
#endif
        }
    }
}

void
qbflyI8Requant(const std::int16_t *y, std::int8_t *q, float *scale,
               float wscale_s, std::size_t n)
{
    // Lane-parallel requantisation: the per-row max and the
    // round/clamp run vertically over the block. A zero-max lane gets
    // factor 0.0, which maps its (all-zero) outputs to exact zeros and
    // leaves its scale alone, exactly like int8StagesRow.
    alignas(64) std::int32_t m[kLanes] = {};
    alignas(64) float f[kLanes] = {};
#if FABNET_KV_AVX2
    // |y| <= 32258, so the int16 abs cannot overflow.
    __m256i vm = _mm256_setzero_si256();
    for (std::size_t i = 0; i < n; ++i)
        vm = _mm256_max_epi16(
            vm, _mm256_abs_epi16(_mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(y + i * kLanes))));
    alignas(32) std::int16_t m16[kLanes] = {};
    _mm256_store_si256(reinterpret_cast<__m256i *>(m16), vm);
    for (std::size_t r = 0; r < kLanes; ++r)
        m[r] = m16[r];
#else
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t r = 0; r < kLanes; ++r) {
            const std::int32_t v = y[i * kLanes + r];
            const std::int32_t a = v < 0 ? -v : v;
            m[r] = a > m[r] ? a : m[r];
        }
    }
#endif
    for (std::size_t r = 0; r < kLanes; ++r)
        f[r] = m[r] != 0 ? static_cast<float>(kInt8Max) /
                               static_cast<float>(m[r])
                         : 0.0f;
    // requantInt8 per element: the exact float of y times f, then
    // storeInt8Lanes' RNE conversion and clamp.
#if FABNET_KV_AVX512
    const __m512 vf = _mm512_load_ps(f);
    for (std::size_t i = 0; i < n; ++i)
        storeInt8Lanes(
            q + i * kLanes,
            _mm512_mul_ps(
                _mm512_cvtepi32_ps(_mm512_cvtepi16_epi32(
                    _mm256_loadu_si256(reinterpret_cast<const __m256i *>(
                        y + i * kLanes)))),
                vf));
#elif FABNET_KV_AVX2
    const __m256 vf0 = _mm256_load_ps(f);
    const __m256 vf1 = _mm256_load_ps(f + 8);
    for (std::size_t i = 0; i < n; ++i) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(y + i * kLanes));
        storeInt8Lanes(
            q + i * kLanes,
            _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(
                              _mm256_castsi256_si128(v))),
                          vf0),
            _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_cvtepi16_epi32(
                              _mm256_extracti128_si256(v, 1))),
                          vf1));
    }
#else
    // A zero-max lane's outputs are all zero: skip its lrintf calls.
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t r = 0; r < kLanes; ++r)
            q[i * kLanes + r] =
                m[r] != 0 ? requantInt8(y[i * kLanes + r], f[r]) : 0;
#endif
    for (std::size_t r = 0; r < kLanes; ++r)
        if (m[r] != 0)
            scale[r] = int8StageScale(scale[r], wscale_s, m[r]);
}

// ------------------------------------------- block edge kernels
// Data movement between nb row-major rows and one stage-major block
// (plus the pinned per-element rounding / quantisation expressions
// where noted). In the table (rather than at the call sites) because
// the sweeps only vectorise with the variant's flags, and at fp32
// butterfly speeds an unvectorised transpose costs more than the
// stages themselves.

#if FABNET_KV_AVX2
/** In-register transpose of an 8x8 float tile: on return r[k] holds
 *  what was column k. */
inline void
transpose8x8(__m256 r[8])
{
    __m256 t[8], s[8];
    for (int k = 0; k < 8; k += 2) {
        t[k] = _mm256_unpacklo_ps(r[k], r[k + 1]);
        t[k + 1] = _mm256_unpackhi_ps(r[k], r[k + 1]);
    }
    for (int k = 0; k < 8; k += 4) {
        s[k] = _mm256_shuffle_ps(t[k], t[k + 2], _MM_SHUFFLE(1, 0, 1, 0));
        s[k + 1] =
            _mm256_shuffle_ps(t[k], t[k + 2], _MM_SHUFFLE(3, 2, 3, 2));
        s[k + 2] =
            _mm256_shuffle_ps(t[k + 1], t[k + 3], _MM_SHUFFLE(1, 0, 1, 0));
        s[k + 3] =
            _mm256_shuffle_ps(t[k + 1], t[k + 3], _MM_SHUFFLE(3, 2, 3, 2));
    }
    for (int k = 0; k < 4; ++k) {
        r[k] = _mm256_permute2f128_ps(s[k], s[k + 4], 0x20);
        r[k + 4] = _mm256_permute2f128_ps(s[k], s[k + 4], 0x31);
    }
}

/**
 * The 8x8-tiled transposed block load shared by the fp32 and fp16
 * block loads: op maps each loaded source-row vector (identity, or
 * the binary16 round); padding rows load as zeros. Lane groups are
 * outermost (see storeBlockTiles). Returns the first block row it did
 * not cover.
 */
template <class Op>
inline std::size_t
loadBlockTiles(const float *src, float *buf, std::size_t n,
               std::size_t nb, std::size_t stride, const Op &op)
{
    const std::size_t n8 = n - n % 8;
    for (std::size_t r0 = 0; r0 < kLanes; r0 += 8) {
        for (std::size_t i = 0; i < n8; i += 8) {
            __m256 t[8];
            for (std::size_t k = 0; k < 8; ++k)
                t[k] = r0 + k < nb
                           ? op(_mm256_loadu_ps(src + (r0 + k) * stride + i))
                           : _mm256_setzero_ps();
            transpose8x8(t);
            for (std::size_t k = 0; k < 8; ++k)
                _mm256_storeu_ps(buf + (i + k) * kLanes + r0, t[k]);
        }
    }
    return n8;
}
#endif

void
bflyTransposeIn(const float *src, float *buf, std::size_t n,
                std::size_t nb, std::size_t stride)
{
    std::size_t i = 0;
#if FABNET_KV_AVX2
    i = loadBlockTiles(src, buf, n, nb, stride, [](__m256 v) { return v; });
#endif
    for (; i < n; ++i)
        for (std::size_t r = 0; r < kLanes; ++r)
            buf[i * kLanes + r] = r < nb ? src[r * stride + i] : 0.0f;
}

#if FABNET_KV_AVX2
/**
 * The 8x8-tiled transposed block store shared by the fp32 and int8
 * block stores: load8(i, r0) returns lanes r0..r0+7 of block row i as
 * floats; each tile is transposed in registers and its rows below nb
 * stored. Returns the first block row it did not cover.
 */
template <class Load8>
inline std::size_t
storeBlockTiles(float *dst, std::size_t n, std::size_t nb,
                std::size_t stride, const Load8 &load8)
{
    // Lane groups outermost: at most 8 destination rows are live at a
    // time, so rows 4 KiB apart (a 1024-point core) do not evict each
    // other's lines from one L1 set before they are complete.
    const std::size_t n8 = n - n % 8;
    for (std::size_t r0 = 0; r0 < nb; r0 += 8) {
        for (std::size_t i = 0; i < n8; i += 8) {
            __m256 t[8];
            for (std::size_t k = 0; k < 8; ++k)
                t[k] = load8(i + k, r0);
            transpose8x8(t);
            for (std::size_t k = 0; k < 8 && r0 + k < nb; ++k)
                _mm256_storeu_ps(dst + (r0 + k) * stride + i, t[k]);
        }
    }
    return n8;
}
#endif

void
bflyTransposeOut(const float *buf, float *dst, std::size_t n,
                 std::size_t nb, std::size_t stride)
{
    std::size_t i = 0;
#if FABNET_KV_AVX2
    i = storeBlockTiles(dst, n, nb, stride,
                        [&](std::size_t row, std::size_t r0) {
                            return _mm256_loadu_ps(buf + row * kLanes + r0);
                        });
#endif
    for (; i < n; ++i)
        for (std::size_t r = 0; r < nb; ++r)
            dst[r * stride + i] = buf[i * kLanes + r];
}

void
qbflyF16TransposeIn(const float *src, float *buf, std::size_t n,
                    std::size_t nb, std::size_t stride)
{
    // Every operand through the pinned binary16 round (F16C when the
    // variant has it - the same RNE round as roundToHalf, pinned by
    // tests/quantize_golden_test.cpp); padding lanes are +0.0.
    std::size_t i = 0;
#if FABNET_KV_AVX2 && FABNET_KV_F16C
    i = loadBlockTiles(src, buf, n, nb, stride, [](__m256 v) {
        return _mm256_cvtph_ps(_mm256_cvtps_ph(
            v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
    });
#endif
    for (; i < n; ++i)
        for (std::size_t r = 0; r < kLanes; ++r)
            buf[i * kLanes + r] =
                r < nb ? roundToHalf(src[r * stride + i]) : 0.0f;
}

/** Workspace tag of qbflyI8QuantIn's transposed float block. */
struct QuantInWs;

void
qbflyI8QuantIn(const float *src, std::int8_t *q, float *scale,
               std::size_t n, std::size_t nb, std::size_t stride)
{
    // Lane-parallel: transpose the rows into a float block first
    // (padding lanes zero), so the per-row max and the quantisation
    // run vertically over contiguous 16-lane vectors. Max is exact in
    // any order; each element then takes the pinned quantizeInt8 of
    // the row's 1/int8Scale(max) - the int8StagesRow load semantics.
    float *t = threadWorkspace<QuantInWs>(n * kLanes);
    bflyTransposeIn(src, t, n, nb, stride);
    alignas(64) float m[kLanes] = {};
    alignas(64) float inv[kLanes] = {};
#if FABNET_KV_AVX2
    const __m256 absmask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
    __m256 vm0 = _mm256_setzero_ps(), vm1 = _mm256_setzero_ps();
    for (std::size_t i = 0; i < n; ++i) {
        vm0 = _mm256_max_ps(
            vm0, _mm256_and_ps(_mm256_loadu_ps(t + i * kLanes), absmask));
        vm1 = _mm256_max_ps(vm1, _mm256_and_ps(
                                     _mm256_loadu_ps(t + i * kLanes + 8),
                                     absmask));
    }
    _mm256_store_ps(m, vm0);
    _mm256_store_ps(m + 8, vm1);
#else
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t r = 0; r < kLanes; ++r)
            m[r] = std::max(m[r], std::fabs(t[i * kLanes + r]));
#endif
    for (std::size_t r = 0; r < kLanes; ++r) {
        // An all-zero row gets scale 0 (it dequantises to exact zeros
        // on the way out) and inverse 0 (its +-0 inputs map to zero
        // codes).
        scale[r] = m[r] != 0.0f ? int8Scale(m[r]) : 0.0f;
        inv[r] = m[r] != 0.0f ? 1.0f / scale[r] : 0.0f;
    }
#if FABNET_KV_AVX512
    const __m512 vinv = _mm512_load_ps(inv);
    for (std::size_t i = 0; i < n; ++i)
        quantizeInt8Lanes(t + i * kLanes, q + i * kLanes, vinv);
#elif FABNET_KV_AVX2
    const __m256 vinv0 = _mm256_load_ps(inv);
    const __m256 vinv1 = _mm256_load_ps(inv + 8);
    for (std::size_t i = 0; i < n; ++i)
        storeInt8Lanes(
            q + i * kLanes,
            _mm256_mul_ps(_mm256_loadu_ps(t + i * kLanes), vinv0),
            _mm256_mul_ps(_mm256_loadu_ps(t + i * kLanes + 8), vinv1));
#else
    // An all-zero lane's codes are zero: skip its lrintf calls.
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t r = 0; r < kLanes; ++r)
            q[i * kLanes + r] =
                m[r] != 0.0f ? quantizeInt8(t[i * kLanes + r], inv[r])
                             : 0;
#endif
}

void
qbflyI8DequantOut(const std::int8_t *q, const float *scale, float *dst,
                  std::size_t n, std::size_t nb, std::size_t stride)
{
    std::size_t i = 0;
#if FABNET_KV_AVX2
    // Dequantise inside the tiled store: codes widen to float and
    // take their lane's scale on the way into the register tile.
    const __m256 vs[2] = {_mm256_loadu_ps(scale),
                          _mm256_loadu_ps(scale + 8)};
    i = storeBlockTiles(
        dst, n, nb, stride, [&](std::size_t row, std::size_t r0) {
            const __m128i c = _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(q + row * kLanes + r0));
            return _mm256_mul_ps(
                _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(c)), vs[r0 / 8]);
        });
#endif
    for (; i < n; ++i)
        for (std::size_t r = 0; r < nb; ++r)
            dst[r * stride + i] =
                static_cast<float>(q[i * kLanes + r]) * scale[r];
}

} // namespace FABNET_KV_NS

const KernelTable &
FABNET_KV_EXPORT()
{
    static const KernelTable t = {
        FABNET_KV_ISA,
        isaName(FABNET_KV_ISA),
        &FABNET_KV_NS::gemmF32,
        &FABNET_KV_NS::gemmInt8,
        &FABNET_KV_NS::maxAbsRow,
        &FABNET_KV_NS::quantizeInt8RowInv,
        &FABNET_KV_NS::quantizeInt8RowPerColInv,
        &FABNET_KV_NS::roundRowToHalfV,
        &FABNET_KV_NS::halfBitsToFloatRowV,
        &FABNET_KV_NS::floatToHalfBitsRowV,
        &FABNET_KV_NS::geluRow,
        &FABNET_KV_NS::softmaxRowV,
        &FABNET_KV_NS::bflyStage,
        &FABNET_KV_NS::qbflyF16Stage,
        &FABNET_KV_NS::qbflyI8Stage,
        &FABNET_KV_NS::qbflyI8Requant,
        &FABNET_KV_NS::bflyTransposeIn,
        &FABNET_KV_NS::bflyTransposeOut,
        &FABNET_KV_NS::qbflyF16TransposeIn,
        &FABNET_KV_NS::qbflyI8QuantIn,
        &FABNET_KV_NS::qbflyI8DequantOut,
    };
    return t;
}

} // namespace runtime
} // namespace fabnet
