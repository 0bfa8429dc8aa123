/**
 * @file kernels_common.h
 * The ISA-independent kernel contract: every scalar expression whose
 * bit pattern the parity suites pin down lives here, included by the
 * base translation units AND by every compiled kernel variant
 * (kernels_impl.h), so all of them inline exactly the same code.
 *
 * Nothing in this header may depend on the compilation target's SIMD
 * feature macros. In particular madd() is pinned to plain mul+add in
 * every TU (the build adds -ffp-contract=off so no TU can re-fuse
 * it): a variant TU compiled with -mavx512f and a base TU compiled
 * for baseline x86-64 must agree bit for bit, which rules out letting
 * the contraction vary with the target the way __FP_FAST_FMAF does.
 */
#ifndef FABNET_RUNTIME_KERNELS_COMMON_H
#define FABNET_RUNTIME_KERNELS_COMMON_H

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "tensor/half.h"

namespace fabnet {
namespace runtime {

/**
 * Pinned multiply-add: a*b + c as two separately rounded operations.
 * Both the blocked kernels and the scalar reference paths accumulate
 * through this helper, and the build compiles every TU with
 * -ffp-contract=off, so the compiler cannot fuse one side and not the
 * other - the root requirement behind the bitwise-parity guarantee
 * across ISA variants of the same kernel.
 */
inline float
madd(float a, float b, float c)
{
    return a * b + c;
}

/** Column tile width of the GEMM micro-kernel (and the packed int8 B
 *  panel width). */
constexpr std::size_t kGemmTileN = 32;
/** Row tile height of the GEMM micro-kernel. */
constexpr std::size_t kGemmTileM = 4;
/** Rows per parallel chunk at every GEMM call site (a multiple of
 *  kGemmTileM). Tile and grain only partition work, never an output's
 *  accumulation chain, so neither can change a result. */
constexpr std::size_t kGemmRowGrain = 8;

/** Stage-major block width of the batched butterfly paths: callers
 *  (butterfly.cc, qbutterfly.cc) lay activations out as transposed
 *  [n, block] blocks of exactly this many lanes, zero-padded past the
 *  valid rows, and the dispatch-table stage sweeps run at this one
 *  width (one AVX-512 vector per pair op). */
constexpr std::size_t kBflyBlockRows = 16;

// ------------------------------------------------------------- int8

/** Symmetric int8 range: [-127, 127]. -128 is never produced, so the
 *  grid is symmetric and negation is exact. */
constexpr std::int32_t kInt8Max = 127;

/** Scale mapping one int8 step to @p max_abs / 127 (1.0 when the data
 *  is all zero, so dequantisation is still well-defined). */
inline float
int8Scale(float max_abs)
{
    return max_abs > 0.0f ? max_abs / static_cast<float>(kInt8Max)
                          : 1.0f;
}

/**
 * Quantise one value: round-to-nearest-even of x * inv_scale, clamped
 * (saturated) to [-127, 127]. Every int8 path in the codebase - the
 * GEMM/butterfly kernels, their scalar references and nn/quantize.h -
 * quantises through this one helper so the semantics the golden tests
 * pin down hold everywhere.
 */
inline std::int8_t
quantizeInt8(float x, float inv_scale)
{
    long q = std::lrintf(x * inv_scale);
    if (q > kInt8Max)
        q = kInt8Max;
    if (q < -kInt8Max)
        q = -kInt8Max;
    return static_cast<std::int8_t>(q);
}

/**
 * Dequantise an int32 GEMM accumulator with an optional bias:
 * madd(acc, a_scale * b_scale, bias). Routing the multiply-add
 * through madd pins the contraction so every translation unit -
 * kernels, references, tests - produces bit-identical dequantised
 * outputs.
 */
inline float
dequantInt8(std::int32_t acc, float a_scale, float b_scale,
            float bias = 0.0f)
{
    return madd(static_cast<float>(acc), a_scale * b_scale, bias);
}

// ------------------------------------------- quantized butterfly

/**
 * The one requantisation scale-update expression of the int8
 * butterfly. Every int8 path (scalar reference, stage-major batch,
 * every ISA variant) must call this identically or exact parity
 * breaks: two rounded multiplies, in this association.
 */
inline float
int8StageScale(float scale, float w_scale, std::int32_t m)
{
    return (scale * w_scale) *
           (static_cast<float>(m) / static_cast<float>(kInt8Max));
}

/** Requantise one int32 butterfly stage output with factor f = 127/m.
 *  Stage outputs are <= 2*127^2, exactly representable in float, so
 *  this is the pinned quantizeInt8 semantics on the widened value. */
inline std::int8_t
requantInt8(std::int32_t y, float f)
{
    return quantizeInt8(static_cast<float>(y), f);
}

/** One fp16 butterfly pair output: fp32 multiply-add, binary16 round. */
inline float
f16PairOut(float w0, float x1, float w1, float x2)
{
    return roundToHalf(madd(w0, x1, w1 * x2));
}

// ---------------------------------------------------- transcendentals
// The library's one float exp. GELU and softmax (the gelu_row /
// softmax_row table entries and the GELU backward) all evaluate it,
// so no output depends on the host's libm. The vector forms in
// kernels_impl.h replay this exact op sequence lane by lane; every op
// is a correctly rounded IEEE mul/add/sub/div, an exact conversion or
// shift, or a compare-and-select, so each lane equals this function.

/** expPinned's range: below kExpLo (ln FLT_MIN) the result is +0,
 *  above kExpHi (the float nearest ln FLT_MAX) it is +inf. */
constexpr float kExpLo = -87.3365478515625f;
constexpr float kExpHi = 88.72283935546875f;
constexpr float kLog2e = 1.44269502162933349609375f;
/** 1.5 * 2^23: adding and subtracting it rounds |v| < 2^22 to the
 *  nearest integer (ties to even) with two plain adds. */
constexpr float kRoundMagic = 12582912.0f;
/** Cody-Waite split of ln 2. kLn2Hi has 9 significant bits, so for
 *  |n| <= 128, n * kLn2Hi and x - n * kLn2Hi are exact. */
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
/** e^r ~ 1 + r + r^2 * P(r) on |r| <= ln2 / 2, P of degree 5. */
constexpr float kExpP0 = 1.9875691500e-4f;
constexpr float kExpP1 = 1.3981999507e-3f;
constexpr float kExpP2 = 8.3334519073e-3f;
constexpr float kExpP3 = 4.1665795894e-2f;
constexpr float kExpP4 = 1.6666665459e-1f;
constexpr float kExpP5 = 5.0000001201e-1f;

/** c ? a : b as a bit mask, not a branch: GCC (under the default
 *  -ftrapping-math) keeps float conditionals as control flow, which
 *  stops a loop over expPinned from vectorising. */
inline float
selectf(bool c, float a, float b)
{
    const std::uint32_t m = 0u - static_cast<std::uint32_t>(c);
    return std::bit_cast<float>((std::bit_cast<std::uint32_t>(a) & m) |
                                (std::bit_cast<std::uint32_t>(b) & ~m));
}

/** 2^n for n in [-126, 127], built from the exponent bits. */
inline float
pow2i(std::int32_t n)
{
    return std::bit_cast<float>((n + 127) << 23);
}

/**
 * e^x in float, <= 1 ulp from the correctly rounded result on
 * [ln FLT_MIN, ln FLT_MAX] (tests/isa_dispatch_test.cpp). Branch-free
 * so a loop over it vectorises even at the baseline ISA: x outside
 * [kExpLo, kExpHi] (and NaN) is replaced by 0, n = rint(x log2e),
 * r = x - n ln2 by the Cody-Waite split, e^r by the polynomial, 2^n in
 * two exact halves (n reaches 128 just below kExpHi), then the
 * specials by select: NaN -> NaN, x < kExpLo -> +0, x > kExpHi -> +inf.
 * (Evaluating an out-of-range x at a bound instead would make a
 * denormal, which costs a microcode assist per element.)
 */
inline float
expPinned(float x)
{
    const float xc = selectf((x >= kExpLo) & (x <= kExpHi), x, 0.0f);
    const float nf = madd(xc, kLog2e, kRoundMagic) - kRoundMagic;
    const float r = (xc - nf * kLn2Hi) - nf * kLn2Lo;
    float p = kExpP0;
    p = madd(p, r, kExpP1);
    p = madd(p, r, kExpP2);
    p = madd(p, r, kExpP3);
    p = madd(p, r, kExpP4);
    p = madd(p, r, kExpP5);
    float y = madd(p, r * r, r) + 1.0f;
    const std::int32_t n = static_cast<std::int32_t>(nf);
    const std::int32_t n1 = n >> 1;
    y = (y * pow2i(n1)) * pow2i(n - n1);
    y = selectf(x < kExpLo, 0.0f, y);
    y = selectf(x > kExpHi, std::numeric_limits<float>::infinity(), y);
    return selectf(x != x, x, y);
}

/** sqrt(2/pi), the GELU tanh-approximation constant. */
constexpr float kGeluK = 0.7978845608028654f;

/** The GELU tanh argument u = k (v + 0.044715 v^3). */
inline float
geluArg(float v)
{
    return kGeluK * (v + 0.044715f * v * v * v);
}

/**
 * GELU, tanh approximation: 0.5 v (1 + tanh u) = v / (1 + e^(-2u)).
 * The second form has no 1 + tanh cancellation, so it stays accurate
 * (and nonzero) far into the negative tail.
 */
inline float
geluPinned(float v)
{
    return v / (1.0f + expPinned(-2.0f * geluArg(v)));
}

/** d GELU / dv = s + 2 v s (1 - s) u', s = 1 / (1 + e^(-2u)). */
inline float
geluGradPinned(float v)
{
    const float s = 1.0f / (1.0f + expPinned(-2.0f * geluArg(v)));
    const float du = kGeluK * (1.0f + 3.0f * 0.044715f * v * v);
    return s + 2.0f * v * s * (1.0f - s) * du;
}

// ------------------------------------------------------------ packing

/** dst[j*rows + i] = src[i*cols + j]: row-major transpose copy. */
template <class T>
inline void
transposeInto(T *dst, const T *src, std::size_t rows, std::size_t cols)
{
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
            dst[j * rows + i] = src[i * cols + j];
}

/**
 * Pack row-major int8 B [k, n] into the k-pair-interleaved int16
 * layout the int8 panel consumes: bp[(kp*n + j)*2 + {0,1}] =
 * {B[2kp][j], B[2kp+1][j]} (zero-padded when k is odd). Widening to
 * int16 at pack time lets the hot loop run multiply-accumulate pairs
 * (vpmaddwd on AVX2, vpdpwssd on VNNI) straight off contiguous loads.
 * @p bp must hold ((k+1)/2) * n * 2 elements.
 */
inline void
packInt8PairsB(const std::int8_t *b, std::int16_t *bp, std::size_t k,
               std::size_t n)
{
    const std::size_t kp_count = (k + 1) / 2;
    for (std::size_t kp = 0; kp < kp_count; ++kp) {
        const std::int8_t *row0 = b + (2 * kp) * n;
        const std::int8_t *row1 =
            (2 * kp + 1 < k) ? b + (2 * kp + 1) * n : nullptr;
        std::int16_t *dst = bp + kp * n * 2;
        for (std::size_t j = 0; j < n; ++j) {
            dst[j * 2 + 0] = row0[j];
            dst[j * 2 + 1] = row1 ? row1[j] : std::int16_t{0};
        }
    }
}

} // namespace runtime
} // namespace fabnet

#endif // FABNET_RUNTIME_KERNELS_COMMON_H
