/**
 * @file kernels.h
 * Caller-facing kernel entry points. Every caller-facing parallel
 * path (ops::matmul, ops::matmulTransposed via an explicit transpose,
 * Dense::forward, attention, the quantized paths) lowers onto these
 * wrappers, which load the function pointer installed for this
 * machine's ISA from the dispatch table (runtime/dispatch.h) - the
 * performance work AND the bitwise behaviour live in exactly one
 * place per kernel family, selected once at startup.
 *
 * The scalar semantics every variant must reproduce bit for bit are
 * pinned in kernels_common.h (madd contraction, int8 quantise/
 * dequantise expressions, binary16 rounding points); the variant
 * bodies live in kernels_impl.h, compiled once per ISA level with
 * per-TU -m flags. See dispatch.h for the parity argument per family.
 * The fp32/fp16 panels run one 4x32 register tile and callers split
 * rows in chunks of kGemmRowGrain (kernels_common.h); the measurement
 * behind both is in docs/ARCHITECTURE.md, "One GEMM tile".
 *
 * ## Quantized variants
 * The int8 panel (gemmRowsInt8) mirrors the fp32 tiling but multiplies
 * int8 operands into int32 accumulators - integer arithmetic is exact,
 * so the blocked/vectorised path is *identical* (not just bitwise-
 * reproducible) to the scalar reference at any thread count. Scales
 * are per-A-row (dynamic activation quantisation) times per-B-column
 * (static weight quantisation); dequantisation is a fixed two-rounding
 * float expression shared by every caller. The fp16 panel
 * (gemmRowsF16) runs the fp32 tile over fp16-representable operands
 * and rounds each output through binary16 - fp16 storage, fp32
 * accumulation, fp16 result, the usual mixed-precision FPU contract.
 */
#ifndef FABNET_RUNTIME_KERNELS_H
#define FABNET_RUNTIME_KERNELS_H

#include <cstddef>
#include <cstdint>

#include "runtime/dispatch.h"
#include "runtime/kernels_common.h"

namespace fabnet {
namespace runtime {

/**
 * C[r0..r1) = (bias|0) + A[r0..r1) * B for row-major A [m,k], B [k,n],
 * C [m,n]; bias (length n, may be null) initialises each output row.
 * OVERWRITES the C rows. Register-tiled (kGemmTileM x kGemmTileN);
 * each output is one k-ascending madd chain, so any row split gives
 * the same bits.
 */
inline void
gemmRowsIKJ(const float *a, const float *b, float *c, std::size_t r0,
            std::size_t r1, std::size_t k, std::size_t n,
            const float *bias = nullptr)
{
    kernels().gemm_f32(a, b, c, r0, r1, k, n, bias);
}

/** Largest |x| over @p n contiguous floats. */
inline float
maxAbsRow(const float *x, std::size_t n)
{
    return kernels().max_abs_row(x, n);
}

/**
 * Quantise @p n floats with a shared @p scale (one division up front,
 * then multiplies). Returns the inverse scale actually used.
 */
inline float
quantizeInt8Row(const float *x, std::int8_t *q, std::size_t n,
                float scale)
{
    const float inv = 1.0f / scale;
    kernels().quantize_i8_row(x, q, n, inv);
    return inv;
}

/**
 * Quantise @p n floats with per-element inverse scales (used for the
 * per-column quantisation of a GEMM B operand, one row at a time so
 * the writes stay contiguous).
 */
inline void
quantizeInt8RowPerCol(const float *x, std::int8_t *q, std::size_t n,
                      const float *inv)
{
    kernels().quantize_i8_row_percol(x, q, n, inv);
}

/**
 * Int8 GEMM panel over the packed-B layout (packInt8PairsB):
 * C[r0..r1) = dequant(A8[r0..r1) * B8) (+ bias), A8 row-major [m, k]
 * int8, C fp32 [m, n]. a_scale has one entry per A row, b_scale one
 * per B column; each output is
 *     C[i][j] = acc_int32 * (a_scale[i] * b_scale[j])  (+ bias[j])
 * with the bias added as a separate rounded op. Accumulation is exact
 * int32 (overflow-free for k < 2^31 / 127^2 ~ 133k), so results are
 * identical to the scalar reference at any thread count and on every
 * ISA variant.
 */
inline void
gemmRowsInt8(const std::int8_t *a, const std::int16_t *bp, float *c,
             std::size_t r0, std::size_t r1, std::size_t k,
             std::size_t n, const float *a_scale, const float *b_scale,
             const float *bias = nullptr)
{
    kernels().gemm_i8(a, bp, c, r0, r1, k, n, a_scale, b_scale, bias);
}

// ------------------------------------------------------------- fp16

/** Round @p n floats through binary16 in place. */
inline void
roundRowToHalf(float *x, std::size_t n)
{
    kernels().round_row_to_half(x, n);
}

/** Widen @p n binary16 bit patterns to float (exact). */
inline void
halfBitsToFloatRow(const std::uint16_t *h, float *f, std::size_t n)
{
    kernels().half_bits_to_float_row(h, f, n);
}

/** Round @p n floats to binary16 bit patterns. */
inline void
floatToHalfBitsRow(const float *f, std::uint16_t *h, std::size_t n)
{
    kernels().float_to_half_bits_row(f, h, n);
}

// -------------------------------------------------- transcendentals

/** y[i] = GELU(x[i]) (geluPinned, kernels_common.h) over @p n floats;
 *  @p y may equal @p x. */
inline void
geluRow(const float *x, float *y, std::size_t n)
{
    kernels().gelu_row(x, y, n);
}

/**
 * Softmax of @p n scores in place: scale-then-max from -1e30f,
 * e = expPinned(s - max) with the denominator summed in ascending
 * order, then `* (1 / denominator)`. The one expression sequence every
 * softmax in the library runs, so rows that reach it with the same
 * scores leave it with the same bits.
 */
inline void
softmaxRow(float *s, std::size_t n, float scale)
{
    kernels().softmax_row(s, n, scale);
}

/**
 * fp16 GEMM panel: @p a and @p b must hold fp16-representable floats
 * (operands rounded through binary16 up front - fp16 *storage*), the
 * accumulation runs the fp32 register tile with the usual k-increasing
 * chain (fp32 *accumulate*), and every finished output row is rounded
 * through binary16 (fp16 *result*). One rounding per output instead of
 * the per-product rounding of the sim BU datapath (sim/datapath.h) -
 * the documented gap between the two is a few fp16 ulps, pinned by the
 * cross-validation tests.
 */
inline void
gemmRowsF16(const float *a, const float *b, float *c, std::size_t r0,
            std::size_t r1, std::size_t k, std::size_t n,
            const float *bias = nullptr)
{
    const KernelTable &t = kernels();
    t.gemm_f32(a, b, c, r0, r1, k, n, bias);
    for (std::size_t r = r0; r < r1; ++r)
        t.round_row_to_half(c + r * n, n);
}

} // namespace runtime
} // namespace fabnet

#endif // FABNET_RUNTIME_KERNELS_H
