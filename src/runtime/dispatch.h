/**
 * @file dispatch.h
 * The one dispatch point per kernel family.
 *
 * Four kernel variants are compiled into every binary from the same
 * source (kernels_impl.h) in four translation units with different
 * per-TU -m flags (see CMakeLists.txt): scalar, AVX2, AVX-512 and
 * AVX-512+VNNI. Each exports one KernelTable of function pointers;
 * kernels() picks the table for runtime::activeIsa() once at startup.
 * Callers never branch on the ISA again - ops/nn/butterfly code calls
 * the thin wrappers in kernels.h, which load straight from the table.
 *
 * Every entry of every table is bitwise identical to the scalar
 * reference implementation for the same inputs (the repo's parity
 * contract): fp32/fp16 paths share the pinned madd contraction and
 * binary16 rounding points, the int8 paths are exact integer
 * arithmetic, and max/quantise reductions are order-insensitive on
 * the data they see. The transcendental rows (gelu_row, softmax_row)
 * evaluate the one library-owned expPinned (kernels_common.h) with
 * the same per-lane op sequence in every variant, and keep the
 * softmax denominator a serial ascending sum. The isa-parity ctest
 * label enforces this per variant.
 */
#ifndef FABNET_RUNTIME_DISPATCH_H
#define FABNET_RUNTIME_DISPATCH_H

#include <cstddef>
#include <cstdint>

#include "runtime/isa.h"

namespace fabnet {
namespace runtime {

/**
 * Function-pointer table for one compiled kernel variant. Pointer
 * arguments follow the wrappers in kernels.h, which document the
 * semantics.
 */
struct KernelTable
{
    Isa level;        ///< variant this table was compiled for
    const char *name; ///< isaName(level)

    /** fp32 GEMM panel: C[r0..r1) = (bias|0) + A[r0..r1) * B. */
    void (*gemm_f32)(const float *a, const float *b, float *c,
                     std::size_t r0, std::size_t r1, std::size_t k,
                     std::size_t n, const float *bias);

    /** int8 GEMM panel over the packInt8PairsB layout. */
    void (*gemm_i8)(const std::int8_t *a, const std::int16_t *bp,
                    float *c, std::size_t r0, std::size_t r1,
                    std::size_t k, std::size_t n, const float *a_scale,
                    const float *b_scale, const float *bias);

    /** Largest |x| over n contiguous floats. */
    float (*max_abs_row)(const float *x, std::size_t n);

    /** Quantise n floats with one shared inverse scale. */
    void (*quantize_i8_row)(const float *x, std::int8_t *q,
                            std::size_t n, float inv);

    /** Quantise n floats with per-element inverse scales. */
    void (*quantize_i8_row_percol)(const float *x, std::int8_t *q,
                                   std::size_t n, const float *inv);

    /** Round n floats through binary16 in place. */
    void (*round_row_to_half)(float *x, std::size_t n);

    /** Widen n binary16 bit patterns to float (exact). */
    void (*half_bits_to_float_row)(const std::uint16_t *h, float *f,
                                   std::size_t n);

    /** Round n floats to binary16 bit patterns. */
    void (*float_to_half_bits_row)(const float *f, std::uint16_t *h,
                                   std::size_t n);

    /** y[i] = geluPinned(x[i]) over n floats (y may equal x). */
    void (*gelu_row)(const float *x, float *y, std::size_t n);

    /** The pinned softmax chain over n scores in place (see
     *  runtime::softmaxRow in kernels.h). */
    void (*softmax_row)(float *s, std::size_t n, float scale);

    // Stage-major butterfly kernels. A block is a TRANSPOSED [n, 16]
    // buffer (16 = kBflyBlockRows, one activation row per lane,
    // element (i, r) at i*16 + r). Every block is exactly 16 lanes
    // wide: the edge kernels below take the valid-row count nb (1..16)
    // and the input ones zero-fill lanes nb..15, so the stage kernels
    // take no row count and always sweep all 16 lanes.

    /** One fp32 butterfly stage (stride h) over a block, in place. */
    void (*bfly_stage)(float *buf, const float *wp, std::size_t n,
                       std::size_t h);

    /** fp16 butterfly stage: same sweep with the f16PairOut rounding
     *  points (quantized butterfly, QuantKind::Fp16). */
    void (*qbfly_f16_stage)(float *buf, const float *wp, std::size_t n,
                            std::size_t h);

    /** int8 butterfly stage multiply: y = W_s q over the block. Exact
     *  in int16: codes and weights lie in [-127, 127], so |y| <=
     *  2*127^2 = 32258 < 2^15. */
    void (*qbfly_i8_stage)(const std::int8_t *q, std::int16_t *y,
                           const std::int8_t *w, std::size_t n,
                           std::size_t h);

    /**
     * int8 butterfly requantise: per-lane max over the [n, 16] stage
     * output block, rewrite q through requantInt8(127/m), and update
     * scale[r] (16 entries) via int8StageScale with this stage's
     * weight scale @p wscale_s; all-zero lanes keep their scale and
     * quantise to exact zeros.
     */
    void (*qbfly_i8_requant)(const std::int16_t *y, std::int8_t *q,
                             float *scale, float wscale_s,
                             std::size_t n);

    // Block edge kernels: load nb row-major rows (row stride @p
    // stride) into a block or store a block's first nb lanes back.
    // Pure data movement (plus the pinned per-element rounding /
    // quantisation expressions where noted), dispatched because the
    // strided sweeps vectorise only with the variant's -m flags and
    // would otherwise dominate the batched butterfly at fp32 speeds.

    /** buf[i*16 + r] = src[r*stride + i] for r < nb, 0 for r >= nb. */
    void (*bfly_transpose_in)(const float *src, float *buf,
                              std::size_t n, std::size_t nb,
                              std::size_t stride);

    /** dst[r*stride + i] = buf[i*16 + r] for r < nb. */
    void (*bfly_transpose_out)(const float *buf, float *dst,
                               std::size_t n, std::size_t nb,
                               std::size_t stride);

    /** bfly_transpose_in with operands rounded through binary16 on
     *  the way in (quantized butterfly, QuantKind::Fp16). */
    void (*qbfly_f16_transpose_in)(const float *src, float *buf,
                                   std::size_t n, std::size_t nb,
                                   std::size_t stride);

    /** Per-row int8 quantisation into a block: scale[r] from
     *  int8Scale(max|row|); all-zero rows and the padding lanes
     *  r >= nb get scale 0 and exact zero codes (the pinned
     *  int8StagesRow load semantics). @p scale holds 16 entries. */
    void (*qbfly_i8_quant_in)(const float *src, std::int8_t *q,
                              float *scale, std::size_t n,
                              std::size_t nb, std::size_t stride);

    /** dst[r*stride + i] = float(q[i*16 + r]) * scale[r] for r < nb
     *  (dequantised block store; reads all 16 entries of @p scale). */
    void (*qbfly_i8_dequant_out)(const std::int8_t *q,
                                 const float *scale, float *dst,
                                 std::size_t n, std::size_t nb,
                                 std::size_t stride);
};

// One exported table per variant TU (kernels_<variant>.cc).
const KernelTable &kernelTableScalar();
const KernelTable &kernelTableAvx2();
const KernelTable &kernelTableAvx512();
const KernelTable &kernelTableAvx512Vnni();

/**
 * Table for an explicit level (tests and benches). Returns
 * nullptr when the HOST cannot execute that variant - callers must
 * not invoke entries of an unsupported table.
 */
const KernelTable *kernelTableFor(Isa isa);

/** The table selected for activeIsa(); cached after the first call. */
const KernelTable &kernels();

} // namespace runtime
} // namespace fabnet

#endif // FABNET_RUNTIME_DISPATCH_H
