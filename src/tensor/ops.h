/**
 * @file ops.h
 * Numeric kernels on Tensor: GEMM, softmax, layer normalisation,
 * activations and element-wise arithmetic.
 *
 * These are the reference ("ground truth") implementations that the
 * hardware-functional models in src/sim are cross-validated against,
 * mirroring the paper's Appendix C RTL-vs-PyTorch validation.
 */
#ifndef FABNET_TENSOR_OPS_H
#define FABNET_TENSOR_OPS_H

#include <cstddef>

#include "tensor/tensor.h"

namespace fabnet {
namespace ops {

/**
 * C = A * B for rank-2 tensors; A is [m,k], B is [k,n].
 * Register-blocked and row-parallel (see runtime/parallel.h); bitwise
 * identical to reference::matmul at any thread count.
 */
Tensor matmul(const Tensor &a, const Tensor &b);

/**
 * C = A * B^T for rank-2 tensors; A is [m,k], B is [n,k].
 * Multi-accumulator and row-parallel; bitwise identical to
 * reference::matmulTransposed at any thread count.
 */
Tensor matmulTransposed(const Tensor &a, const Tensor &b);

/**
 * GEMM backward, input side: dL/dA = dL/dC * B^T for C = A * B with
 * A [m,k], B [k,n], grad_c [m,n]. Row-parallel with the per-element
 * reduction kept in ascending-n order; bitwise identical to
 * reference::matmulGradA at any thread count. (Lowered onto the
 * matmulTransposed panel - the shapes line up exactly.)
 */
Tensor matmulGradA(const Tensor &grad_c, const Tensor &b);

/**
 * GEMM backward, weight side: dL/dB = A^T * dL/dC for C = A * B with
 * A [m,k], grad_c [m,n]. Parallel over the k output rows (each task
 * OWNS a disjoint row range of dL/dB - see runtime/reduce.h for why
 * gradient accumulation is owner-parallelised rather than reduced
 * across threads); every element's reduction runs in ascending-m
 * order, so results are bitwise identical to reference::matmulGradB
 * at any thread count.
 */
Tensor matmulGradB(const Tensor &a, const Tensor &grad_c);

/**
 * Dynamically quantised int8 GEMM: A is quantised per row, B per
 * column (symmetric, saturating - see runtime/kernels.h), the product
 * accumulates in exact int32 on the register-tiled int8 panel, and
 * each output dequantises as acc * (a_scale[i] * b_scale[j]). Returns
 * fp32. Row-parallel; results are *identical* (integer-exact) to
 * reference::matmulInt8 at any thread count.
 */
Tensor matmulInt8(const Tensor &a, const Tensor &b);

/**
 * fp16 GEMM: operands rounded through binary16, fp32 accumulation on
 * the register-tiled panel, outputs rounded through binary16 (still
 * returned as a float tensor). Bitwise identical to
 * reference::matmulF16 at any thread count.
 */
Tensor matmulF16(const Tensor &a, const Tensor &b);

namespace reference {

/**
 * Single-threaded scalar i-k-j GEMM - the seed kernel, kept as the
 * ground truth the blocked/parallel path is parity-tested and
 * benchmarked against.
 */
Tensor matmul(const Tensor &a, const Tensor &b);

/** Single-threaded scalar dot-product GEMM against B^T (seed kernel). */
Tensor matmulTransposed(const Tensor &a, const Tensor &b);

/** Scalar ground truth of matmulGradA (same reduction order). */
Tensor matmulGradA(const Tensor &grad_c, const Tensor &b);

/** Scalar ground truth of matmulGradB (ascending-m accumulation). */
Tensor matmulGradB(const Tensor &a, const Tensor &grad_c);

/**
 * Scalar ground truth of matmulInt8: same quantisation helpers, naive
 * int32 triple loop, same dequantisation expression. The parity tests
 * require exact equality with the panel kernel.
 */
Tensor matmulInt8(const Tensor &a, const Tensor &b);

/** Scalar ground truth of matmulF16 (same rounding points). */
Tensor matmulF16(const Tensor &a, const Tensor &b);

} // namespace reference

/** Transpose of a rank-2 tensor. */
Tensor transpose(const Tensor &a);

/** Element-wise sum; shapes must match. */
Tensor add(const Tensor &a, const Tensor &b);

/** Element-wise difference; shapes must match. */
Tensor sub(const Tensor &a, const Tensor &b);

/** Element-wise (Hadamard) product; shapes must match. */
Tensor mul(const Tensor &a, const Tensor &b);

/** Scale every element by @p s. */
Tensor scale(const Tensor &a, float s);

/**
 * Row-wise softmax over the last dimension (runtime::softmaxRow at
 * scale 1). Works for rank 2 ([rows, cols]) and rank 3 ([b, t, d]).
 */
Tensor softmaxLastDim(const Tensor &a);

/**
 * Row-wise layer normalisation over the last dimension with affine
 * parameters gamma/beta of length equal to the last dimension.
 * @param eps numerical-stability epsilon (paper models use 1e-5).
 */
Tensor layerNormLastDim(const Tensor &a, const std::vector<float> &gamma,
                        const std::vector<float> &beta, float eps = 1e-5f);

/** Rectified linear unit. */
Tensor relu(const Tensor &a);

/** Gaussian error linear unit (tanh approximation, as in BERT), via
 *  runtime::geluRow. */
Tensor gelu(const Tensor &a);

/** Sum of all elements. */
double sum(const Tensor &a);

/** Mean of all elements. */
double mean(const Tensor &a);

/** Largest absolute element. */
float maxAbs(const Tensor &a);

/** Largest absolute element-wise difference between two tensors. */
float maxAbsDiff(const Tensor &a, const Tensor &b);

/** True when |a - b| <= tol element-wise (shapes must match). */
bool allClose(const Tensor &a, const Tensor &b, float tol = 1e-5f);

} // namespace ops
} // namespace fabnet

#endif // FABNET_TENSOR_OPS_H
