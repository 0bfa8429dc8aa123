/**
 * @file qbutterfly.h
 * Quantized (int8 / fp16) butterfly kernels sharing the stage-major
 * batched structure of ButterflyMatrix (butterfly.h) - the runtime
 * counterpart of the paper's reduced-precision butterfly datapath.
 *
 * ## fp16 contract
 * Weights and activations are rounded through IEEE binary16; every
 * stage output y = w0*x1 + w1*x2 is computed in fp32 and rounded back
 * to binary16, mirroring a 16-bit butterfly unit with an fp32-exact
 * multiply-add core. The sim datapath (sim/datapath.h) additionally
 * rounds each *product* before the add; the two agree within a few
 * fp16 ulps per stage, which the cross-validation tests bound.
 *
 * ## int8 contract
 * Weights are quantized per stage (symmetric, scale = stage max-abs /
 * 127). The input vector is quantized dynamically per row; each stage
 * computes exact int32 pair outputs and then *requantizes the row*:
 * m = max |y_int32|, next activation = round(y * 127/m) with the row
 * scale updated to (scale * w_scale[s]) * (m / 127). This keeps the
 * full int8 resolution at every stage regardless of depth (a static
 * worst-case scale would lose one bit per stage). All integer math is
 * exact and every float op is a fixed per-row expression, so the
 * stage-major batched path equals the per-row scalar reference
 * *exactly* - not within tolerance - at any thread count.
 */
#ifndef FABNET_BUTTERFLY_QBUTTERFLY_H
#define FABNET_BUTTERFLY_QBUTTERFLY_H

#include <cstdint>
#include <vector>

#include "butterfly/butterfly.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"

namespace fabnet {

/** Quantized view of a trained square ButterflyMatrix. */
class QuantizedButterflyMatrix
{
  public:
    QuantizedButterflyMatrix(const ButterflyMatrix &m, QuantKind kind);

    std::size_t size() const { return n_; }
    std::size_t numStages() const { return stages_; }
    QuantKind kind() const { return kind_; }

    /** Per-stage int8 weight scales (empty in fp16 mode; tests). */
    const std::vector<float> &stageScales() const { return wscale_; }

    /**
     * Stage-major batched apply for @p rows contiguous vectors, the
     * quantized analogue of ButterflyMatrix::applyRows. Exactly equal
     * to per-row applyReference().
     */
    void applyRows(const float *in, float *out, std::size_t rows) const;

    /** Row-parallel batch entry ([rows, n] -> [rows, n]). */
    Tensor applyBatch(const Tensor &x) const;

    /** Scalar per-row ground truth (heap buffers, seed-style loops). */
    void applyReference(const float *in, float *out) const;

    /** Per-row applyReference over a batch (parity baseline). */
    Tensor applyBatchReference(const Tensor &x) const;

  private:
    std::size_t n_ = 0;
    std::size_t stages_ = 0;
    QuantKind kind_;
    std::vector<std::int8_t> wq_;  ///< int8 weights (int8 mode)
    std::vector<float> wscale_;    ///< per-stage scales (int8 mode)
    std::vector<float> wh_;        ///< fp16-rounded weights (fp16 mode)
};

/**
 * Quantized rectangular butterfly linear map: the inference-time
 * counterpart of ButterflyLinear, built from its trained cores. Bias
 * is added in fp32 after dequantisation (int8) or rounded through
 * binary16 with the output (fp16).
 */
class QuantizedButterflyLinear
{
  public:
    QuantizedButterflyLinear(const ButterflyLinear &lin, QuantKind kind);

    std::size_t inFeatures() const { return in_; }
    std::size_t outFeatures() const { return out_; }
    std::size_t coreSize() const { return core_n_; }
    std::size_t numCores() const { return cores_.size(); }
    QuantKind kind() const { return kind_; }

    /** Row-parallel batch apply ([rows, in] -> [rows, out]). */
    Tensor applyBatch(const Tensor &x) const;

    /**
     * Serial stage-major apply over @p rows contiguous vectors (the
     * body one applyBatch task runs; see ButterflyLinear::applyToRows)
     * for callers that sweep row chunks themselves
     * (nn::QuantizedButterflyDense). Exactly equal to
     * applyBatchReference() for any @p rows.
     */
    void applyToRows(const float *in, float *out, std::size_t rows) const;

    /** Per-row scalar ground truth (parity baseline). */
    Tensor applyBatchReference(const Tensor &x) const;

  private:
    std::size_t in_ = 0;
    std::size_t out_ = 0;
    std::size_t core_n_ = 0;
    QuantKind kind_;
    std::vector<QuantizedButterflyMatrix> cores_;
    std::vector<float> bias_; ///< fp32 (int8 mode) / fp16-rounded (fp16)
};

} // namespace fabnet

#endif // FABNET_BUTTERFLY_QBUTTERFLY_H
