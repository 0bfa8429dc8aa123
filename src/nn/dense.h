/**
 * @file dense.h
 * Dense (fully-connected) layer and its butterfly-factorised drop-in
 * replacement. Both map the last dimension of any row tensor - a
 * [b, t, in] training batch or packed [rows, in] inference rows - to
 * out; which one a model uses is exactly the algorithmic knob the
 * paper turns (vanilla Transformer vs FABNet).
 */
#ifndef FABNET_NN_DENSE_H
#define FABNET_NN_DENSE_H

#include <cstdint>
#include <vector>

#include "butterfly/butterfly.h"
#include "butterfly/qbutterfly.h"
#include "nn/layer.h"
#include "tensor/rng.h"

namespace fabnet {
namespace nn {

/**
 * Standard dense layer y = x W^T + b with W of shape [out, in], stored
 * transposed: weight() (and its gradient) hold W^T [in, out], the B
 * operand layout of the GEMM panel, so inference streams only the
 * activations and never copies the weight.
 */
class Dense : public Layer
{
  public:
    Dense(std::size_t in_features, std::size_t out_features, Rng &rng);

    /** Caches the input for backward() and runs Dense::forwardRows
     *  over every row (each row its own one-row sequence). */
    Tensor forward(const Tensor &x) override;

    /**
     * The one forward body: one parallel GEMM sweep over every row of
     * @p x (row-wise, so @p rows is not read), straight off the stored
     * [in, out] weight with the bias folded in. Each output is the
     * chain bias, then i-ascending madd, at any row count and whatever
     * rows share its 4-row tile.
     */
    Tensor forwardRows(const Tensor &x, const RowSet &rows) override;

    /**
     * Parallel backward: dL/dx row-parallel (disjoint rows), dL/dW and
     * dL/db owner-parallel over output features with the row reduction
     * kept in ascending order (runtime/reduce.h). Both sweeps run on
     * [out, in] copies of W and dL/dW made per call, so each streams
     * one output feature's row contiguously. Bitwise identical to
     * backwardReference at any thread count.
     */
    Tensor backward(const Tensor &grad_out) override;

    /** Seed serial backward (row-outer scalar loops), parity baseline. */
    Tensor backwardReference(const Tensor &grad_out) override;

    void collectParams(std::vector<ParamRef> &out) override;
    std::unique_ptr<Layer> quantizedReplacement(QuantKind kind) const
        override;

    std::size_t inFeatures() const { return in_; }
    std::size_t outFeatures() const { return out_; }

    /** W^T, row-major [in, out]: W[o][i] is weight()[i * out + o]. */
    std::vector<float> &weight() { return w_; }
    std::vector<float> &bias() { return b_; }
    /** W^T, row-major [in, out] (see the non-const overload). */
    const std::vector<float> &weight() const { return w_; }
    const std::vector<float> &bias() const { return b_; }

  private:
    std::size_t in_, out_;
    std::vector<float> w_, b_;   // w_ is W^T [in, out]
    std::vector<float> gw_, gb_; // gw_ in w_'s layout; sized on first use
    Tensor cached_input_;
};

/**
 * Butterfly-factorised linear layer (the FABNet replacement for every
 * dense projection). Parameter count O(n log n) instead of O(n^2).
 */
class ButterflyDense : public Layer
{
  public:
    ButterflyDense(std::size_t in_features, std::size_t out_features,
                   Rng &rng);

    /**
     * Training forward: ButterflyLinear::applyToRows over every row in
     * chunks of runtime::kBflyBlockRows, recording each row's
     * activation cache (cacheSize() floats) for backward().
     */
    Tensor forward(const Tensor &x) override;

    /**
     * Inference forward: the same stage-major kernel
     * (ButterflyLinear::applyToRows) over every row of @p x in
     * 16-row blocks, without the activation caches. Rows bitwise
     * equal forward(); @p rows is not read.
     */
    Tensor forwardRows(const Tensor &x, const RowSet &rows) override;

    /**
     * Parallel backward (ButterflyLinear::backwardBatch): a row-
     * parallel pass records per-row stage-gradient trajectories and
     * writes dL/dx, then bias/core-weight grads are owner-parallelised
     * with ascending-row reductions. Bitwise identical to
     * backwardReference at any thread count.
     */
    Tensor backward(const Tensor &grad_out) override;

    /** Seed serial backward (per-row ButterflyLinear::backward). */
    Tensor backwardReference(const Tensor &grad_out) override;

    void collectParams(std::vector<ParamRef> &out) override;
    std::unique_ptr<Layer> quantizedReplacement(QuantKind kind) const
        override;

    const ButterflyLinear &op() const { return op_; }
    ButterflyLinear &op() { return op_; }

  private:
    /** Size unsized gradient buffers (backward's first call). */
    void sizeGrads();

    ButterflyLinear op_;
    std::vector<std::vector<float>> grad_cores_;
    std::vector<float> grad_bias_;
    std::vector<float> caches_;  // per-row activation caches
    std::vector<float> gcaches_; // per-row stage-gradient trajectories
    std::vector<std::size_t> in_shape_;
    std::size_t rows_ = 0;
};

/**
 * Inference-only reduced-precision Dense, built from a trained Dense.
 *
 * int8: weights quantised per output feature (a column of Dense's
 * [in, out] weight) at construction (symmetric, runtime/kernels.h
 * semantics) and held pre-packed for the int8 GEMM panel, so no call
 * preps weights - as in fp32 Dense. Activations are quantised
 * dynamically per row; accumulation is exact int32; outputs dequantise
 * to fp32 with the fp32 bias added as a separate rounded op.
 *
 * fp16: weights and bias rounded through binary16 at construction and
 * held as one widened fp32 panel in Dense's [in, out] layout;
 * activations are rounded through binary16 per call, accumulation runs
 * in fp32 and outputs round through binary16 (gemmRowsF16).
 *
 * Both modes are bitwise thread-count-invariant; int8 additionally
 * matches the scalar reference GEMM exactly. backward() throws -
 * quantized layers do not train.
 */
class QuantizedDense : public Layer
{
  public:
    QuantizedDense(const Dense &dense, QuantKind kind);

    /** forwardRows over every row of @p x (any rank, each row its own
     *  one-row sequence). */
    Tensor forward(const Tensor &x) override;

    /** Inference forward: per-row activation quantisation (int8) /
     *  binary16 rounding (fp16) and the GEMM panel, one parallel
     *  sweep over every row of @p x (@p rows is not read). */
    Tensor forwardRows(const Tensor &x, const RowSet &rows) override;

    Tensor backward(const Tensor &grad_out) override;

    QuantKind kind() const { return kind_; }
    std::size_t inFeatures() const { return in_; }
    std::size_t outFeatures() const { return out_; }

    /** Per-output-feature int8 weight scales (empty in fp16 mode). */
    const std::vector<float> &weightScales() const { return wscale_; }

  private:
    std::size_t in_, out_;
    QuantKind kind_;
    // int8 mode: W^T quantised and packed for gemmRowsInt8.
    std::vector<std::int16_t> bp_;
    std::vector<float> wscale_;
    std::vector<float> bias_;
    // fp16 mode: binary16-rounded weights, widened once to fp32.
    std::vector<float> wt_h_;   ///< [in, out] fp16-representable floats
    std::vector<float> bias_h_; ///< fp16-representable floats
};

/** Inference-only quantized butterfly linear layer (drop-in for
 *  ButterflyDense; same int8/fp16 contracts via qbutterfly.h). */
class QuantizedButterflyDense : public Layer
{
  public:
    QuantizedButterflyDense(const ButterflyDense &dense, QuantKind kind);

    /** forwardRows over every row of @p x (any rank, each row its own
     *  one-row sequence). */
    Tensor forward(const Tensor &x) override;

    /** Inference forward: the stage-major quantized kernel
     *  (QuantizedButterflyLinear::applyToRows) over every row of @p x
     *  in 16-row blocks, as ButterflyDense::forwardRows does. */
    Tensor forwardRows(const Tensor &x, const RowSet &rows) override;

    Tensor backward(const Tensor &grad_out) override;

    QuantKind kind() const { return op_.kind(); }
    const QuantizedButterflyLinear &op() const { return op_; }

  private:
    QuantizedButterflyLinear op_;
};

} // namespace nn
} // namespace fabnet

#endif // FABNET_NN_DENSE_H
