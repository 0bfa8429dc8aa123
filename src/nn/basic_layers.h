/**
 * @file basic_layers.h
 * LayerNorm, activations and the FNet-style 2-D Fourier mixing layer.
 */
#ifndef FABNET_NN_BASIC_LAYERS_H
#define FABNET_NN_BASIC_LAYERS_H

#include <vector>

#include "nn/layer.h"

namespace fabnet {
namespace nn {

/** Layer normalisation over the last dimension, with affine params. */
class LayerNorm : public Layer
{
  public:
    explicit LayerNorm(std::size_t dim, float eps = 1e-5f);

    /** The normRows body over every row, recording the xhat and
     *  inv-std caches for backward(). */
    Tensor forward(const Tensor &x) override;

    /**
     * Ragged inference forward: the normRows body over the valid row
     * spans only, without the training caches. Valid rows bitwise
     * equal forward(); padded rows are zero.
     */
    Tensor forwardRows(const Tensor &x, const RowSet &rows) override;

    /**
     * Parallel backward: dL/dx row-parallel (per-row sums recomputed
     * in the reference's j order), dL/dgamma and dL/dbeta
     * owner-parallel over columns with ascending-row accumulation
     * (runtime/reduce.h). Bitwise identical to backwardReference at
     * any thread count.
     */
    Tensor backward(const Tensor &grad_out) override;

    /** Seed serial backward (single row-outer loop), parity baseline. */
    Tensor backwardReference(const Tensor &grad_out) override;

    void collectParams(std::vector<ParamRef> &out) override;

  private:
    /**
     * The one row body: normalises the rows of @p rows in parallel
     * (rows are independent and each row's mean/var/affine sweep has
     * one fixed j-order). kCache also writes the xhat/inv-std caches
     * (then @p rows must be padding-free).
     */
    template <bool kCache>
    Tensor normRows(const Tensor &x, const RowSet &rows);

    std::size_t dim_;
    float eps_;
    std::vector<float> gamma_, beta_;
    std::vector<float> ggamma_, gbeta_;
    Tensor cached_xhat_;          // normalised input
    std::vector<float> inv_std_;  // per-row 1/sigma
};

/** ReLU activation. */
class Relu : public Layer
{
  public:
    /** Caches the input and runs forwardRows over every row. */
    Tensor forward(const Tensor &x) override;

    /** Ragged forward: elementwise over valid row spans only, no
     *  input cache. Valid rows bitwise equal forward(); padded 0. */
    Tensor forwardRows(const Tensor &x, const RowSet &rows) override;

    Tensor backward(const Tensor &grad_out) override;

  private:
    Tensor cached_input_;
};

/** GELU activation (tanh approximation, runtime::geluRow). */
class Gelu : public Layer
{
  public:
    /** Caches the input and runs forwardRows over every row. */
    Tensor forward(const Tensor &x) override;

    /** Ragged forward: the GELU row kernel runs on valid row spans
     *  only, no input cache. Valid rows bitwise equal forward();
     *  padded rows are zero. */
    Tensor forwardRows(const Tensor &x, const RowSet &rows) override;

    Tensor backward(const Tensor &grad_out) override;

  private:
    Tensor cached_input_;
};

/**
 * FNet 2-D Fourier token mixer: y = Re(FFT_seq(FFT_hidden(x))).
 * Parameter-free; the backward pass uses the symmetry of the DFT
 * matrix (adjoint of Re(F x) is Re(F g) on real inputs).
 */
class FourierMix : public Layer
{
  public:
    Tensor forward(const Tensor &x) override;
    Tensor backward(const Tensor &grad_out) override;

    /** The sequence-dim FFT is global: no masked form exists. */
    bool supportsMasking() const override { return false; }

    /** fourierMix2D runs power-of-two lengths only. */
    bool runsLength(std::size_t seq) const override;
};

} // namespace nn
} // namespace fabnet

#endif // FABNET_NN_BASIC_LAYERS_H
