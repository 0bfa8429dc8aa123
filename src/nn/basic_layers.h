/**
 * @file basic_layers.h
 * LayerNorm, the GELU activation and the FNet-style 2-D Fourier
 * mixing layer.
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
     * Inference forward: the normRows body over every row of @p x,
     * without the training caches (@p rows is not read). Rows bitwise
     * equal forward().
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
     * The one row body: normalises every row of @p x in parallel
     * (rows are independent and each row's mean/var/affine sweep has
     * one fixed j-order). kCache also writes the xhat/inv-std caches.
     */
    template <bool kCache>
    Tensor normRows(const Tensor &x);

    std::size_t dim_;
    float eps_;
    std::vector<float> gamma_, beta_;
    std::vector<float> ggamma_, gbeta_;
    Tensor cached_xhat_;          // normalised input
    std::vector<float> inv_std_;  // per-row 1/sigma
};

/** GELU activation (tanh approximation, runtime::geluRow). */
class Gelu : public Layer
{
  public:
    /** Caches the input and runs forwardRows over every row. */
    Tensor forward(const Tensor &x) override;

    /** Inference forward: the GELU row kernel over every row of @p x,
     *  no input cache (@p rows is not read). Rows bitwise equal
     *  forward(). */
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
    /**
     * @param d_model hidden size. fourierMix2D transforms power-of-two
     * widths only, so any other width throws std::invalid_argument
     * here - a model that could never run a request is refused when
     * it is built, not when it is served.
     */
    explicit FourierMix(std::size_t d_model);

    Tensor forward(const Tensor &x) override;

    /**
     * Inference forward over the padding-free set only: the packed
     * rows are viewed as [rows.batch(), rows.seq(), d] and mixed as in
     * forward(). Throws std::invalid_argument when @p x is not the
     * packed rows of @p rows or when @p rows has padding.
     */
    Tensor forwardRows(const Tensor &x, const RowSet &rows) override;

    Tensor backward(const Tensor &grad_out) override;

    /** The sequence-dim FFT is global: no per-sequence form exists. */
    bool supportsMasking() const override { return false; }

    /** fourierMix2D runs power-of-two lengths only. */
    bool runsLength(std::size_t seq) const override;

  private:
    std::size_t d_;
};

} // namespace nn
} // namespace fabnet

#endif // FABNET_NN_BASIC_LAYERS_H
