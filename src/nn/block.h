/**
 * @file block.h
 * Encoder blocks: the generic post-norm residual block used to build
 * the vanilla Transformer, FNet and FABNet.
 *
 * Structure (Fig. 2 / Fig. 5 of the paper):
 *
 *     a = Mixer(x)              Mixer = MHA (vanilla / ABfly)
 *     h = LN(x + a)                     or 2-D Fourier mix (FNet/FBfly)
 *     f = W2( act( W1(h) ) )    W1/W2 dense or butterfly
 *     y = LN(h + f)
 */
#ifndef FABNET_NN_BLOCK_H
#define FABNET_NN_BLOCK_H

#include <memory>
#include <vector>

#include "nn/basic_layers.h"
#include "nn/layer.h"

namespace fabnet {
namespace nn {

/** Two-layer feed-forward network with activation. */
class FeedForward : public Layer
{
  public:
    FeedForward(std::unique_ptr<Layer> lin1, std::unique_ptr<Layer> act,
                std::unique_ptr<Layer> lin2);

    Tensor forward(const Tensor &x) override;

    /** Inference forward: chains the children's forwardRows paths
     *  over the packed rows. */
    Tensor forwardRows(const Tensor &x, const RowSet &rows) override;

    Tensor backward(const Tensor &grad_out) override;

    /** Chains the children's backwardReference paths. */
    Tensor backwardReference(const Tensor &grad_out) override;

    void collectParams(std::vector<ParamRef> &out) override;
    std::size_t quantizeLinears(QuantKind kind) override;

    bool supportsMasking() const override
    {
        return lin1_->supportsMasking() && act_->supportsMasking() &&
               lin2_->supportsMasking();
    }

  private:
    std::unique_ptr<Layer> lin1_, act_, lin2_;
};

/** Post-norm residual encoder block: mixer + FFN with layer norms. */
class EncoderBlock : public Layer
{
  public:
    EncoderBlock(std::size_t d_model, std::unique_ptr<Layer> mixer,
                 std::unique_ptr<Layer> ffn);

    Tensor forward(const Tensor &x) override;

    /**
     * Inference forward over packed rows (nn/layer.h): the mixer reads
     * the sequence boundaries in @p rows; both residual adds, both
     * layer norms and the FFN run row-wise over every row. Each
     * sequence's rows are bitwise identical to its unpadded forward().
     * Inference-only.
     */
    Tensor forwardRows(const Tensor &x, const RowSet &rows) override;

    /**
     * One decode step: the forwardRows chain over the [n, d] step
     * rows (RowSet(n, 1)), with the mixer taking its forwardStep path
     * (K/V-cached attention). Bitwise identical to the last valid row
     * of a full causal forwardRows, per nn/decode.h. Inference-only.
     */
    Tensor forwardStep(const Tensor &x, StepState &step) override;

    /**
     * Ragged prompt prefill: exactly forwardRows plus the mixer's K/V
     * capture into @p step (layer.h). Inference-only.
     */
    Tensor forwardPrefill(const Tensor &x, const RowSet &rows,
                          StepState &step) override;

    Tensor backward(const Tensor &grad_out) override;

    /**
     * Seed serial backward through the whole block: layer norms,
     * mixer and FFN all take their backwardReference paths (residual
     * adds stay as in backward - they are elementwise and bitwise
     * order-free). The block-level grad-parity tests compare this
     * against backward().
     */
    Tensor backwardReference(const Tensor &grad_out) override;

    void collectParams(std::vector<ParamRef> &out) override;

    /** Quantize the mixer's and FFN's linears; LayerNorms stay fp32. */
    std::size_t quantizeLinears(QuantKind kind) override;

    bool supportsMasking() const override
    {
        return mixer_->supportsMasking() && ffn_->supportsMasking();
    }

    bool runsLength(std::size_t seq) const override
    {
        return mixer_->runsLength(seq) && ffn_->runsLength(seq);
    }

  private:
    /**
     * The chain after the mixer, shared by the three inference entry
     * points: @p a is the mixer's output for input @p x.
     */
    Tensor afterMixer(Tensor a, const Tensor &x, const RowSet &rows);

    std::unique_ptr<Layer> mixer_, ffn_;
    LayerNorm ln1_, ln2_;
};

} // namespace nn
} // namespace fabnet

#endif // FABNET_NN_BLOCK_H
