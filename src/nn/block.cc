#include "nn/block.h"

#include "runtime/parallel.h"

namespace fabnet {
namespace nn {

namespace {

/** The residual shortcut a += b over every row (training batch or
 *  packed inference rows alike). */
void
addResidualRows(Tensor &a, const Tensor &b)
{
    const std::size_t d = a.shape().back();
    float *pa = a.data();
    const float *pb = b.data();
    runtime::parallelFor(0, a.size() / d, 64,
                         [&](std::size_t r0, std::size_t r1) {
        for (std::size_t i = r0 * d; i < r1 * d; ++i)
            pa[i] += pb[i];
    });
}

} // namespace

FeedForward::FeedForward(std::unique_ptr<Layer> lin1,
                         std::unique_ptr<Layer> act,
                         std::unique_ptr<Layer> lin2)
    : lin1_(std::move(lin1)), act_(std::move(act)), lin2_(std::move(lin2))
{
}

Tensor
FeedForward::forward(const Tensor &x)
{
    return lin2_->forward(act_->forward(lin1_->forward(x)));
}

Tensor
FeedForward::forwardRows(const Tensor &x, const RowSet &rows)
{
    return lin2_->forwardRows(
        act_->forwardRows(lin1_->forwardRows(x, rows), rows), rows);
}

Tensor
FeedForward::backward(const Tensor &grad_out)
{
    return lin1_->backward(act_->backward(lin2_->backward(grad_out)));
}

Tensor
FeedForward::backwardReference(const Tensor &grad_out)
{
    return lin1_->backwardReference(
        act_->backwardReference(lin2_->backwardReference(grad_out)));
}

void
FeedForward::collectParams(std::vector<ParamRef> &out)
{
    lin1_->collectParams(out);
    act_->collectParams(out);
    lin2_->collectParams(out);
}

std::size_t
FeedForward::quantizeLinears(QuantKind kind)
{
    return quantizeChildLayer(lin1_, kind) +
           quantizeChildLayer(act_, kind) +
           quantizeChildLayer(lin2_, kind);
}

EncoderBlock::EncoderBlock(std::size_t d_model,
                           std::unique_ptr<Layer> mixer,
                           std::unique_ptr<Layer> ffn)
    : mixer_(std::move(mixer)), ffn_(std::move(ffn)), ln1_(d_model),
      ln2_(d_model)
{
}

Tensor
EncoderBlock::forward(const Tensor &x)
{
    Tensor a = mixer_->forward(x);
    addResidualRows(a, x); // shortcut
    Tensor h = ln1_.forward(a);

    Tensor f = ffn_->forward(h);
    addResidualRows(f, h); // shortcut
    return ln2_.forward(f);
}

Tensor
EncoderBlock::afterMixer(Tensor a, const Tensor &x, const RowSet &rows)
{
    // Every stage after the mixer is row-wise over the packed rows.
    addResidualRows(a, x); // shortcut
    Tensor h = ln1_.forwardRows(a, rows);

    Tensor f = ffn_->forwardRows(h, rows);
    addResidualRows(f, h); // shortcut
    return ln2_.forwardRows(f, rows);
}

Tensor
EncoderBlock::forwardRows(const Tensor &x, const RowSet &rows)
{
    return afterMixer(mixer_->forwardRows(x, rows), x, rows);
}

Tensor
EncoderBlock::forwardStep(const Tensor &x, StepState &step)
{
    // The row-wise stages see the one-row RowSet of the [n, d] step:
    // same per-row ops as the full causal forwardRows.
    return afterMixer(mixer_->forwardStep(x, step), x,
                      RowSet(x.dim(0), 1));
}

Tensor
EncoderBlock::forwardPrefill(const Tensor &x, const RowSet &rows,
                             StepState &step)
{
    return afterMixer(mixer_->forwardPrefill(x, rows, step), x, rows);
}

Tensor
EncoderBlock::backward(const Tensor &grad_out)
{
    Tensor g_hf = ln2_.backward(grad_out); // grad wrt (h + f)
    Tensor g_h = ffn_->backward(g_hf);
    addResidualRows(g_h, g_hf); // residual path

    Tensor g_xa = ln1_.backward(g_h); // grad wrt (x + a)
    Tensor g_x = mixer_->backward(g_xa);
    addResidualRows(g_x, g_xa); // residual path
    return g_x;
}

Tensor
EncoderBlock::backwardReference(const Tensor &grad_out)
{
    Tensor g_hf = ln2_.backwardReference(grad_out);
    Tensor g_h = ffn_->backwardReference(g_hf);
    addResidualRows(g_h, g_hf);

    Tensor g_xa = ln1_.backwardReference(g_h);
    Tensor g_x = mixer_->backwardReference(g_xa);
    addResidualRows(g_x, g_xa);
    return g_x;
}

void
EncoderBlock::collectParams(std::vector<ParamRef> &out)
{
    mixer_->collectParams(out);
    ffn_->collectParams(out);
    ln1_.collectParams(out);
    ln2_.collectParams(out);
}

std::size_t
EncoderBlock::quantizeLinears(QuantKind kind)
{
    return quantizeChildLayer(mixer_, kind) +
           quantizeChildLayer(ffn_, kind);
}

} // namespace nn
} // namespace fabnet
