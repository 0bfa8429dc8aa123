/**
 * @file layer.h
 * Abstract layer interface for the minimal training framework.
 *
 * The framework is deliberately explicit (no autograd tape): each layer
 * caches what its backward pass needs during forward and exposes its
 * parameters as (value, grad) vector pairs for the optimiser. Models
 * in this repo are small enough that clarity beats generality, and the
 * explicit backward passes double as documentation of the math the
 * hardware executes.
 */
#ifndef FABNET_NN_LAYER_H
#define FABNET_NN_LAYER_H

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/decode.h"
#include "nn/rowset.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"

namespace fabnet {
namespace nn {

/** A trainable parameter: flat value vector plus its gradient (empty
 *  until the first backward(), zeroGrads() or optimizer step sizes it;
 *  see sizeGrad). */
struct ParamRef
{
    std::vector<float> *value;
    std::vector<float> *grad;
};

/** Base class of all layers: training runs [batch, seq, hidden]
 *  tensors, inference their packed [rows, hidden] form (forwardRows). */
class Layer
{
  public:
    virtual ~Layer() = default;

    /**
     * Training forward: runs the layer's forwardRows body over every
     * row (the padding-free set, allRows(x)) and records the caches
     * backward() needs, so each forward computation is written once;
     * calling forward twice overwrites the cache of the first call.
     */
    virtual Tensor forward(const Tensor &x) = 0;

    /**
     * The inference path over a packed batch: @p x holds the valid
     * rows of every sequence back to back, [rows.totalRows(), d], with
     * sequence b at rows [rows.start(b), rows.start(b) + rows.len(b))
     * (nn/rowset.h). Each sequence's rows are bitwise identical to its
     * own unpadded forward() at any thread count. Row-wise layers
     * (linears, LayerNorm, activations, the FFN) run over every row of
     * @p x and never read @p rows; MultiHeadAttention reads the
     * sequence boundaries to attend each sequence over its own keys,
     * and FourierMix to view the rows as [batch, seq, d] (it runs the
     * padding-free set only, see supportsMasking()). The default runs
     * forward(x), which is exact for row-wise layers. Inference-only:
     * backward() caches are not maintained.
     */
    virtual Tensor forwardRows(const Tensor &x, const RowSet &rows)
    {
        (void)rows;
        return forward(x);
    }

    /**
     * One autoregressive decode step: @p x is the [n_live, d] step
     * tensor (one new row per live sequence, the packed form of
     * RowSet(n_live, 1)) and @p step carries each sequence's K/V cache
     * for this layer plus the row's absolute position. Row-wise layers
     * need neither and the default - the layer's own forwardRows over
     * RowSet(n_live, 1) - is exact for them; MultiHeadAttention
     * overrides to append the step row's K/V projections and attend
     * over the cached prefix, bitwise identical to a full causal
     * recompute of the same position (nn/decode.h states the
     * induction; `ctest -L decode-parity` pins it). Inference-only.
     */
    virtual Tensor forwardStep(const Tensor &x, StepState &step)
    {
        (void)step;
        return forwardRows(x, RowSet(x.dim(0), 1));
    }

    /**
     * Ragged prompt prefill: exactly forwardRows(x, rows) - same bits,
     * same contract - except that attention layers additionally
     * capture each sequence's first rows.len(b) K/V projection rows
     * into @p step's caches, seeding incremental decode. Layers
     * without cross-sequence state ignore @p step (the default).
     * Inference-only.
     */
    virtual Tensor forwardPrefill(const Tensor &x, const RowSet &rows,
                                  StepState &step)
    {
        (void)step;
        return forwardRows(x, rows);
    }

    /**
     * Whether forwardRows() runs any RowSet: true for row-wise layers
     * and attention; false for layers that mix across the sequence
     * without a per-sequence form (FourierMix, whose FFT runs over the
     * whole padded length, so it takes the padding-free set only).
     * Composite layers forward the query to their children.
     * SequenceClassifier::forwardBatch hands a model the padding-free
     * set when this is false, and the serving engine refuses such
     * models unless told their results may depend on padding.
     */
    virtual bool supportsMasking() const { return true; }

    /**
     * Whether forwardRows() can run a padded length of @p seq rows at
     * all: true for every layer except FourierMix, whose FFT runs
     * power-of-two lengths only. Composite layers forward the query to
     * their children. The serving engine refuses, at admission, a
     * request whose padded length the model cannot run.
     */
    virtual bool runsLength(std::size_t seq) const
    {
        (void)seq;
        return true;
    }

    /**
     * Backward pass: given dL/d(output) returns dL/d(input) and
     * accumulates (+=) parameter gradients. Parallel (see
     * runtime/reduce.h for the determinism scheme) and bitwise
     * identical to backwardReference() at any thread count.
     */
    virtual Tensor backward(const Tensor &grad_out) = 0;

    /**
     * Seed serial backward, kept as the parity/bench baseline for the
     * parallel backward(). Same contract (returns dL/d(input),
     * accumulates parameter grads); layers whose fast backward
     * reorders work override this with the original serial loops.
     * Elementwise layers, where the parallel path trivially preserves
     * the serial arithmetic, keep this default. Composite layers
     * override it to recurse through their children's reference
     * paths.
     */
    virtual Tensor backwardReference(const Tensor &grad_out)
    {
        return backward(grad_out);
    }

    /** Append this layer's parameters to @p out. */
    virtual void collectParams(std::vector<ParamRef> &out)
    {
        (void)out;
    }

    /**
     * Inference-only reduced-precision replacement for this layer, or
     * null for layers that keep computing in fp32. Overridden by the
     * linears (Dense -> QuantizedDense, ButterflyDense ->
     * QuantizedButterflyDense) - the projections/FFNs are where the
     * weights and the multiply-accumulate work live, exactly the parts
     * the paper's datapath runs in reduced precision. Row-wise glue
     * (LayerNorm, activations, softmax, residuals) stays fp32.
     */
    virtual std::unique_ptr<Layer> quantizedReplacement(QuantKind kind) const
    {
        (void)kind;
        return nullptr;
    }

    /**
     * Recursively swap every child linear for its quantized
     * replacement (composite layers override: attention projections,
     * FFN linears, encoder-block children). Returns the number of
     * layers replaced. After this the layer is inference-only:
     * backward() on a replaced child throws.
     */
    virtual std::size_t quantizeLinears(QuantKind kind)
    {
        (void)kind;
        return 0;
    }

    /** Number of trainable scalars. */
    std::size_t numParams()
    {
        std::vector<ParamRef> ps;
        collectParams(ps);
        std::size_t n = 0;
        for (const auto &p : ps)
            n += p.value->size();
        return n;
    }
};

/**
 * The padding-free set over every row of @p x (the last dimension is
 * the features, each row its own one-row sequence): the set a training
 * forward() hands its forwardRows body.
 */
inline RowSet
allRows(const Tensor &x)
{
    const std::size_t d = x.shape().back();
    return RowSet(d ? x.size() / d : 0, 1);
}

/**
 * Throw std::invalid_argument unless @p x holds the packed rows of
 * @p rows: rows.totalRows() rows of @p features floats. The entry
 * points that read sequence boundaries call it, so a tensor in any
 * other layout - a right-padded [batch, seq, d] batch above all - is
 * refused instead of read at the wrong offsets.
 */
inline void
checkPackedRows(const Tensor &x, const RowSet &rows, std::size_t features,
                const char *who)
{
    if (x.rank() == 0 || x.shape().back() != features ||
        x.size() != rows.totalRows() * features)
        throw std::invalid_argument(
            std::string(who) + ": input " + x.shapeString() +
            " is not the packed rows of its RowSet");
}

/**
 * Size an unsized gradient buffer to @p n zeros. Layers allocate their
 * gradients on first use (backward(), zeroGrads(), an optimizer step),
 * so a model that only runs inference holds no gradient memory.
 */
inline void
sizeGrad(std::vector<float> &grad, std::size_t n)
{
    if (grad.size() != n)
        grad.assign(n, 0.0f);
}

/** Zero every gradient in @p params, sizing unsized ones. */
inline void
zeroGrads(const std::vector<ParamRef> &params)
{
    for (const auto &p : params)
        p.grad->assign(p.value->size(), 0.0f);
}

/**
 * Quantize one owned child: replace it outright when it offers a
 * quantized form, otherwise recurse into its own children. Composite
 * layers call this on each child from their quantizeLinears override.
 */
inline std::size_t
quantizeChildLayer(std::unique_ptr<Layer> &child, QuantKind kind)
{
    if (auto q = child->quantizedReplacement(kind)) {
        child = std::move(q);
        return 1;
    }
    return child->quantizeLinears(kind);
}

} // namespace nn
} // namespace fabnet

#endif // FABNET_NN_LAYER_H
