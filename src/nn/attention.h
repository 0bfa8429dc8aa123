/**
 * @file attention.h
 * Multi-head self-attention with pluggable projection layers.
 *
 * The projections (Q, K, V, output) are injected as generic layers so
 * the same attention core serves both the vanilla Transformer (Dense
 * projections) and FABNet's ABfly block (ButterflyDense projections) -
 * exactly the structure of Fig. 5 in the paper.
 */
#ifndef FABNET_NN_ATTENTION_H
#define FABNET_NN_ATTENTION_H

#include <memory>
#include <vector>

#include "nn/layer.h"
#include "nn/sparse_attention.h"

namespace fabnet {
namespace nn {

/** Multi-head scaled-dot-product self-attention. */
class MultiHeadAttention : public Layer
{
  public:
    /**
     * @param d_model  hidden size (must be divisible by @p heads)
     * @param heads    number of attention heads
     * @param proj_q/k/v/o  projection layers mapping d_model->d_model
     * @param causal   mask future positions (decoder-style attention;
     *                 the paper notes its design "is flexible and
     *                 applicable to decoders too")
     */
    MultiHeadAttention(std::size_t d_model, std::size_t heads,
                       std::unique_ptr<Layer> proj_q,
                       std::unique_ptr<Layer> proj_k,
                       std::unique_ptr<Layer> proj_v,
                       std::unique_ptr<Layer> proj_o,
                       bool causal = false);

    bool causal() const { return causal_; }

    /**
     * Install an approximate-attention configuration
     * (nn/sparse_attention.h): top-k score selection, the butterfly
     * candidate set, or both. Applies to every forward entry point
     * (forward/forwardRows/forwardStep/forwardPrefill);
     * forwardReference stays exact as the tolerance baseline. The
     * approximate paths keep the bitwise determinism contract -
     * identical bits run-to-run at any thread count and batch
     * composition - and TopK with k >= t degenerates bitwise to the
     * dense path. Training works: backward() treats the unselected
     * (zero) attn_ entries as masked, i.e. straight-through selection.
     * Throws std::invalid_argument on an invalid config.
     */
    void setSparse(const SparseAttentionConfig &sparse);
    const SparseAttentionConfig &sparse() const { return sparse_; }

    /**
     * Parallel forward: per-(batch, head) tasks gather contiguous head
     * slices and run blocks of query rows through the scores/softmax/
     * context pipeline - one score GEMM and one context GEMM per block
     * on the shared micro-kernels (runtime/kernels.h). Bitwise
     * identical to forwardReference at any thread count.
     */
    Tensor forward(const Tensor &x) override;

    /**
     * Inference forward over packed rows (nn/layer.h): the Q/K/V/output
     * projections run through their own forwardRows, and each
     * (sequence, head) task attends the sequence's rows
     * [rows.start(b), rows.start(b) + rows.len(b)) over those rows'
     * keys only, so every row performs exactly the floating-point ops
     * of an unpadded length-rows.len(b) forward - bitwise identical at
     * any thread count. The softmax-scores cache (attn_,
     * O(batch * heads * seq^2)) is not materialised. Throws
     * std::invalid_argument unless @p x is [rows.totalRows(), d].
     * Inference-only.
     */
    Tensor forwardRows(const Tensor &x, const RowSet &rows) override;

    /**
     * One incremental decode step over per-sequence K/V prefix caches
     * (nn/decode.h): the packed body over RowSet(n_live, 1) of the
     * [n_live, d] step tensor. Each step row's K/V projections are
     * APPENDED to its sequence's cache, then the row attends over the
     * whole cached prefix - bitwise identical to a full causal
     * recompute of that position, at any thread count and any
     * live-set composition. Requires causal attention (the cached
     * prefix IS the visible set). Inference-only.
     */
    Tensor forwardStep(const Tensor &x, StepState &step) override;

    /**
     * Ragged prompt prefill: the same body with empty caches in
     * @p step - each sequence's rows.len(b) projected K/V rows are
     * appended, then its rows attend over them. Same bits and same
     * packed input as forwardRows(x, rows). Requires causal attention
     * and empty caches. Inference-only.
     */
    Tensor forwardPrefill(const Tensor &x, const RowSet &rows,
                          StepState &step) override;

    /**
     * Seed scalar forward (5-deep nested loops), kept as the parity
     * and bench baseline. Fills the same caches as forward(), so
     * backward() works after either.
     */
    Tensor forwardReference(const Tensor &x);

    /**
     * Parallel backward: one task per (batch, head) gathers that
     * head's Q/K/V/dL-dcontext slices into contiguous panels and runs
     * the seed per-head loops on them, accumulating dL/dq, dL/dk and
     * dL/dv into per-thread panels that are copied to disjoint head
     * slices - no cross-thread gradient reduction (runtime/reduce.h).
     * Bitwise identical to backwardReference at any thread count; the
     * projection backwards run through the projections' own parallel
     * paths.
     */
    Tensor backward(const Tensor &grad_out) override;

    /**
     * Seed scalar backward (the PR-1 serial loops), kept as the
     * parity/bench baseline; recurses through the projections'
     * backwardReference.
     */
    Tensor backwardReference(const Tensor &grad_out) override;

    void collectParams(std::vector<ParamRef> &out) override;

    /**
     * Swap the Q/K/V/output projections for their quantized forms (the
     * attention core - scores, softmax, context - stays fp32, as in
     * the paper's post-processing path). Inference-only afterwards.
     */
    std::size_t quantizeLinears(QuantKind kind) override;

    std::size_t heads() const { return heads_; }
    std::size_t headDim() const { return d_model_ / heads_; }

  private:
    /**
     * Shared body of every forward entry point over the rows of @p x,
     * sequence b at rows [rows.start(b), rows.start(b) + rows.len(b)).
     * @p train is the training forward: a padding-free [b, t, d]
     * batch, projections via forward(), q_/k_/v_/attn_ caches filled.
     * Otherwise packed inference (projections via forwardRows, no
     * training caches); with @p step, each sequence's K/V rows are
     * appended to its cache first and its rows then attend over the
     * whole cache, at positions cache.len - rows.len(b) onward. One
     * copy of the scores/softmax/context pipeline keeps the entry
     * points bitwise-synchronised by construction.
     */
    Tensor forwardImpl(const Tensor &x, const RowSet &rows,
                       StepState *step, bool train);

    std::size_t d_model_, heads_;
    bool causal_ = false;
    SparseAttentionConfig sparse_; // default: exact attention
    std::unique_ptr<Layer> proj_q_, proj_k_, proj_v_, proj_o_;

    // Forward caches.
    Tensor q_, k_, v_;     // [b, t, d]
    Tensor attn_;          // softmax scores, [b, heads*t, t]
    std::size_t b_ = 0, t_ = 0;
};

} // namespace nn
} // namespace fabnet

#endif // FABNET_NN_ATTENTION_H
