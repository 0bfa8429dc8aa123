/**
 * @file embedding.h
 * Token + learned positional embedding, and the pooled classifier head.
 */
#ifndef FABNET_NN_EMBEDDING_H
#define FABNET_NN_EMBEDDING_H

#include <memory>
#include <vector>

#include "nn/layer.h"
#include "nn/rowset.h"
#include "tensor/rng.h"

namespace fabnet {
namespace nn {

/** Token embedding with learned positional embedding added. */
class Embedding
{
  public:
    Embedding(std::size_t vocab, std::size_t max_seq, std::size_t d_model,
              Rng &rng);

    /** forwardRows over the padding-free RowSet(batch, seq) as a
     *  [batch, seq, d] batch, plus the token cache for backward().
     *  tokens is a flat [batch*seq] id array. */
    Tensor forward(const std::vector<int> &tokens, std::size_t batch,
                   std::size_t seq);

    /**
     * Ragged inference embedding, where the packed layout begins:
     * @p tokens is the right-padded [batch * seq] id array, and the
     * result is [rows.totalRows(), d] with sequence b's first
     * rows.len(b) tokens at rows [rows.start(b), rows.start(b) +
     * rows.len(b)) (nn/rowset.h). Pad tokens are never embedded,
     * though every id (pads included) is still range-checked so ragged
     * and padding-free execution throw identically. Rows bitwise equal
     * forward(); inference-only (no token cache for backward()).
     */
    Tensor forwardRows(const std::vector<int> &tokens,
                       const nn::RowSet &rows);

    /**
     * One decode step: embed tokens[b] at absolute position
     * positions[b], returning [n, d] (the packed form of
     * RowSet(n, 1)). Each row is forwardRows' own
     * row lookup (embedRow) of the (b, positions[b]) row, so step rows
     * bitwise match a full-recompute embedding. Inference-only (no
     * token cache for backward()).
     */
    Tensor forwardStep(const std::vector<int> &tokens,
                       const std::vector<std::size_t> &positions);

    /**
     * Accumulate gradients into the embedding tables. The token-table
     * update is a scatter-add (one token id can appear in many rows),
     * so the parallel path is owner-parallel over hidden columns
     * (runtime/reduce.h): each task owns a column range of BOTH tables
     * and walks the positions in ascending order - bitwise identical
     * to backwardReference at any thread count.
     */
    void backward(const Tensor &grad_out);

    /** Seed serial backward (position-outer loops), parity baseline. */
    void backwardReference(const Tensor &grad_out);

    void collectParams(std::vector<ParamRef> &out);

    std::size_t vocab() const { return vocab_; }
    std::size_t dModel() const { return d_; }

  private:
    /** row = tok[id] + pos[t], the one lookup every forward runs. */
    void embedRow(int id, std::size_t t, float *row) const;

    std::size_t vocab_, max_seq_, d_;
    std::vector<float> tok_, pos_;
    std::vector<float> gtok_, gpos_;
    std::vector<int> cached_tokens_;
    std::size_t b_ = 0, t_ = 0;
};

/** Mean-pool over the sequence followed by a dense classifier. */
class MeanPoolClassifier
{
  public:
    MeanPoolClassifier(std::size_t d_model, std::size_t classes, Rng &rng);

    /** [b, t, d] -> logits [b, classes]: forwardMasked over the
     *  padding-free RowSet(b, t), pooling every row. */
    Tensor forward(const Tensor &x);

    /**
     * Masked pooling over packed rows: @p x is [rows.totalRows(), d]
     * and sequence b is averaged over the first lens[b] rows of its
     * segment, from rows.start(b) (divided by lens[b]), so the pooled
     * vector - and the logits row - match an unpadded length-lens[b]
     * forward bit for bit. An attention model passes lens =
     * rows.lens(); a Fourier model runs the padding-free set and
     * passes each request's real length. Throws std::invalid_argument
     * unless @p x holds rows.totalRows() rows and every lens[b] is in
     * [1, rows.len(b)]. backward() assumes every length equals t (the
     * forward() case).
     */
    Tensor forwardMasked(const Tensor &x, const nn::RowSet &rows,
                         const std::vector<std::size_t> &lens);

    /**
     * dL/dlogits [b, classes] -> dL/dx [b, t, d]. Parallel: dL/dx
     * rows per batch element (disjoint), classifier dL/dW and dL/db
     * owner-parallel over classes with ascending-batch accumulation.
     * Bitwise identical to backwardReference at any thread count.
     */
    Tensor backward(const Tensor &grad_logits);

    /** Seed serial backward, parity baseline. */
    Tensor backwardReference(const Tensor &grad_logits);

    void collectParams(std::vector<ParamRef> &out);

  private:
    /** cached_pooled_ -> logits [b, classes]. */
    Tensor projectPooled() const;

    std::size_t d_, classes_;
    std::vector<float> w_, b_;
    std::vector<float> gw_, gb_;
    Tensor cached_pooled_; // [b, d]
    std::size_t batch_ = 0, t_ = 0;
};

/**
 * Softmax cross-entropy loss.
 * @return mean loss over the batch; @p grad_logits receives dL/dlogits.
 */
float softmaxCrossEntropy(const Tensor &logits,
                          const std::vector<int> &labels,
                          Tensor &grad_logits);

/** Argmax predictions of a [b, classes] logits tensor. */
std::vector<int> argmaxRows(const Tensor &logits);

} // namespace nn
} // namespace fabnet

#endif // FABNET_NN_EMBEDDING_H
