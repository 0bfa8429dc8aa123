/**
 * @file generator.h
 * Causal autoregressive generator: embedding -> causal encoder blocks
 * -> LM head, with incremental K/V-cached decode.
 *
 * The decode contract (nn/decode.h): prefill() captures each prompt's
 * K/V projections while computing its last-position logits, and every
 * decodeStep() then advances all live sequences by one token as a
 * ragged batch of "one new row per live sequence" - BITWISE identical
 * to a full causal recompute (forwardFull) at every step, any thread
 * count and any live-set composition (`ctest -L decode-parity`). That
 * identity is what lets the continuous scheduler
 * (serve/generation.h) admit and evict sequences between steps
 * without perturbing anyone's tokens.
 */
#ifndef FABNET_MODEL_GENERATOR_H
#define FABNET_MODEL_GENERATOR_H

#include <memory>
#include <vector>

#include "model/config.h"
#include "nn/block.h"
#include "nn/decode.h"
#include "nn/dense.h"
#include "nn/embedding.h"
#include "tensor/rng.h"

namespace fabnet {

/**
 * One live sequence's decode state: a K/V prefix cache per encoder
 * block plus the number of positions cached so far. Owned by the
 * caller (the scheduler keeps one per live request); the generator
 * only reads/appends through the pointers handed to each call.
 */
struct SequenceState
{
    std::vector<nn::KVCache> layers; ///< one per encoder block
    std::size_t len = 0;             ///< positions cached so far
};

/** Embedding + causal attention blocks + dense LM head. */
class CausalGenerator
{
  public:
    /**
     * Build from per-block specs (consumed; cfg.n_total entries each).
     * Every mixer must be causal MultiHeadAttention - Fourier mixing
     * is global over the sequence, so it has no incremental form and
     * is rejected here, as is non-causal attention (its rows depend on
     * future positions a decode step has not produced yet).
     */
    CausalGenerator(const ModelConfig &cfg,
                    std::vector<std::unique_ptr<nn::Layer>> mixers,
                    std::vector<std::unique_ptr<nn::Layer>> ffns,
                    Rng &rng);

    /** A fresh state with one empty cache per block. */
    SequenceState newState() const;

    /**
     * Ragged batched prompt prefill: computes every prompt's hidden
     * states in one packed batch (nn/rowset.h - no pad is computed,
     * each prompt's rows bitwise match an unpadded run), captures each
     * sequence's K/V projections into its
     * @p states entry, and returns the [n, vocab] logits of each
     * prompt's LAST position - the distribution the first generated
     * token is sampled from. States must be fresh (len == 0).
     * Inference-only; cancellable between blocks (runtime/parallel.h).
     */
    Tensor prefill(const std::vector<std::vector<int>> &prompts,
                   const std::vector<SequenceState *> &states);

    /**
     * One decode step: @p tokens[b] is live sequence b's newest token
     * (sampled from the previous call's logits row b), appended at
     * position states[b]->len. Returns the [n, vocab] logits of the
     * appended positions and advances every state by one. The live
     * set may differ from call to call in any way - rows are
     * independent, so each sequence's bits depend only on its own
     * prefix. Inference-only; cancellable between blocks.
     */
    Tensor decodeStep(const std::vector<int> &tokens,
                      const std::vector<SequenceState *> &states);

    /**
     * Full-recompute reference: last-position logits of each sequence,
     * computed from scratch as one ragged batch with no caches - the
     * baseline the decode-parity suite compares prefill/decodeStep
     * against, and the flush-per-batch strawman the bench measures the
     * continuous scheduler over. Inference-only.
     */
    Tensor forwardFull(const std::vector<std::vector<int>> &seqs);

    /**
     * Drop @p state's cached rows past @p new_len in every block
     * (step-fault rollback: a faulted step may have appended K/V rows
     * before throwing; truncating restores the exact pre-step state,
     * so a retried step reproduces the same bits).
     */
    void rollback(SequenceState &state, std::size_t new_len) const;

    /**
     * Quantize the blocks' linears (attention projections + FFN); the
     * embedding and LM head stay fp32, like the classifier's split.
     * Decode parity is preserved: int8 activation quantisation is
     * per-row and fp16 rounding per-element, both row-independent.
     */
    std::size_t quantizeLinears(QuantKind kind);

    const ModelConfig &config() const { return cfg_; }
    std::size_t vocab() const { return cfg_.vocab; }
    std::size_t maxSeq() const { return cfg_.max_seq; }
    std::size_t numBlocks() const { return blocks_.size(); }

  private:
    /** Shared ragged body of prefill/forwardFull; null = no capture. */
    Tensor batchedForward(const std::vector<std::vector<int>> &seqs,
                          const std::vector<SequenceState *> *states);

    /** Each sequence's last packed row of @p x + LM head ->
     *  [n, vocab]. */
    Tensor headLogits(const Tensor &x, const nn::RowSet &rows);

    ModelConfig cfg_;
    nn::Embedding embedding_;
    std::vector<std::unique_ptr<nn::EncoderBlock>> blocks_;
    nn::Dense head_; ///< d_hid -> vocab, fp32
};

/**
 * Build a causal generator from @p cfg: attention mixers in every
 * block (Dense linears for Transformer, butterfly linears for FABNet -
 * all blocks ABfly, since Fourier mixing cannot decode incrementally;
 * FNet is rejected). Requires cfg.causal = true.
 */
std::unique_ptr<CausalGenerator> buildGenerator(const ModelConfig &cfg,
                                                Rng &rng);

} // namespace fabnet

#endif // FABNET_MODEL_GENERATOR_H
