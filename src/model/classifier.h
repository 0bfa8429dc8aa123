/**
 * @file classifier.h
 * End-to-end sequence classifier: embedding -> encoder blocks ->
 * mean-pool head, with training and evaluation loops. This is the
 * trainable object behind Fig. 16 and Table III.
 */
#ifndef FABNET_MODEL_CLASSIFIER_H
#define FABNET_MODEL_CLASSIFIER_H

#include <memory>
#include <vector>

#include "model/config.h"
#include "nn/block.h"
#include "nn/embedding.h"
#include "nn/layer.h"
#include "nn/optimizer.h"
#include "tensor/rng.h"

namespace fabnet {

/** A labelled token sequence. */
struct Example
{
    std::vector<int> tokens;
    int label = 0;
};

/** Batch of examples with identical sequence length. */
struct Batch
{
    std::vector<int> tokens; ///< flat [batch * seq]
    std::vector<int> labels; ///< [batch]
    std::size_t batch = 0;
    std::size_t seq = 0;
};

/** Assemble a batch from a slice of a dataset (sequences padded/cut). */
Batch makeBatch(const std::vector<Example> &data, std::size_t start,
                std::size_t count, std::size_t seq, int pad_token = 0);

/** Embedding + encoder stack + pooled classifier head. */
class SequenceClassifier
{
  public:
    /**
     * Build from per-block specs. @p mixers and @p ffns are consumed;
     * both must have cfg.n_total entries.
     */
    SequenceClassifier(const ModelConfig &cfg,
                       std::vector<std::unique_ptr<nn::Layer>> mixers,
                       std::vector<std::unique_ptr<nn::Layer>> ffns,
                       Rng &rng);

    /** Logits [batch, classes] for a token batch. */
    Tensor forward(const std::vector<int> &tokens, std::size_t batch,
                   std::size_t seq);

    /**
     * Inference logits for a right-padded batch of mixed-length
     * sequences: @p tokens is flat [batch * seq] with sequence b
     * occupying the first lens[b] slots of its row and pad tokens
     * after. The pooled head averages over the real prefix only.
     *
     * Execution: one forwardRows chain over packed rows (nn/rowset.h).
     * A maskable model (supportsMaskedBatch()) runs the nn::RowSet of
     * @p lens: the embedding packs each sequence's real rows back to
     * back, so no layer ever computes a pad, and attention runs each
     * sequence over its own keys. Each logits row is bitwise identical
     * to forward(sequence_b, 1, lens[b]) at any thread count - the
     * property the serving engine (serve/serving.h) relies on and
     * `ragged-parity` pins. A model with Fourier mixers (no
     * per-sequence form, see nn/layer.h) runs the padding-free
     * RowSet: every row, pads included, is embedded and mixed, and
     * the head pools each sequence's first lens[b] rows, so each
     * logits row is reproducible only against the same row served at
     * the same padded length. Inference-only: do not call
     * trainBatch-style backward passes after it.
     */
    Tensor forwardBatch(const std::vector<int> &tokens, std::size_t batch,
                        std::size_t seq,
                        const std::vector<std::size_t> &lens);

    /**
     * True when every block honours the padding mask exactly
     * (nn::Layer::supportsMasking over the actual layers, not the
     * config), i.e. forwardBatch results are independent of padding.
     */
    bool supportsMaskedBatch() const;

    /**
     * True when every block can run a padded length of @p seq
     * (nn::Layer::runsLength): false only for lengths a Fourier
     * mixer's power-of-two FFT cannot take. The serving engine asks
     * this before admitting a request.
     */
    bool runsLength(std::size_t seq) const;

    /**
     * Replace every linear inside the encoder blocks (attention
     * projections, FFN linears - dense or butterfly) with its
     * inference-only quantized form (nn::QuantizedDense /
     * nn::QuantizedButterflyDense). Embedding, layer norms, the
     * attention core and the pooled head stay fp32, mirroring the
     * paper's split between the reduced-precision engines and the
     * fp32 host glue. Returns the number of layers replaced. The
     * model must not be trained afterwards (backward throws); forward,
     * forwardBatch, evaluate and serving keep working, and the
     * quantized layers are row-wise so supportsMaskedBatch() - and
     * with it the serving engine's determinism guarantee - is
     * unaffected. Usually reached through QuantizedSequenceClassifier
     * (model/quantized.h).
     */
    std::size_t quantizeLinears(QuantKind kind);

    /**
     * One optimisation step on a batch: forward, softmax
     * cross-entropy, parallel backward through the head / encoder
     * blocks / embedding, deterministic gradient clipping and the
     * optimizer update. Bitwise identical to trainBatchReference at
     * any thread count (the grad-parity and training-convergence
     * tests pin this down).
     * @return the batch cross-entropy loss.
     */
    float trainBatch(const Batch &batch, nn::Adam &opt,
                     float clip_norm = 1.0f);

    /**
     * Same step driven through every layer's backwardReference (the
     * seed serial backward) - the parity and bench baseline for
     * trainBatch.
     */
    float trainBatchReference(const Batch &batch, nn::Adam &opt,
                              float clip_norm = 1.0f);

    /** Classification accuracy over a dataset, batched internally
     *  through forwardBatch (no training caches; same logits as
     *  forward). */
    double evaluate(const std::vector<Example> &data, std::size_t seq,
                    std::size_t batch_size = 16);

    /** All trainable parameters, for the optimiser. */
    std::vector<nn::ParamRef> params();

    std::size_t numParams();

    const ModelConfig &config() const { return cfg_; }

  private:
    /** Shared body of trainBatch/trainBatchReference. */
    float trainBatchImpl(const Batch &batch, nn::Adam &opt,
                         float clip_norm, bool reference_backward);

    ModelConfig cfg_;
    nn::Embedding embedding_;
    std::vector<std::unique_ptr<nn::EncoderBlock>> blocks_;
    nn::MeanPoolClassifier head_;
};

/**
 * Train @p model for @p epochs over @p train, reporting accuracy on
 * @p test after every epoch. Returns the final test accuracy.
 */
double trainClassifier(SequenceClassifier &model,
                       const std::vector<Example> &train,
                       const std::vector<Example> &test, std::size_t seq,
                       std::size_t epochs, std::size_t batch_size,
                       float lr, Rng &rng, bool verbose = false);

} // namespace fabnet

#endif // FABNET_MODEL_CLASSIFIER_H
