/**
 * @file quantized.h
 * QuantizedSequenceClassifier: the int8/fp16 inference path.
 *
 * Takes ownership of a (typically trained) SequenceClassifier and
 * swaps every linear inside its encoder blocks for the quantized
 * runtime kernels (SequenceClassifier::quantizeLinears); embedding,
 * layer norms, the attention core and the pooled head stay fp32. The
 * result is inference-only - training paths throw - but forward,
 * forwardBatch and evaluate keep their contracts, including the
 * masked-batch bitwise guarantee the serving engine relies on: the
 * quantized linears are row-wise and thread-count-invariant, so a
 * served int8/fp16 model produces logits bitwise identical to serial
 * single-request inference on the same quantized model.
 *
 * Serve one end-to-end with the existing front end:
 *
 *     auto model = buildModel(cfg, rng);          // + training
 *     QuantizedSequenceClassifier q(std::move(model), QuantKind::Int8);
 *     serve::ServingEngine engine(q.model(), serving_cfg);
 */
#ifndef FABNET_MODEL_QUANTIZED_H
#define FABNET_MODEL_QUANTIZED_H

#include <memory>
#include <stdexcept>

#include "model/classifier.h"
#include "tensor/quant.h"

namespace fabnet {

/** Owning wrapper that quantizes a model's linears at construction. */
class QuantizedSequenceClassifier
{
  public:
    QuantizedSequenceClassifier(
        std::unique_ptr<SequenceClassifier> model, QuantKind kind)
        : model_(std::move(model)), kind_(kind)
    {
        if (!model_)
            throw std::invalid_argument(
                "QuantizedSequenceClassifier: null model");
        replaced_ = model_->quantizeLinears(kind_);
    }

    QuantKind kind() const { return kind_; }

    /** Number of linear layers running in reduced precision. */
    std::size_t quantizedLayerCount() const { return replaced_; }

    /** The underlying (now quantized) model, e.g. for ServingEngine. */
    SequenceClassifier &model() { return *model_; }
    const SequenceClassifier &model() const { return *model_; }

    /** Inference passthroughs (see model/classifier.h). */
    Tensor forward(const std::vector<int> &tokens, std::size_t batch,
                   std::size_t seq)
    {
        return model_->forward(tokens, batch, seq);
    }

    Tensor forwardBatch(const std::vector<int> &tokens,
                        std::size_t batch, std::size_t seq,
                        const std::vector<std::size_t> &lens)
    {
        return model_->forwardBatch(tokens, batch, seq, lens);
    }

    bool supportsMaskedBatch() const
    {
        return model_->supportsMaskedBatch();
    }

    double evaluate(const std::vector<Example> &data, std::size_t seq,
                    std::size_t batch_size = 16)
    {
        return model_->evaluate(data, seq, batch_size);
    }

  private:
    std::unique_ptr<SequenceClassifier> model_;
    QuantKind kind_;
    std::size_t replaced_ = 0;
};

} // namespace fabnet

#endif // FABNET_MODEL_QUANTIZED_H
