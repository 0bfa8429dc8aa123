#include "model/classifier.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>

#include "runtime/parallel.h"

namespace fabnet {

Batch
makeBatch(const std::vector<Example> &data, std::size_t start,
          std::size_t count, std::size_t seq, int pad_token)
{
    Batch b;
    b.batch = count;
    b.seq = seq;
    b.tokens.assign(count * seq, pad_token);
    b.labels.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        const Example &ex = data[start + i];
        const std::size_t n = std::min(ex.tokens.size(), seq);
        std::copy_n(ex.tokens.begin(), n, b.tokens.begin() + i * seq);
        b.labels[i] = ex.label;
    }
    return b;
}

SequenceClassifier::SequenceClassifier(
    const ModelConfig &cfg, std::vector<std::unique_ptr<nn::Layer>> mixers,
    std::vector<std::unique_ptr<nn::Layer>> ffns, Rng &rng)
    : cfg_(cfg), embedding_(cfg.vocab, cfg.max_seq, cfg.d_hid, rng),
      head_(cfg.d_hid, cfg.classes, rng)
{
    if (mixers.size() != cfg.n_total || ffns.size() != cfg.n_total)
        throw std::invalid_argument(
            "SequenceClassifier: need n_total mixers and ffns");
    blocks_.reserve(cfg.n_total);
    for (std::size_t i = 0; i < cfg.n_total; ++i) {
        blocks_.push_back(std::make_unique<nn::EncoderBlock>(
            cfg.d_hid, std::move(mixers[i]), std::move(ffns[i])));
    }
}

Tensor
SequenceClassifier::forward(const std::vector<int> &tokens,
                            std::size_t batch, std::size_t seq)
{
    Tensor x = embedding_.forward(tokens, batch, seq);
    for (auto &blk : blocks_)
        x = blk->forward(x);
    return head_.forward(x);
}

Tensor
SequenceClassifier::forwardBatch(const std::vector<int> &tokens,
                                 std::size_t batch, std::size_t seq,
                                 const std::vector<std::size_t> &lens)
{
    if (lens.size() != batch)
        throw std::invalid_argument(
            "SequenceClassifier::forwardBatch: lens size != batch");
    for (std::size_t L : lens)
        if (L == 0 || L > seq)
            throw std::invalid_argument(
                "SequenceClassifier::forwardBatch: len out of [1, seq]");
    // The embedding packs the valid rows once; a maskable model's
    // layers never see a pad. Fourier mixers mix the embedded pad rows
    // in, so their models run the padding-free set.
    // Serving cancellation (watchdog / shutdown deadline): in addition
    // to the per-grain poll inside every parallelFor, re-check between
    // blocks so a cancelled invocation unwinds at layer granularity
    // even on the serial fast paths. No-op without a CancelScope.
    const nn::RowSet rows = supportsMaskedBatch()
                                ? nn::RowSet(batch, seq, lens)
                                : nn::RowSet(batch, seq);
    Tensor x = embedding_.forwardRows(tokens, rows);
    for (auto &blk : blocks_) {
        runtime::checkCancelled();
        x = blk->forwardRows(x, rows);
    }
    return head_.forwardMasked(x, rows, lens);
}

std::size_t
SequenceClassifier::quantizeLinears(QuantKind kind)
{
    std::size_t replaced = 0;
    for (auto &blk : blocks_)
        replaced += blk->quantizeLinears(kind);
    return replaced;
}

bool
SequenceClassifier::supportsMaskedBatch() const
{
    for (const auto &blk : blocks_)
        if (!blk->supportsMasking())
            return false;
    return true;
}

bool
SequenceClassifier::runsLength(std::size_t seq) const
{
    for (const auto &blk : blocks_)
        if (!blk->runsLength(seq))
            return false;
    return true;
}

float
SequenceClassifier::trainBatch(const Batch &batch, nn::Adam &opt,
                               float clip_norm)
{
    return trainBatchImpl(batch, opt, clip_norm, false);
}

float
SequenceClassifier::trainBatchReference(const Batch &batch, nn::Adam &opt,
                                        float clip_norm)
{
    return trainBatchImpl(batch, opt, clip_norm, true);
}

float
SequenceClassifier::trainBatchImpl(const Batch &batch, nn::Adam &opt,
                                   float clip_norm,
                                   bool reference_backward)
{
    Tensor logits = forward(batch.tokens, batch.batch, batch.seq);
    Tensor grad_logits;
    const float loss =
        nn::softmaxCrossEntropy(logits, batch.labels, grad_logits);

    if (reference_backward) {
        Tensor g = head_.backwardReference(grad_logits);
        for (std::size_t i = blocks_.size(); i-- > 0;)
            g = blocks_[i]->backwardReference(g);
        embedding_.backwardReference(g);
    } else {
        Tensor g = head_.backward(grad_logits);
        for (std::size_t i = blocks_.size(); i-- > 0;)
            g = blocks_[i]->backward(g);
        embedding_.backward(g);
    }

    auto ps = params();
    if (clip_norm > 0.0f)
        nn::clipGradNorm(ps, clip_norm);
    opt.step();
    return loss;
}

double
SequenceClassifier::evaluate(const std::vector<Example> &data,
                             std::size_t seq, std::size_t batch_size)
{
    std::size_t correct = 0;
    for (std::size_t start = 0; start < data.size();
         start += batch_size) {
        const std::size_t count =
            std::min(batch_size, data.size() - start);
        Batch b = makeBatch(data, start, count, seq);
        // Every row is real here (pads included), but forwardBatch
        // skips the backward caches forward() would fill - attention's
        // [batch, heads*seq, seq] scores above all. Same logits bits.
        Tensor logits = forwardBatch(b.tokens, b.batch, b.seq,
                                     std::vector<std::size_t>(count, seq));
        const std::vector<int> pred = nn::argmaxRows(logits);
        for (std::size_t i = 0; i < count; ++i)
            if (pred[i] == b.labels[i])
                ++correct;
    }
    return data.empty()
               ? 0.0
               : static_cast<double>(correct) / data.size();
}

std::vector<nn::ParamRef>
SequenceClassifier::params()
{
    std::vector<nn::ParamRef> ps;
    embedding_.collectParams(ps);
    for (auto &blk : blocks_)
        blk->collectParams(ps);
    head_.collectParams(ps);
    return ps;
}

std::size_t
SequenceClassifier::numParams()
{
    std::size_t n = 0;
    for (const auto &p : params())
        n += p.value->size();
    return n;
}

double
trainClassifier(SequenceClassifier &model,
                const std::vector<Example> &train,
                const std::vector<Example> &test, std::size_t seq,
                std::size_t epochs, std::size_t batch_size, float lr,
                Rng &rng, bool verbose)
{
    nn::Adam opt(model.params(), lr);
    std::vector<std::size_t> order(train.size());
    std::iota(order.begin(), order.end(), 0);

    double acc = 0.0;
    for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
        std::shuffle(order.begin(), order.end(), rng.engine());
        std::vector<Example> shuffled;
        shuffled.reserve(train.size());
        for (std::size_t idx : order)
            shuffled.push_back(train[idx]);

        double epoch_loss = 0.0;
        std::size_t batches = 0;
        for (std::size_t start = 0; start + batch_size <= shuffled.size();
             start += batch_size) {
            Batch b = makeBatch(shuffled, start, batch_size, seq);
            epoch_loss += model.trainBatch(b, opt);
            ++batches;
        }
        acc = model.evaluate(test, seq, batch_size);
        if (verbose) {
            std::printf("  epoch %zu: loss=%.4f test_acc=%.3f\n",
                        epoch + 1,
                        batches ? epoch_loss / batches : 0.0, acc);
        }
    }
    return acc;
}

} // namespace fabnet
