#include "nn/embedding.h"

#include <cmath>
#include <stdexcept>

#include "runtime/kernels.h"
#include "runtime/parallel.h"
#include "runtime/reduce.h"
#include "runtime/workspace.h"

namespace fabnet {
namespace nn {

Embedding::Embedding(std::size_t vocab, std::size_t max_seq,
                     std::size_t d_model, Rng &rng)
    : vocab_(vocab), max_seq_(max_seq), d_(d_model), tok_(vocab * d_model),
      pos_(max_seq * d_model)
{
    const float stddev = 0.02f;
    for (float &v : tok_)
        v = rng.normal(stddev);
    for (float &v : pos_)
        v = rng.normal(stddev);
}

void
Embedding::embedRow(int id, std::size_t t, float *row) const
{
    const float *te = &tok_[static_cast<std::size_t>(id) * d_];
    const float *pe = &pos_[t * d_];
    for (std::size_t j = 0; j < d_; ++j)
        row[j] = te[j] + pe[j];
}

Tensor
Embedding::forward(const std::vector<int> &tokens, std::size_t batch,
                   std::size_t seq)
{
    // The padding-free set packs to [batch * seq, d]: the same rows as
    // the [batch, seq, d] training batch.
    Tensor y = forwardRows(tokens, nn::RowSet(batch, seq))
                   .reshaped({batch, seq, d_});
    cached_tokens_ = tokens;
    b_ = batch;
    t_ = seq;
    return y;
}

Tensor
Embedding::forwardRows(const std::vector<int> &tokens,
                       const nn::RowSet &rows)
{
    const std::size_t batch = rows.batch();
    const std::size_t seq = rows.seq();
    if (tokens.size() != batch * seq)
        throw std::invalid_argument("Embedding: token count mismatch");
    if (seq > max_seq_)
        throw std::invalid_argument("Embedding: sequence too long");

    // Validate ALL positions first - including pads, whose embedding
    // work is skipped: ragged and padding-free execution of the same
    // tokens throw identically.
    for (const int id : tokens)
        if (id < 0 || static_cast<std::size_t>(id) >= vocab_)
            throw std::out_of_range("Embedding: token id out of range");

    // Pack: sequence b's first len(b) tokens land at rows start(b)...
    Tensor y = Tensor::zeros(rows.totalRows(), d_);
    float *py = y.data();
    runtime::parallelFor(0, batch, 1, [&](std::size_t b0, std::size_t b1) {
        for (std::size_t b = b0; b < b1; ++b)
            for (std::size_t t = 0; t < rows.len(b); ++t)
                embedRow(tokens[b * seq + t], t,
                         py + (rows.start(b) + t) * d_);
    });
    return y;
}

Tensor
Embedding::forwardStep(const std::vector<int> &tokens,
                       const std::vector<std::size_t> &positions)
{
    const std::size_t n = tokens.size();
    if (positions.size() != n)
        throw std::invalid_argument("Embedding::forwardStep: position count");

    Tensor y = Tensor::zeros(n, d_);
    for (std::size_t b = 0; b < n; ++b) {
        const int id = tokens[b];
        if (id < 0 || static_cast<std::size_t>(id) >= vocab_)
            throw std::out_of_range("Embedding: token id out of range");
        if (positions[b] >= max_seq_)
            throw std::invalid_argument("Embedding: sequence too long");
        embedRow(id, positions[b], y.data() + b * d_);
    }
    return y;
}

void
Embedding::backward(const Tensor &grad_out)
{
    sizeGrad(gtok_, tok_.size());
    sizeGrad(gpos_, pos_.size());
    const float *pg = grad_out.data();
    // Owner-parallel over hidden columns: task [j0, j1) owns those
    // columns of gtok_ AND gpos_, walking (b, t) in the reference's
    // ascending order, so the token scatter-add never races and every
    // element keeps its serial accumulation chain.
    runtime::parallelFor(0, d_, runtime::ownerGrain(d_, 16),
                         [&](std::size_t j0, std::size_t j1) {
        for (std::size_t b = 0; b < b_; ++b) {
            for (std::size_t t = 0; t < t_; ++t) {
                const int id = cached_tokens_[b * t_ + t];
                float *gt = &gtok_[static_cast<std::size_t>(id) * d_];
                float *gp = &gpos_[t * d_];
                const float *row = pg + (b * t_ + t) * d_;
                for (std::size_t j = j0; j < j1; ++j) {
                    gt[j] += row[j];
                    gp[j] += row[j];
                }
            }
        }
    });
}

void
Embedding::backwardReference(const Tensor &grad_out)
{
    sizeGrad(gtok_, tok_.size());
    sizeGrad(gpos_, pos_.size());
    const float *pg = grad_out.data();
    for (std::size_t b = 0; b < b_; ++b) {
        for (std::size_t t = 0; t < t_; ++t) {
            const int id = cached_tokens_[b * t_ + t];
            float *gt = &gtok_[static_cast<std::size_t>(id) * d_];
            float *gp = &gpos_[t * d_];
            const float *row = pg + (b * t_ + t) * d_;
            for (std::size_t j = 0; j < d_; ++j) {
                gt[j] += row[j];
                gp[j] += row[j];
            }
        }
    }
}

void
Embedding::collectParams(std::vector<ParamRef> &out)
{
    out.push_back({&tok_, &gtok_});
    out.push_back({&pos_, &gpos_});
}

MeanPoolClassifier::MeanPoolClassifier(std::size_t d_model,
                                       std::size_t classes, Rng &rng)
    : d_(d_model), classes_(classes), w_(classes * d_model),
      b_(classes, 0.0f)
{
    const float stddev = std::sqrt(2.0f / static_cast<float>(d_model));
    for (float &v : w_)
        v = rng.normal(stddev);
}

Tensor
MeanPoolClassifier::projectPooled() const
{
    Tensor logits = Tensor::zeros(batch_, classes_);
    for (std::size_t b = 0; b < batch_; ++b) {
        const float *pool = cached_pooled_.data() + b * d_;
        float *lr = logits.data() + b * classes_;
        for (std::size_t c = 0; c < classes_; ++c) {
            const float *wr = &w_[c * d_];
            float acc = b_[c];
            for (std::size_t j = 0; j < d_; ++j)
                acc += wr[j] * pool[j];
            lr[c] = acc;
        }
    }
    return logits;
}

Tensor
MeanPoolClassifier::forward(const Tensor &x)
{
    if (x.rank() != 3 || x.dim(2) != d_)
        throw std::invalid_argument("MeanPoolClassifier: [b,t,d] required");
    return forwardMasked(x, nn::RowSet(x.dim(0), x.dim(1)),
                         std::vector<std::size_t>(x.dim(0), x.dim(1)));
}

Tensor
MeanPoolClassifier::forwardMasked(const Tensor &x, const nn::RowSet &rows,
                                  const std::vector<std::size_t> &lens)
{
    checkPackedRows(x, rows, d_, "MeanPoolClassifier::forwardMasked");
    if (lens.size() != rows.batch())
        throw std::invalid_argument(
            "MeanPoolClassifier::forwardMasked: lens size != batch");
    batch_ = rows.batch();
    t_ = rows.seq();

    // The sum and the divisor cover each sequence's first lens[b] rows
    // only: bitwise equal to pooling an unpadded length-lens[b] input.
    cached_pooled_ = Tensor::zeros(batch_, d_);
    for (std::size_t b = 0; b < batch_; ++b) {
        const std::size_t valid = lens[b];
        if (valid == 0 || valid > rows.len(b))
            throw std::invalid_argument(
                "MeanPoolClassifier::forwardMasked: len out of "
                "[1, rows.len(b)]");
        const float inv = 1.0f / static_cast<float>(valid);
        float *pool = cached_pooled_.data() + b * d_;
        for (std::size_t t = 0; t < valid; ++t) {
            const float *row = x.data() + (rows.start(b) + t) * d_;
            for (std::size_t j = 0; j < d_; ++j)
                pool[j] += row[j] * inv;
        }
    }

    return projectPooled();
}

namespace {

/** Workspace tag for the per-thread pooled-gradient buffer. */
struct PoolGradWs;

} // namespace

Tensor
MeanPoolClassifier::backward(const Tensor &grad_logits)
{
    sizeGrad(gw_, w_.size());
    sizeGrad(gb_, b_.size());
    Tensor gx = Tensor::zeros(batch_, t_, d_);
    const float inv_t = 1.0f / static_cast<float>(t_);
    const float *pgl = grad_logits.data();
    float *pgx = gx.data();

    // dL/dx: batch elements are independent; the per-batch pooled
    // gradient is recomputed in the reference's ascending-c order
    // into a per-thread buffer.
    runtime::parallelFor(0, batch_, 1, [&](std::size_t b0,
                                           std::size_t b1) {
        float *gpool = runtime::threadWorkspace<PoolGradWs>(d_);
        for (std::size_t b = b0; b < b1; ++b) {
            const float *gl = pgl + b * classes_;
            std::fill(gpool, gpool + d_, 0.0f);
            for (std::size_t c = 0; c < classes_; ++c) {
                const float g = gl[c];
                const float *wr = &w_[c * d_];
                for (std::size_t j = 0; j < d_; ++j)
                    gpool[j] = runtime::madd(g, wr[j], gpool[j]);
            }
            for (std::size_t t = 0; t < t_; ++t) {
                float *row = pgx + (b * t_ + t) * d_;
                for (std::size_t j = 0; j < d_; ++j)
                    row[j] = gpool[j] * inv_t;
            }
        }
    });

    // dL/dW, dL/db: owner-parallel over classes, batch ascending
    // (runtime/reduce.h).
    runtime::parallelFor(0, classes_, 1, [&](std::size_t c0,
                                             std::size_t c1) {
        for (std::size_t b = 0; b < batch_; ++b) {
            const float *gl = pgl + b * classes_;
            const float *pool = cached_pooled_.data() + b * d_;
            for (std::size_t c = c0; c < c1; ++c) {
                const float g = gl[c];
                gb_[c] += g;
                float *gwr = &gw_[c * d_];
                for (std::size_t j = 0; j < d_; ++j)
                    gwr[j] = runtime::madd(g, pool[j], gwr[j]);
            }
        }
    });
    return gx;
}

Tensor
MeanPoolClassifier::backwardReference(const Tensor &grad_logits)
{
    sizeGrad(gw_, w_.size());
    sizeGrad(gb_, b_.size());
    Tensor gx = Tensor::zeros(batch_, t_, d_);
    const float inv_t = 1.0f / static_cast<float>(t_);
    std::vector<float> gpool(d_);
    for (std::size_t b = 0; b < batch_; ++b) {
        const float *gl = grad_logits.data() + b * classes_;
        const float *pool = cached_pooled_.data() + b * d_;
        std::fill(gpool.begin(), gpool.end(), 0.0f);
        for (std::size_t c = 0; c < classes_; ++c) {
            const float g = gl[c];
            gb_[c] += g;
            float *gwr = &gw_[c * d_];
            const float *wr = &w_[c * d_];
            for (std::size_t j = 0; j < d_; ++j) {
                gwr[j] = runtime::madd(g, pool[j], gwr[j]);
                gpool[j] = runtime::madd(g, wr[j], gpool[j]);
            }
        }
        for (std::size_t t = 0; t < t_; ++t) {
            float *row = gx.data() + (b * t_ + t) * d_;
            for (std::size_t j = 0; j < d_; ++j)
                row[j] = gpool[j] * inv_t;
        }
    }
    return gx;
}

void
MeanPoolClassifier::collectParams(std::vector<ParamRef> &out)
{
    out.push_back({&w_, &gw_});
    out.push_back({&b_, &gb_});
}

float
softmaxCrossEntropy(const Tensor &logits, const std::vector<int> &labels,
                    Tensor &grad_logits)
{
    const std::size_t batch = logits.dim(0);
    const std::size_t classes = logits.dim(1);
    if (labels.size() != batch)
        throw std::invalid_argument("softmaxCrossEntropy: label count");

    grad_logits = Tensor::zeros(batch, classes);
    double loss = 0.0;
    const float inv_b = 1.0f / static_cast<float>(batch);
    for (std::size_t b = 0; b < batch; ++b) {
        const float *lr = logits.data() + b * classes;
        float *gr = grad_logits.data() + b * classes;
        float mx = lr[0];
        for (std::size_t c = 1; c < classes; ++c)
            mx = std::max(mx, lr[c]);
        double denom = 0.0;
        for (std::size_t c = 0; c < classes; ++c)
            denom += std::exp(static_cast<double>(lr[c] - mx));
        const int y = labels[b];
        loss -= (static_cast<double>(lr[y] - mx) - std::log(denom));
        for (std::size_t c = 0; c < classes; ++c) {
            const float p = static_cast<float>(
                std::exp(static_cast<double>(lr[c] - mx)) / denom);
            gr[c] = (p - (static_cast<int>(c) == y ? 1.0f : 0.0f)) * inv_b;
        }
    }
    return static_cast<float>(loss / batch);
}

std::vector<int>
argmaxRows(const Tensor &logits)
{
    const std::size_t batch = logits.dim(0);
    const std::size_t classes = logits.dim(1);
    std::vector<int> out(batch, 0);
    for (std::size_t b = 0; b < batch; ++b) {
        const float *lr = logits.data() + b * classes;
        int best = 0;
        for (std::size_t c = 1; c < classes; ++c)
            if (lr[c] > lr[best])
                best = static_cast<int>(c);
        out[b] = best;
    }
    return out;
}

} // namespace nn
} // namespace fabnet
