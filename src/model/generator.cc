#include "model/generator.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "nn/attention.h"
#include "nn/basic_layers.h"
#include "runtime/parallel.h"

namespace fabnet {

namespace {

std::unique_ptr<nn::Layer>
makeLinear(LinearKind kind, std::size_t in, std::size_t out, Rng &rng)
{
    if (kind == LinearKind::Dense)
        return std::make_unique<nn::Dense>(in, out, rng);
    return std::make_unique<nn::ButterflyDense>(in, out, rng);
}

} // namespace

CausalGenerator::CausalGenerator(
    const ModelConfig &cfg,
    std::vector<std::unique_ptr<nn::Layer>> mixers,
    std::vector<std::unique_ptr<nn::Layer>> ffns, Rng &rng)
    : cfg_(cfg), embedding_(cfg.vocab, cfg.max_seq, cfg.d_hid, rng),
      head_(cfg.d_hid, cfg.vocab, rng)
{
    if (mixers.size() != cfg.n_total || ffns.size() != cfg.n_total)
        throw std::invalid_argument(
            "CausalGenerator: need n_total mixers and ffns");
    for (std::size_t i = 0; i < cfg.n_total; ++i) {
        const auto *mha =
            dynamic_cast<const nn::MultiHeadAttention *>(mixers[i].get());
        if (mha == nullptr || !mha->causal())
            throw std::invalid_argument(
                "CausalGenerator: every mixer must be causal "
                "MultiHeadAttention (incremental decode has no form for "
                "global or future-reading mixers)");
        blocks_.push_back(std::make_unique<nn::EncoderBlock>(
            cfg.d_hid, std::move(mixers[i]), std::move(ffns[i])));
    }
}

SequenceState
CausalGenerator::newState() const
{
    SequenceState s;
    s.layers.resize(blocks_.size());
    return s;
}

Tensor
CausalGenerator::headLogits(const Tensor &x, const nn::RowSet &rows)
{
    // Gather each sequence's last row out of the packed rows and
    // project the [n, d] result through the LM head. Dense is row-wise,
    // so the logits row's bits depend only on the gathered hidden row.
    const std::size_t n = rows.batch();
    const std::size_t d = cfg_.d_hid;
    Tensor last = Tensor::zeros(n, d);
    for (std::size_t b = 0; b < n; ++b)
        std::memcpy(last.data() + b * d,
                    x.data() + (rows.start(b) + rows.len(b) - 1) * d,
                    d * sizeof(float));
    return head_.forwardRows(last, nn::RowSet(n, 1));
}

Tensor
CausalGenerator::batchedForward(
    const std::vector<std::vector<int>> &seqs,
    const std::vector<SequenceState *> *states)
{
    const std::size_t n = seqs.size();
    if (n == 0)
        throw std::invalid_argument("CausalGenerator: empty batch");
    std::size_t seq = 0;
    std::vector<std::size_t> lens(n);
    for (std::size_t b = 0; b < n; ++b) {
        lens[b] = seqs[b].size();
        if (lens[b] == 0)
            throw std::invalid_argument(
                "CausalGenerator: empty sequence");
        if (lens[b] > cfg_.max_seq)
            throw std::invalid_argument(
                "CausalGenerator: sequence longer than max_seq");
        seq = std::max(seq, lens[b]);
    }
    // Right-pad with token 0 (never embedded - the embedding packs the
    // valid rows only - but range-checked like any id).
    std::vector<int> flat(n * seq, 0);
    for (std::size_t b = 0; b < n; ++b)
        std::copy(seqs[b].begin(), seqs[b].end(),
                  flat.begin() + static_cast<std::ptrdiff_t>(b * seq));
    const nn::RowSet rows(n, seq, lens);

    Tensor x = embedding_.forwardRows(flat, rows);
    for (std::size_t l = 0; l < blocks_.size(); ++l) {
        runtime::checkCancelled();
        if (states) {
            nn::StepState st;
            st.caches.resize(n);
            st.positions.assign(n, 0);
            for (std::size_t b = 0; b < n; ++b)
                st.caches[b] = &(*states)[b]->layers[l];
            x = blocks_[l]->forwardPrefill(x, rows, st);
        } else {
            x = blocks_[l]->forwardRows(x, rows);
        }
    }
    runtime::checkCancelled();
    return headLogits(x, rows);
}

Tensor
CausalGenerator::prefill(const std::vector<std::vector<int>> &prompts,
                         const std::vector<SequenceState *> &states)
{
    if (states.size() != prompts.size())
        throw std::invalid_argument(
            "CausalGenerator::prefill: state count != prompt count");
    for (std::size_t b = 0; b < states.size(); ++b) {
        if (states[b] == nullptr ||
            states[b]->layers.size() != blocks_.size())
            throw std::invalid_argument(
                "CausalGenerator::prefill: state not from newState()");
        if (states[b]->len != 0)
            throw std::logic_error(
                "CausalGenerator::prefill: state already prefilled");
    }
    Tensor logits = batchedForward(prompts, &states);
    for (std::size_t b = 0; b < states.size(); ++b)
        states[b]->len = prompts[b].size();
    return logits;
}

Tensor
CausalGenerator::decodeStep(const std::vector<int> &tokens,
                            const std::vector<SequenceState *> &states)
{
    const std::size_t n = tokens.size();
    if (n == 0)
        throw std::invalid_argument(
            "CausalGenerator::decodeStep: empty step");
    if (states.size() != n)
        throw std::invalid_argument(
            "CausalGenerator::decodeStep: state count != token count");
    std::vector<std::size_t> positions(n);
    for (std::size_t b = 0; b < n; ++b) {
        if (states[b] == nullptr ||
            states[b]->layers.size() != blocks_.size())
            throw std::invalid_argument(
                "CausalGenerator::decodeStep: state not from newState()");
        if (states[b]->len == 0)
            throw std::logic_error(
                "CausalGenerator::decodeStep: state not prefilled");
        if (states[b]->len >= cfg_.max_seq)
            throw std::invalid_argument(
                "CausalGenerator::decodeStep: sequence at max_seq");
        positions[b] = states[b]->len;
    }

    Tensor x = embedding_.forwardStep(tokens, positions);
    for (std::size_t l = 0; l < blocks_.size(); ++l) {
        runtime::checkCancelled();
        nn::StepState st;
        st.caches.resize(n);
        st.positions = positions;
        for (std::size_t b = 0; b < n; ++b)
            st.caches[b] = &states[b]->layers[l];
        x = blocks_[l]->forwardStep(x, st);
    }
    runtime::checkCancelled();
    for (std::size_t b = 0; b < n; ++b)
        states[b]->len += 1;
    return headLogits(x, nn::RowSet(n, 1));
}

Tensor
CausalGenerator::forwardFull(const std::vector<std::vector<int>> &seqs)
{
    return batchedForward(seqs, nullptr);
}

void
CausalGenerator::rollback(SequenceState &state, std::size_t new_len) const
{
    for (nn::KVCache &c : state.layers)
        c.truncate(new_len, cfg_.d_hid);
    if (state.len > new_len)
        state.len = new_len;
}

std::size_t
CausalGenerator::quantizeLinears(QuantKind kind)
{
    std::size_t n = 0;
    for (auto &b : blocks_)
        n += b->quantizeLinears(kind);
    return n;
}

std::unique_ptr<CausalGenerator>
buildGenerator(const ModelConfig &cfg, Rng &rng)
{
    if (!cfg.causal)
        throw std::invalid_argument(
            "buildGenerator: cfg.causal must be true");
    if (cfg.kind == ModelKind::FNet)
        throw std::invalid_argument(
            "buildGenerator: FNet has no incremental decode form");
    const LinearKind lin = cfg.kind == ModelKind::FABNet
                               ? LinearKind::Butterfly
                               : LinearKind::Dense;
    const std::size_t d = cfg.d_hid;
    std::vector<std::unique_ptr<nn::Layer>> mixers;
    std::vector<std::unique_ptr<nn::Layer>> ffns;
    for (std::size_t i = 0; i < cfg.n_total; ++i) {
        auto mha = std::make_unique<nn::MultiHeadAttention>(
            d, cfg.heads, makeLinear(lin, d, d, rng),
            makeLinear(lin, d, d, rng), makeLinear(lin, d, d, rng),
            makeLinear(lin, d, d, rng), /*causal=*/true);
        // Same uniform application as buildModel's makeMixer: no rng
        // draw, so sparse generator variants share a seed's weights.
        mha->setSparse(cfg.attn_sparse);
        mixers.push_back(std::move(mha));
        ffns.push_back(std::make_unique<nn::FeedForward>(
            makeLinear(lin, d, cfg.ffnHidden(), rng),
            std::make_unique<nn::Gelu>(),
            makeLinear(lin, cfg.ffnHidden(), d, rng)));
    }
    return std::make_unique<CausalGenerator>(cfg, std::move(mixers),
                                             std::move(ffns), rng);
}

} // namespace fabnet
