#include "model/builder.h"

#include <stdexcept>

#include "nn/attention.h"
#include "nn/basic_layers.h"
#include "nn/dense.h"

namespace fabnet {

namespace {

std::unique_ptr<nn::Layer>
makeLinear(LinearKind kind, std::size_t in, std::size_t out, Rng &rng)
{
    if (kind == LinearKind::Dense)
        return std::make_unique<nn::Dense>(in, out, rng);
    return std::make_unique<nn::ButterflyDense>(in, out, rng);
}

std::unique_ptr<nn::Layer>
makeMixer(MixerKind mixer, LinearKind proj, const ModelConfig &cfg,
          Rng &rng)
{
    if (mixer == MixerKind::Fourier)
        return std::make_unique<nn::FourierMix>(cfg.d_hid);
    const std::size_t d = cfg.d_hid;
    auto mha = std::make_unique<nn::MultiHeadAttention>(
        d, cfg.heads, makeLinear(proj, d, d, rng),
        makeLinear(proj, d, d, rng), makeLinear(proj, d, d, rng),
        makeLinear(proj, d, d, rng), cfg.causal);
    // Approximate-attention config rides on the model config so every
    // builder (classifier, generator, partially-compressed) applies it
    // uniformly; setSparse draws nothing from rng, so sparse variants
    // of a seed share the exact same weights.
    mha->setSparse(cfg.attn_sparse);
    return mha;
}

std::unique_ptr<nn::Layer>
makeFfn(LinearKind kind, const ModelConfig &cfg, Rng &rng)
{
    const std::size_t d = cfg.d_hid;
    const std::size_t h = cfg.ffnHidden();
    return std::make_unique<nn::FeedForward>(
        makeLinear(kind, d, h, rng), std::make_unique<nn::Gelu>(),
        makeLinear(kind, h, d, rng));
}

} // namespace

std::unique_ptr<SequenceClassifier>
buildModel(const ModelConfig &cfg, Rng &rng)
{
    std::vector<std::unique_ptr<nn::Layer>> mixers;
    std::vector<std::unique_ptr<nn::Layer>> ffns;
    mixers.reserve(cfg.n_total);
    ffns.reserve(cfg.n_total);

    for (std::size_t i = 0; i < cfg.n_total; ++i) {
        switch (cfg.kind) {
          case ModelKind::Transformer:
            mixers.push_back(makeMixer(MixerKind::Attention,
                                       LinearKind::Dense, cfg, rng));
            ffns.push_back(makeFfn(LinearKind::Dense, cfg, rng));
            break;
          case ModelKind::FNet:
            mixers.push_back(
                makeMixer(MixerKind::Fourier, LinearKind::Dense, cfg,
                          rng));
            ffns.push_back(makeFfn(LinearKind::Dense, cfg, rng));
            break;
          case ModelKind::FABNet: {
            // N_fbfly FBfly blocks first, then N_abfly ABfly blocks
            // (Fig. 5).
            const std::size_t n_fbfly = cfg.n_total - cfg.n_abfly;
            if (cfg.n_abfly > cfg.n_total)
                throw std::invalid_argument(
                    "buildModel: n_abfly > n_total");
            if (i < n_fbfly) {
                mixers.push_back(makeMixer(MixerKind::Fourier,
                                           LinearKind::Butterfly, cfg,
                                           rng));
            } else {
                mixers.push_back(makeMixer(MixerKind::Attention,
                                           LinearKind::Butterfly, cfg,
                                           rng));
            }
            ffns.push_back(makeFfn(LinearKind::Butterfly, cfg, rng));
            break;
          }
        }
    }
    return std::make_unique<SequenceClassifier>(cfg, std::move(mixers),
                                                std::move(ffns), rng);
}

std::unique_ptr<SequenceClassifier>
buildPartiallyCompressed(const ModelConfig &cfg, std::size_t n_compressed,
                         Rng &rng)
{
    if (n_compressed > cfg.n_total)
        throw std::invalid_argument(
            "buildPartiallyCompressed: too many compressed layers");

    std::vector<std::unique_ptr<nn::Layer>> mixers;
    std::vector<std::unique_ptr<nn::Layer>> ffns;
    const std::size_t first_compressed = cfg.n_total - n_compressed;
    for (std::size_t i = 0; i < cfg.n_total; ++i) {
        if (i < first_compressed) {
            mixers.push_back(makeMixer(MixerKind::Attention,
                                       LinearKind::Dense, cfg, rng));
            ffns.push_back(makeFfn(LinearKind::Dense, cfg, rng));
        } else {
            mixers.push_back(makeMixer(MixerKind::Fourier,
                                       LinearKind::Butterfly, cfg, rng));
            ffns.push_back(makeFfn(LinearKind::Butterfly, cfg, rng));
        }
    }
    return std::make_unique<SequenceClassifier>(cfg, std::move(mixers),
                                                std::move(ffns), rng);
}

} // namespace fabnet
