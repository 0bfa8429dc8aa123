#include "model/flops.h"

#include <cmath>

#include "butterfly/fft.h"

namespace fabnet {

namespace {

double
log2d(std::size_t n)
{
    return std::log2(static_cast<double>(n));
}

/** LayerNorm + residual cost per block: ~12 FLOPs per element, 2x. */
double
blockOtherFlops(std::size_t seq, std::size_t d_hid)
{
    return 2.0 * 12.0 * static_cast<double>(seq) *
           static_cast<double>(d_hid);
}

} // namespace

double
denseLinearFlops(std::size_t tokens, std::size_t in, std::size_t out)
{
    return 2.0 * static_cast<double>(tokens) * static_cast<double>(in) *
           static_cast<double>(out);
}

double
butterflyLinearFlops(std::size_t tokens, std::size_t in, std::size_t out)
{
    const std::size_t n = std::max<std::size_t>(nextPowerOfTwo(in), 2);
    const std::size_t cores = (out + n - 1) / n;
    const double per_core = static_cast<double>(n) / 2.0 * log2d(n) * 6.0;
    return static_cast<double>(tokens) *
           (static_cast<double>(cores) * per_core +
            static_cast<double>(out));
}

double
attentionCoreFlops(std::size_t seq, std::size_t d_hid, std::size_t heads)
{
    const double t = static_cast<double>(seq);
    const double d = static_cast<double>(d_hid);
    const double h = static_cast<double>(heads);
    const double qk = 2.0 * t * t * d;      // Q x K^T over all heads
    const double sv = 2.0 * t * t * d;      // S x V over all heads
    const double softmax = 5.0 * h * t * t; // exp + normalise
    return qk + sv + softmax;
}

double
fourierMixFlops(std::size_t seq, std::size_t d_hid)
{
    const double t = static_cast<double>(seq);
    const double d = static_cast<double>(d_hid);
    // One radix-2 butterfly = 10 FLOPs (complex mul + 2 complex adds).
    const double fft_hidden = t * (d / 2.0) * log2d(d_hid) * 10.0;
    const double fft_seq = d * (t / 2.0) * log2d(seq) * 10.0;
    return fft_hidden + fft_seq;
}

FlopsBreakdown
modelFlops(const ModelConfig &cfg, std::size_t seq)
{
    FlopsBreakdown fb;
    const std::size_t d = cfg.d_hid;
    const std::size_t h = cfg.ffnHidden();

    const double dense_proj = 4.0 * denseLinearFlops(seq, d, d);
    const double dense_ffn =
        denseLinearFlops(seq, d, h) + denseLinearFlops(seq, h, d);
    const double bfly_proj = 4.0 * butterflyLinearFlops(seq, d, d);
    const double bfly_ffn = butterflyLinearFlops(seq, d, h) +
                            butterflyLinearFlops(seq, h, d);
    const double attn = attentionCoreFlops(seq, d, cfg.heads);
    const double fft = fourierMixFlops(seq, d);

    switch (cfg.kind) {
      case ModelKind::Transformer:
        fb.attention = attn * static_cast<double>(cfg.n_total);
        fb.linear =
            (dense_proj + dense_ffn) * static_cast<double>(cfg.n_total);
        break;
      case ModelKind::FNet:
        fb.fft = fft * static_cast<double>(cfg.n_total);
        fb.linear = dense_ffn * static_cast<double>(cfg.n_total);
        break;
      case ModelKind::FABNet: {
        const std::size_t n_fbfly = cfg.n_total - cfg.n_abfly;
        fb.fft = fft * static_cast<double>(n_fbfly);
        fb.attention = attn * static_cast<double>(cfg.n_abfly);
        fb.butterfly =
            bfly_ffn * static_cast<double>(cfg.n_total) +
            bfly_proj * static_cast<double>(cfg.n_abfly);
        break;
      }
    }
    fb.other = blockOtherFlops(seq, d) * static_cast<double>(cfg.n_total);
    return fb;
}

std::size_t
denseLinearParams(std::size_t in, std::size_t out)
{
    return in * out + out;
}

std::size_t
butterflyLinearParams(std::size_t in, std::size_t out)
{
    const std::size_t n = std::max<std::size_t>(nextPowerOfTwo(in), 2);
    const std::size_t cores = (out + n - 1) / n;
    const std::size_t per_core =
        2 * n * log2Exact(n); // 4 weights x N/2 pairs x log2 N stages
    return cores * per_core + out;
}

std::size_t
modelParams(const ModelConfig &cfg)
{
    const std::size_t d = cfg.d_hid;
    const std::size_t h = cfg.ffnHidden();
    const std::size_t ln = 2 * d * 2; // two layer norms per block

    std::size_t per_block = 0;
    switch (cfg.kind) {
      case ModelKind::Transformer:
        per_block = 4 * denseLinearParams(d, d) +
                    denseLinearParams(d, h) + denseLinearParams(h, d) +
                    ln;
        return per_block * cfg.n_total;
      case ModelKind::FNet:
        per_block = denseLinearParams(d, h) + denseLinearParams(h, d) +
                    ln;
        return per_block * cfg.n_total;
      case ModelKind::FABNet: {
        const std::size_t fbfly = butterflyLinearParams(d, h) +
                                  butterflyLinearParams(h, d) + ln;
        const std::size_t abfly =
            fbfly + 4 * butterflyLinearParams(d, d);
        const std::size_t n_fbfly = cfg.n_total - cfg.n_abfly;
        return fbfly * n_fbfly + abfly * cfg.n_abfly;
      }
    }
    return 0;
}

} // namespace fabnet
