/**
 * @file flops.h
 * Analytical FLOPs and parameter counting for all model families.
 *
 * Conventions: 1 multiply-accumulate = 2 FLOPs; a complex multiply is
 * 6 FLOPs and a complex add 2 FLOPs, so one radix-2 FFT butterfly
 * (1 cmul + 2 cadd) costs 10 FLOPs; one real butterfly-linear pair
 * (4 mul + 2 add) costs 6 FLOPs.
 *
 * These counters drive Fig. 1 (operation breakdown vs sequence length)
 * and Fig. 17 (FLOPs / model-size reduction of FABNet).
 */
#ifndef FABNET_MODEL_FLOPS_H
#define FABNET_MODEL_FLOPS_H

#include <cstddef>

#include "model/config.h"

namespace fabnet {

/** Per-category FLOPs of one forward pass (batch size 1). */
struct FlopsBreakdown
{
    double attention = 0.0; ///< QK^T, softmax, SV
    double linear = 0.0;    ///< dense projections and FFN
    double butterfly = 0.0; ///< butterfly linear layers
    double fft = 0.0;       ///< 2-D Fourier mixing
    double other = 0.0;     ///< layer norm, residual adds

    double total() const
    {
        return attention + linear + butterfly + fft + other;
    }

    /** Fraction of total taken by the attention mechanism. */
    double attentionShare() const
    {
        const double t = total();
        return t > 0.0 ? attention / t : 0.0;
    }

    /** Fraction of total taken by (dense + butterfly) linear layers. */
    double linearShare() const
    {
        const double t = total();
        return t > 0.0 ? (linear + butterfly) / t : 0.0;
    }
};

/** FLOPs of a dense linear layer over @p tokens tokens. */
double denseLinearFlops(std::size_t tokens, std::size_t in,
                        std::size_t out);

/** FLOPs of a butterfly linear layer over @p tokens tokens. */
double butterflyLinearFlops(std::size_t tokens, std::size_t in,
                            std::size_t out);

/** FLOPs of the attention core (no projections) for one layer. */
double attentionCoreFlops(std::size_t seq, std::size_t d_hid,
                          std::size_t heads);

/** FLOPs of the 2-D FFT mixer on a [seq, d_hid] activation. */
double fourierMixFlops(std::size_t seq, std::size_t d_hid);

/** Full-model forward FLOPs, split by category. */
FlopsBreakdown modelFlops(const ModelConfig &cfg, std::size_t seq);

/** Trainable parameter count (blocks only, no embeddings/head). */
std::size_t modelParams(const ModelConfig &cfg);

/** Parameters of one dense linear layer. */
std::size_t denseLinearParams(std::size_t in, std::size_t out);

/** Parameters of one butterfly linear layer. */
std::size_t butterflyLinearParams(std::size_t in, std::size_t out);

} // namespace fabnet

#endif // FABNET_MODEL_FLOPS_H
