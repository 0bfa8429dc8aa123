/**
 * @file optimizer.h
 * The Adam optimiser over flat parameter lists, and gradient clipping.
 */
#ifndef FABNET_NN_OPTIMIZER_H
#define FABNET_NN_OPTIMIZER_H

#include <vector>

#include "nn/layer.h"

namespace fabnet {
namespace nn {

/** Adam (Kingma & Ba) with bias correction. */
class Adam
{
  public:
    explicit Adam(std::vector<ParamRef> params, float lr = 1e-3f,
                  float beta1 = 0.9f, float beta2 = 0.999f,
                  float eps = 1e-8f);

    /** Apply one update using the accumulated gradients, then zero them. */
    void step();

    float lr() const { return lr_; }
    void setLr(float lr) { lr_ = lr; }
    long stepCount() const { return t_; }

  private:
    std::vector<ParamRef> params_;
    float lr_, beta1_, beta2_, eps_;
    long t_ = 0;
    std::vector<std::vector<float>> m_, v_;
};

/**
 * Global gradient-norm clipping; returns the pre-clip norm. The norm
 * is computed with the deterministic chunked tree reduction
 * (runtime/reduce.h) and the scaling sweep is elementwise-parallel,
 * so the clipped gradients are bitwise identical at any thread count.
 */
float clipGradNorm(const std::vector<ParamRef> &params, float max_norm);

} // namespace nn
} // namespace fabnet

#endif // FABNET_NN_OPTIMIZER_H
