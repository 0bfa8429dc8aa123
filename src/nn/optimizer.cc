#include "nn/optimizer.h"

#include <cmath>

#include "runtime/parallel.h"
#include "runtime/reduce.h"

namespace fabnet {
namespace nn {

namespace {

/** Elements per parallel chunk of the elementwise update sweeps. */
constexpr std::size_t kStepGrain = 1 << 13;

} // namespace

Adam::Adam(std::vector<ParamRef> params, float lr, float beta1, float beta2,
           float eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps)
{
    m_.resize(params_.size());
    v_.resize(params_.size());
    for (std::size_t i = 0; i < params_.size(); ++i) {
        m_[i].assign(params_[i].value->size(), 0.0f);
        v_[i].assign(params_[i].value->size(), 0.0f);
    }
}

void
Adam::step()
{
    ++t_;
    const float bc1 =
        1.0f - std::pow(beta1_, static_cast<float>(t_));
    const float bc2 =
        1.0f - std::pow(beta2_, static_cast<float>(t_));
    // Elementwise per parameter: chunked parallelism is bitwise
    // identical to the serial sweep (no cross-element arithmetic).
    for (std::size_t i = 0; i < params_.size(); ++i) {
        auto &w = *params_[i].value;
        auto &g = *params_[i].grad;
        sizeGrad(g, w.size()); // a layer backward() never reached
        auto &m = m_[i];
        auto &v = v_[i];
        runtime::parallelFor(
            0, w.size(), kStepGrain,
            [&](std::size_t j0, std::size_t j1) {
                for (std::size_t j = j0; j < j1; ++j) {
                    m[j] = beta1_ * m[j] + (1.0f - beta1_) * g[j];
                    v[j] = beta2_ * v[j] + (1.0f - beta2_) * g[j] * g[j];
                    const float mhat = m[j] / bc1;
                    const float vhat = v[j] / bc2;
                    w[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
                }
            });
        std::fill(g.begin(), g.end(), 0.0f);
    }
}

float
clipGradNorm(const std::vector<ParamRef> &params, float max_norm)
{
    // Global norm via the deterministic chunked reduction
    // (runtime/reduce.h): per-parameter fixed-shape partial sums
    // folded by a pairwise tree, then summed across parameters in
    // collection order. The reduction shape depends only on the
    // parameter sizes, never the thread count, so the clipped
    // gradients - and with them whole training trajectories - are
    // identical at any thread count.
    std::vector<double> per_param(params.size(), 0.0);
    for (std::size_t i = 0; i < params.size(); ++i)
        per_param[i] = runtime::deterministicSumSquares(
            params[i].grad->data(), params[i].grad->size());
    double sq = 0.0;
    for (double s : per_param)
        sq += s;
    const float norm = static_cast<float>(std::sqrt(sq));
    if (norm > max_norm && norm > 0.0f) {
        const float scale = max_norm / norm;
        for (const auto &p : params) {
            float *g = p.grad->data();
            runtime::parallelFor(0, p.grad->size(), kStepGrain,
                                 [&](std::size_t j0, std::size_t j1) {
                                     for (std::size_t j = j0; j < j1;
                                          ++j)
                                         g[j] *= scale;
                                 });
        }
    }
    return norm;
}

} // namespace nn
} // namespace fabnet
