/**
 * @file optimizer_test.cpp
 * Adam convergence and gradient clipping.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "nn/optimizer.h"

namespace fabnet {
namespace nn {
namespace {

/** Quadratic bowl: L = 0.5 * sum((w - target)^2). */
struct Quadratic
{
    std::vector<float> w;
    std::vector<float> g;
    std::vector<float> target;

    explicit Quadratic(std::vector<float> t)
        : w(t.size(), 0.0f), g(t.size(), 0.0f), target(std::move(t))
    {
    }

    ParamRef param() { return {&w, &g}; }

    float computeGrad()
    {
        float loss = 0.0f;
        for (std::size_t i = 0; i < w.size(); ++i) {
            g[i] += w[i] - target[i];
            loss += 0.5f * (w[i] - target[i]) * (w[i] - target[i]);
        }
        return loss;
    }
};

TEST(Adam, ConvergesOnQuadratic)
{
    Quadratic q({0.5f, -1.5f, 4.0f, 0.0f});
    Adam opt({q.param()}, 0.05f);
    for (int i = 0; i < 500; ++i) {
        q.computeGrad();
        opt.step();
    }
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(q.w[i], q.target[i], 1e-2f);
}

TEST(Adam, HandlesIllConditionedScales)
{
    // Targets at wildly different scales: Adam's per-coordinate
    // normalisation should reach both.
    Quadratic q({1000.0f, 0.001f});
    Adam opt({q.param()}, 1.0f);
    for (int i = 0; i < 3000; ++i) {
        q.computeGrad();
        opt.step();
    }
    EXPECT_NEAR(q.w[0], 1000.0f, 5.0f);
    EXPECT_NEAR(q.w[1], 0.001f, 0.01f);
}

TEST(Adam, StepCounterAdvances)
{
    Quadratic q({1.0f});
    Adam opt({q.param()});
    EXPECT_EQ(opt.stepCount(), 0);
    q.computeGrad();
    opt.step();
    EXPECT_EQ(opt.stepCount(), 1);
}

TEST(ClipGradNorm, ScalesDownLargeGradients)
{
    std::vector<float> w = {0.0f, 0.0f};
    std::vector<float> g = {3.0f, 4.0f}; // norm 5
    std::vector<ParamRef> ps = {{&w, &g}};
    const float norm = clipGradNorm(ps, 1.0f);
    EXPECT_NEAR(norm, 5.0f, 1e-5f);
    EXPECT_NEAR(g[0], 0.6f, 1e-5f);
    EXPECT_NEAR(g[1], 0.8f, 1e-5f);
}

TEST(ClipGradNorm, LeavesSmallGradientsAlone)
{
    std::vector<float> w = {0.0f};
    std::vector<float> g = {0.5f};
    std::vector<ParamRef> ps = {{&w, &g}};
    clipGradNorm(ps, 1.0f);
    EXPECT_FLOAT_EQ(g[0], 0.5f);
}

} // namespace
} // namespace nn
} // namespace fabnet
