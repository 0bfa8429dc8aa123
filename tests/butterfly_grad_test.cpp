/**
 * @file butterfly_grad_test.cpp
 * Finite-difference validation of the butterfly backward passes - the
 * gradients that make FABNet trainable. Ported onto the shared
 * harness (tests/test_util.h): the seed suite's fixed shapes are
 * widened with randomized sweeps driven by nn/gradcheck.h, and the
 * layer-level gradcheck sweeps repeat at thread counts {1, 4, 8}.
 * The ButterflyMatrix/ButterflyLinear kernel-level cases run once at
 * the default pool size - thread-count invariance of those kernels is
 * pinned bitwise (not just within FD tolerance) by
 * backward_parity_test.cpp.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "butterfly/butterfly.h"
#include "nn/dense.h"
#include "nn/gradcheck.h"
#include "runtime/parallel.h"
#include "tensor/rng.h"
#include "test_util.h"

namespace fabnet {
namespace {

using ButterflyGrad = testutil::RuntimeFixture;

/** L = sum(out * probe); loss under the one-row applyRows path. */
double
lossOf(const ButterflyMatrix &m, const std::vector<float> &x,
       const std::vector<float> &probe)
{
    std::vector<float> y(m.size());
    m.applyRows(x.data(), y.data(), 1);
    double l = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i)
        l += static_cast<double>(y[i]) * probe[i];
    return l;
}

TEST_F(ButterflyGrad, InputGradientMatchesFiniteDifferenceSweep)
{
    // Randomized size sweep instead of the seed's fixed n=16.
    Rng shapes(31);
    std::vector<std::size_t> sizes = {4, 16};
    for (int i = 0; i < 2; ++i)
        sizes.push_back(std::size_t{1}
                        << static_cast<std::size_t>(shapes.randint(1, 5)));

    unsigned seed = 11;
    for (const std::size_t n : sizes) {
        ButterflyMatrix m(n);
        Rng rng(seed++);
        m.initNormal(rng, 0.6f);

        std::vector<float> x(n), probe(n);
        for (auto &v : x)
            v = rng.normal();
        for (auto &v : probe)
            v = rng.normal();

        std::vector<float> cache((m.numStages() + 1) * n);
        m.forwardWithCache(x.data(), cache.data());
        std::vector<float> grad_in(n);
        std::vector<float> grad_w(m.numWeights(), 0.0f);
        m.backward(cache.data(), probe.data(), grad_in.data(), grad_w);

        const float eps = 1e-3f;
        for (std::size_t i = 0; i < n; ++i) {
            auto xp = x;
            xp[i] += eps;
            const double lp = lossOf(m, xp, probe);
            xp[i] -= 2 * eps;
            const double lm = lossOf(m, xp, probe);
            const double numeric = (lp - lm) / (2.0 * eps);
            EXPECT_NEAR(grad_in[i], numeric,
                        2e-2 * std::max(1.0, std::fabs(numeric)))
                << "n=" << n << " coordinate " << i;
        }
    }
}

TEST_F(ButterflyGrad, WeightGradientMatchesFiniteDifference)
{
    const std::size_t n = 8;
    ButterflyMatrix m(n);
    Rng rng(13);
    m.initNormal(rng, 0.6f);

    std::vector<float> x(n), probe(n);
    for (auto &v : x)
        v = rng.normal();
    for (auto &v : probe)
        v = rng.normal();

    std::vector<float> cache((m.numStages() + 1) * n);
    m.forwardWithCache(x.data(), cache.data());
    std::vector<float> grad_in(n);
    std::vector<float> grad_w(m.numWeights(), 0.0f);
    m.backward(cache.data(), probe.data(), grad_in.data(), grad_w);

    const float eps = 1e-3f;
    for (std::size_t wi = 0; wi < m.numWeights(); ++wi) {
        const float orig = m.weights()[wi];
        m.weights()[wi] = orig + eps;
        const double lp = lossOf(m, x, probe);
        m.weights()[wi] = orig - eps;
        const double lm = lossOf(m, x, probe);
        m.weights()[wi] = orig;
        const double numeric = (lp - lm) / (2.0 * eps);
        EXPECT_NEAR(grad_w[wi], numeric,
                    2e-2 * std::max(1.0, std::fabs(numeric)))
            << "weight " << wi;
    }
}

TEST_F(ButterflyGrad, BackwardIsTransposeOfForward)
{
    // For linear maps, backward(g) must equal W^T g exactly.
    const std::size_t n = 16;
    ButterflyMatrix m(n);
    Rng rng(15);
    m.initNormal(rng, 0.8f);

    std::vector<float> x(n, 0.0f);
    std::vector<float> cache((m.numStages() + 1) * n);
    m.forwardWithCache(x.data(), cache.data());

    Rng rng2(16);
    std::vector<float> g(n);
    for (auto &v : g)
        v = rng2.normal();
    std::vector<float> grad_in(n);
    std::vector<float> grad_w(m.numWeights(), 0.0f);
    m.backward(cache.data(), g.data(), grad_in.data(), grad_w);

    // W^T g via the dense expansion.
    Tensor dense = m.toDense();
    for (std::size_t i = 0; i < n; ++i) {
        float acc = 0.0f;
        for (std::size_t j = 0; j < n; ++j)
            acc += dense.at(j, i) * g[j];
        EXPECT_NEAR(grad_in[i], acc, 1e-3f);
    }
}

TEST_F(ButterflyGrad, GradAccumulatesAcrossCalls)
{
    const std::size_t n = 4;
    ButterflyMatrix m(n);
    Rng rng(19);
    m.initNormal(rng, 0.5f);

    std::vector<float> x(n, 1.0f), g(n, 1.0f), gin(n);
    std::vector<float> cache((m.numStages() + 1) * n);
    m.forwardWithCache(x.data(), cache.data());

    std::vector<float> gw1(m.numWeights(), 0.0f);
    m.backward(cache.data(), g.data(), gin.data(), gw1);
    std::vector<float> gw2(m.numWeights(), 0.0f);
    m.backward(cache.data(), g.data(), gin.data(), gw2);
    m.backward(cache.data(), g.data(), gin.data(), gw2);
    for (std::size_t i = 0; i < gw1.size(); ++i)
        EXPECT_NEAR(gw2[i], 2.0f * gw1[i], 1e-5f);
}

TEST_F(ButterflyGrad, RectangularBackwardMatchesFiniteDifference)
{
    const std::size_t in = 6, out = 10; // pads to core 8, 2 cores
    ButterflyLinear lin(in, out);
    Rng rng(23);
    lin.initRandomRotation(rng);
    // Perturb weights so gradients are not degenerate.
    for (std::size_t c = 0; c < lin.numCores(); ++c)
        for (auto &w : lin.core(c).weights())
            w += rng.normal(0.1f);

    std::vector<float> x(in), probe(out);
    for (auto &v : x)
        v = rng.normal();
    for (auto &v : probe)
        v = rng.normal();

    std::vector<float> y(out), cache(lin.cacheSize());
    lin.forwardWithCache(x.data(), y.data(), cache.data());

    std::vector<float> grad_in(in);
    std::vector<std::vector<float>> grad_cores(lin.numCores());
    for (std::size_t c = 0; c < lin.numCores(); ++c)
        grad_cores[c].assign(lin.core(c).numWeights(), 0.0f);
    std::vector<float> grad_bias(out, 0.0f);
    lin.backward(cache.data(), probe.data(), grad_in.data(), grad_cores,
                 grad_bias);

    auto loss = [&]() {
        std::vector<float> yy(out);
        lin.applyToRows(x.data(), yy.data(), 1);
        double l = 0.0;
        for (std::size_t i = 0; i < out; ++i)
            l += static_cast<double>(yy[i]) * probe[i];
        return l;
    };

    const float eps = 1e-3f;
    // Input gradient.
    for (std::size_t i = 0; i < in; ++i) {
        const float orig = x[i];
        x[i] = orig + eps;
        const double lp = loss();
        x[i] = orig - eps;
        const double lm = loss();
        x[i] = orig;
        EXPECT_NEAR(grad_in[i], (lp - lm) / (2 * eps), 2e-2)
            << "input " << i;
    }
    // Bias gradient equals the probe on live outputs.
    for (std::size_t i = 0; i < out; ++i)
        EXPECT_NEAR(grad_bias[i], probe[i], 1e-4f);
    // Spot-check core weight gradients.
    for (std::size_t c = 0; c < lin.numCores(); ++c) {
        for (std::size_t wi = 0; wi < lin.core(c).numWeights();
             wi += 7) {
            float &w = lin.core(c).weights()[wi];
            const float orig = w;
            w = orig + eps;
            const double lp = loss();
            w = orig - eps;
            const double lm = loss();
            w = orig;
            EXPECT_NEAR(grad_cores[c][wi], (lp - lm) / (2 * eps), 2e-2)
                << "core " << c << " weight " << wi;
        }
    }
}

// ------------------------------------ randomized layer-level sweeps

TEST_F(ButterflyGrad, ButterflyDenseGradcheckRandomShapeSweep)
{
    // nn/gradcheck.h randomized sweep at every thread count: the
    // analytic parallel backward must track central differences for
    // fresh odd/non-power-of-two shapes, not just hand-picked ones.
    unsigned seed = 41;
    for (const auto &s : nn::gradSweepShapes(37, 3)) {
        testutil::forEachThreadCount([&](std::size_t threads) {
            Rng rng(seed);
            nn::ButterflyDense layer(s.features, s.out_features, rng);
            const Tensor x = nn::makeGradCheckInput(s, seed + 1);
            const auto in_res = nn::checkInputGrad(layer, x, seed + 2);
            EXPECT_TRUE(in_res.passed)
                << "input grad: features=" << s.features << " out="
                << s.out_features << " threads=" << threads
                << " rel_err=" << in_res.max_rel_error;
            const auto par_res = nn::checkParamGrad(layer, x, seed + 3);
            EXPECT_TRUE(par_res.passed)
                << "param grad: features=" << s.features << " out="
                << s.out_features << " threads=" << threads
                << " rel_err=" << par_res.max_rel_error;
        });
        seed += 5;
    }
}

TEST_F(ButterflyGrad, DenseGradcheckRandomShapeSweep)
{
    // Same sweep over the dense layer the butterfly replaces - the
    // two backward rewrites share the owner-parallel scheme.
    unsigned seed = 61;
    for (const auto &s : nn::gradSweepShapes(43, 2)) {
        testutil::forEachThreadCount([&](std::size_t threads) {
            Rng rng(seed);
            nn::Dense layer(s.features, s.out_features, rng);
            const Tensor x = nn::makeGradCheckInput(s, seed + 1);
            const auto in_res = nn::checkInputGrad(layer, x, seed + 2);
            EXPECT_TRUE(in_res.passed)
                << "input grad: features=" << s.features << " out="
                << s.out_features << " threads=" << threads
                << " rel_err=" << in_res.max_rel_error;
            const auto par_res = nn::checkParamGrad(layer, x, seed + 3);
            EXPECT_TRUE(par_res.passed)
                << "param grad: features=" << s.features << " out="
                << s.out_features << " threads=" << threads
                << " rel_err=" << par_res.max_rel_error;
        });
        seed += 5;
    }
}

} // namespace
} // namespace fabnet
