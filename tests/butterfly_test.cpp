/**
 * @file butterfly_test.cpp
 * Butterfly matrix semantics: structure, dense equivalence,
 * orthogonal init, rectangular layers, and the FFT unification.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "butterfly/butterfly.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace fabnet {
namespace {

TEST(ButterflyMatrix, IdentityInitIsIdentity)
{
    ButterflyMatrix m(8);
    Rng rng(1);
    Tensor x = rng.normalTensor({3, 8});
    Tensor y = m.applyBatch(x);
    EXPECT_TRUE(ops::allClose(x, y, 1e-6f));
}

TEST(ButterflyMatrix, PairIndicesStructure)
{
    // Stage 0 pairs adjacent elements, stage s pairs at stride 2^s.
    std::size_t i1, i2;
    ButterflyMatrix::pairIndices(0, 0, i1, i2);
    EXPECT_EQ(i1, 0u);
    EXPECT_EQ(i2, 1u);
    ButterflyMatrix::pairIndices(0, 3, i1, i2);
    EXPECT_EQ(i1, 6u);
    EXPECT_EQ(i2, 7u);
    ButterflyMatrix::pairIndices(2, 1, i1, i2);
    EXPECT_EQ(i1, 1u);
    EXPECT_EQ(i2, 5u);
    ButterflyMatrix::pairIndices(3, 5, i1, i2);
    EXPECT_EQ(i1, 5u);
    EXPECT_EQ(i2, 13u);
}

TEST(ButterflyMatrix, EveryStageTouchesEveryIndexOnce)
{
    const std::size_t n = 32;
    ButterflyMatrix m(n);
    for (std::size_t s = 0; s < m.numStages(); ++s) {
        std::vector<int> count(n, 0);
        for (std::size_t p = 0; p < n / 2; ++p) {
            std::size_t i1, i2;
            ButterflyMatrix::pairIndices(s, p, i1, i2);
            ASSERT_LT(i1, n);
            ASSERT_LT(i2, n);
            EXPECT_EQ(i2 - i1, std::size_t{1} << s);
            ++count[i1];
            ++count[i2];
        }
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(count[i], 1) << "stage " << s << " index " << i;
    }
}

class ButterflyDenseEquivTest
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ButterflyDenseEquivTest, ApplyMatchesDenseExpansion)
{
    const std::size_t n = GetParam();
    ButterflyMatrix m(n);
    Rng rng(n);
    m.initNormal(rng, 0.5f);

    Tensor dense = m.toDense();
    Tensor x = rng.normalTensor({4, n});
    Tensor fast = m.applyBatch(x);
    Tensor ref = ops::matmul(x, ops::transpose(dense));
    EXPECT_LT(ops::maxAbsDiff(fast, ref),
              1e-3f * std::max(1.0f, ops::maxAbs(ref)));
}

TEST_P(ButterflyDenseEquivTest, RotationInitIsOrthogonal)
{
    const std::size_t n = GetParam();
    ButterflyMatrix m(n);
    Rng rng(n + 3);
    m.initRandomRotation(rng);
    Tensor w = m.toDense();
    Tensor wtw = ops::matmul(ops::transpose(w), w);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            EXPECT_NEAR(wtw.at(i, j), i == j ? 1.0f : 0.0f, 1e-4f);
}

TEST_P(ButterflyDenseEquivTest, RotationInitPreservesNorm)
{
    const std::size_t n = GetParam();
    ButterflyMatrix m(n);
    Rng rng(n + 5);
    m.initRandomRotation(rng);
    std::vector<float> x(n), y(n);
    for (auto &v : x)
        v = rng.normal();
    m.applyRows(x.data(), y.data(), 1);
    double nx = 0.0, ny = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        nx += static_cast<double>(x[i]) * x[i];
        ny += static_cast<double>(y[i]) * y[i];
    }
    EXPECT_NEAR(ny, nx, 1e-3 * nx);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ButterflyDenseEquivTest,
                         ::testing::Values(2, 4, 8, 16, 64, 256));

TEST(ButterflyMatrix, ParameterAndFlopCounts)
{
    ButterflyMatrix m(64); // 6 stages
    EXPECT_EQ(m.numStages(), 6u);
    EXPECT_EQ(m.numWeights(), 6u * 32u * 4u); // = 2 * N * log2 N
    EXPECT_EQ(m.numWeights(), 2u * 64u * 6u);
    EXPECT_EQ(m.flops(), 6u * 32u * 8u);
}

TEST(ButterflyMatrix, ComposesAsProductOfFactors)
{
    // The dense expansion must equal the ordered product of the stage
    // factor matrices (largest stride leftmost, as in the paper).
    const std::size_t n = 8;
    ButterflyMatrix m(n);
    Rng rng(17);
    m.initNormal(rng, 0.7f);

    Tensor product = Tensor::zeros(n, n);
    for (std::size_t i = 0; i < n; ++i)
        product.at(i, i) = 1.0f;
    for (std::size_t s = 0; s < m.numStages(); ++s) {
        Tensor factor = Tensor::zeros(n, n);
        for (std::size_t p = 0; p < n / 2; ++p) {
            std::size_t i1, i2;
            ButterflyMatrix::pairIndices(s, p, i1, i2);
            const float *w = &m.weights()[m.weightIndex(s, p)];
            factor.at(i1, i1) = w[0];
            factor.at(i1, i2) = w[1];
            factor.at(i2, i1) = w[2];
            factor.at(i2, i2) = w[3];
        }
        product = ops::matmul(factor, product); // stage s applied after
    }
    EXPECT_LT(ops::maxAbsDiff(product, m.toDense()), 1e-4f);
}

TEST(FftAsButterfly, ReproducesFftExactly)
{
    // The unification claim: FFT == butterfly with (1, w, 1, -w).
    for (std::size_t n : {4u, 8u, 32u, 128u}) {
        Rng rng(n);
        std::vector<Complex> x(n);
        for (auto &c : x)
            c = Complex(rng.normal(), rng.normal());

        FftAsButterfly fab(n);
        auto via_butterfly = fab.apply(x);
        auto reference = x;
        fftInPlace(reference);

        float max_err = 0.0f;
        for (std::size_t i = 0; i < n; ++i)
            max_err = std::max(max_err,
                               std::abs(via_butterfly[i] - reference[i]));
        EXPECT_LT(max_err, 1e-3f * std::sqrt((float)n)) << "n=" << n;
    }
}

TEST(FftAsButterfly, TwiddleUnitsAndSymmetry)
{
    FftAsButterfly fab(16);
    // Stage 0 twiddles are all 1 (adjacent sums/differences).
    for (std::size_t p = 0; p < 8; ++p) {
        EXPECT_NEAR(fab.twiddle(0, p).real(), 1.0f, 1e-6f);
        EXPECT_NEAR(fab.twiddle(0, p).imag(), 0.0f, 1e-6f);
    }
    // All twiddles lie on the unit circle.
    for (std::size_t s = 0; s < 4; ++s)
        for (std::size_t p = 0; p < 8; ++p)
            EXPECT_NEAR(std::abs(fab.twiddle(s, p)), 1.0f, 1e-5f);
}

TEST(ButterflyLinear, SquareShape)
{
    ButterflyLinear lin(64, 64);
    EXPECT_EQ(lin.numCores(), 1u);
    EXPECT_EQ(lin.coreSize(), 64u);
    Rng rng(5);
    lin.initRandomRotation(rng);
    Tensor x = rng.normalTensor({3, 64});
    Tensor y = lin.applyBatch(x);
    EXPECT_EQ(y.dim(1), 64u);
}

TEST(ButterflyLinear, NonPowerOfTwoInputPadded)
{
    ButterflyLinear lin(48, 48); // pads to 64
    EXPECT_EQ(lin.coreSize(), 64u);
    EXPECT_EQ(lin.numCores(), 1u);
}

TEST(ButterflyLinear, ExpansionUsesMultipleCores)
{
    ButterflyLinear lin(64, 256); // R_ffn = 4 expansion
    EXPECT_EQ(lin.numCores(), 4u);
    Rng rng(6);
    lin.initRandomRotation(rng);
    Tensor x = rng.normalTensor({2, 64});
    Tensor y = lin.applyBatch(x);
    EXPECT_EQ(y.dim(1), 256u);
}

TEST(ButterflyLinear, ContractionTruncates)
{
    ButterflyLinear lin(256, 64);
    EXPECT_EQ(lin.numCores(), 1u);
    EXPECT_EQ(lin.coreSize(), 256u);
    Rng rng(8);
    lin.initRandomRotation(rng);
    Tensor x = rng.normalTensor({2, 256});
    Tensor y = lin.applyBatch(x);
    EXPECT_EQ(y.dim(1), 64u);
}

TEST(ButterflyLinear, BiasApplied)
{
    ButterflyLinear lin(8, 8);
    for (std::size_t i = 0; i < 8; ++i)
        lin.bias()[i] = static_cast<float>(i);
    std::vector<float> x(8, 0.0f), y(8);
    lin.applyToRows(x.data(), y.data(), 1);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_FLOAT_EQ(y[i], static_cast<float>(i));
}

TEST(ButterflyLinear, ParamCountIsLogLinear)
{
    // O(n log n) params vs O(n^2) dense: 2*1024*10 + bias vs 1024^2.
    ButterflyLinear lin(1024, 1024);
    EXPECT_EQ(lin.numParams(), 2u * 1024u * 10u + 1024u);
    EXPECT_LT(lin.numParams() * 20, std::size_t{1024} * 1024);
}

TEST(ButterflyLinear, ZeroSizeRejected)
{
    EXPECT_THROW(ButterflyLinear(0, 8), std::invalid_argument);
    EXPECT_THROW(ButterflyLinear(8, 0), std::invalid_argument);
}

} // namespace
} // namespace fabnet
