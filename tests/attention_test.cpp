/**
 * @file attention_test.cpp
 * Multi-head attention: reference-implementation equivalence,
 * softmax-row properties, gradient checks with dense and butterfly
 * projections.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "nn/attention.h"
#include "nn/dense.h"
#include "nn/gradcheck.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace fabnet {
namespace nn {
namespace {

/** Identity projection layer for isolating the attention core. */
class IdentityLayer : public Layer
{
  public:
    Tensor forward(const Tensor &x) override { return x; }
    Tensor backward(const Tensor &g) override { return g; }
};

std::unique_ptr<MultiHeadAttention>
makeDenseMha(std::size_t d, std::size_t heads, Rng &rng)
{
    return std::make_unique<MultiHeadAttention>(
        d, heads, std::make_unique<Dense>(d, d, rng),
        std::make_unique<Dense>(d, d, rng),
        std::make_unique<Dense>(d, d, rng),
        std::make_unique<Dense>(d, d, rng));
}

TEST(Attention, SingleHeadIdentityProjectionsMatchReference)
{
    const std::size_t t = 5, d = 4;
    MultiHeadAttention mha(d, 1, std::make_unique<IdentityLayer>(),
                           std::make_unique<IdentityLayer>(),
                           std::make_unique<IdentityLayer>(),
                           std::make_unique<IdentityLayer>());
    Rng rng(1);
    Tensor x = rng.normalTensor({1, t, d});
    Tensor y = mha.forward(x);

    // Reference: softmax(x x^T / sqrt(d)) x.
    Tensor flat = x.reshaped({t, d});
    Tensor scores = ops::matmulTransposed(flat, flat);
    scores = ops::scale(scores, 1.0f / std::sqrt((float)d));
    Tensor attn = ops::softmaxLastDim(scores);
    Tensor ref = ops::matmul(attn, flat);
    for (std::size_t i = 0; i < t; ++i)
        for (std::size_t j = 0; j < d; ++j)
            EXPECT_NEAR(y.at(0, i, j), ref.at(i, j), 1e-4f);
}

TEST(Attention, OutputShapePreserved)
{
    Rng rng(2);
    auto mha = makeDenseMha(8, 2, rng);
    Tensor x = rng.normalTensor({3, 6, 8});
    Tensor y = mha->forward(x);
    EXPECT_EQ(y.shape(), x.shape());
}

TEST(Attention, HeadsMustDivideModelDim)
{
    Rng rng(3);
    EXPECT_THROW(makeDenseMha(10, 3, rng), std::invalid_argument);
}

TEST(Attention, RowEntryPointsRefuseInputsThatAreNotPacked)
{
    // forwardRows and forwardPrefill read sequence b at packed rows
    // [start(b), start(b) + len(b)), so an input of any other size -
    // the right-padded [batch, seq, d] layout above all - is refused.
    Rng rng(12);
    const std::size_t d = 8;
    const RowSet rows(2, 6, {3, 6});
    const Tensor padded = rng.normalTensor({2, 6, d});
    const Tensor packed = rng.normalTensor({rows.totalRows(), d});
    auto mha = makeDenseMha(d, 2, rng);
    EXPECT_NO_THROW(mha->forwardRows(packed, rows));
    EXPECT_THROW(mha->forwardRows(padded, rows), std::invalid_argument);

    MultiHeadAttention causal(d, 2, std::make_unique<Dense>(d, d, rng),
                              std::make_unique<Dense>(d, d, rng),
                              std::make_unique<Dense>(d, d, rng),
                              std::make_unique<Dense>(d, d, rng),
                              /*causal=*/true);
    std::vector<KVCache> caches(2);
    StepState step;
    for (KVCache &c : caches)
        step.caches.push_back(&c);
    step.positions.assign(2, 0);
    EXPECT_THROW(causal.forwardPrefill(padded, rows, step),
                 std::invalid_argument);
    EXPECT_EQ(caches[0].len + caches[1].len, 0u);
}

TEST(Attention, UniformValuesGiveUniformContext)
{
    // When V is constant across tokens, any attention distribution
    // must return that constant.
    const std::size_t t = 4, d = 4;
    MultiHeadAttention mha(d, 1, std::make_unique<IdentityLayer>(),
                           std::make_unique<IdentityLayer>(),
                           std::make_unique<IdentityLayer>(),
                           std::make_unique<IdentityLayer>());
    Tensor x = Tensor::zeros(1, t, d);
    for (std::size_t i = 0; i < t; ++i)
        for (std::size_t j = 0; j < d; ++j)
            x.at(0, i, j) = static_cast<float>(j); // same every token
    Tensor y = mha.forward(x);
    for (std::size_t i = 0; i < t; ++i)
        for (std::size_t j = 0; j < d; ++j)
            EXPECT_NEAR(y.at(0, i, j), static_cast<float>(j), 1e-4f);
}

TEST(Attention, GradCheckDenseProjections)
{
    Rng rng(5);
    auto mha = makeDenseMha(6, 2, rng);
    Tensor x = rng.normalTensor({1, 4, 6});
    EXPECT_TRUE(checkInputGrad(*mha, x, 7, 1e-3f, 3e-2f).passed);
    EXPECT_TRUE(checkParamGrad(*mha, x, 7, 1e-3f, 3e-2f).passed);
}

TEST(Attention, GradCheckButterflyProjections)
{
    Rng rng(8);
    const std::size_t d = 8;
    MultiHeadAttention mha(d, 2,
                           std::make_unique<ButterflyDense>(d, d, rng),
                           std::make_unique<ButterflyDense>(d, d, rng),
                           std::make_unique<ButterflyDense>(d, d, rng),
                           std::make_unique<ButterflyDense>(d, d, rng));
    Tensor x = rng.normalTensor({1, 4, d});
    EXPECT_TRUE(checkInputGrad(mha, x, 7, 1e-3f, 3e-2f).passed);
    EXPECT_TRUE(checkParamGrad(mha, x, 7, 1e-3f, 3e-2f).passed);
}

TEST(Attention, GradCheckMultiBatch)
{
    Rng rng(9);
    auto mha = makeDenseMha(4, 1, rng);
    Tensor x = rng.normalTensor({3, 3, 4});
    EXPECT_TRUE(checkInputGrad(*mha, x, 11, 1e-3f, 3e-2f).passed);
}

TEST(Attention, ParamCountMatchesProjections)
{
    Rng rng(10);
    auto mha = makeDenseMha(8, 2, rng);
    // 4 dense projections: 4 * (8*8 + 8).
    EXPECT_EQ(mha->numParams(), 4u * (64u + 8u));
}

TEST(Attention, HeadsAreIndependent)
{
    // Modifying the tokens' features inside head 1's slice must not
    // change head 0's output when projections are identity.
    const std::size_t t = 4, d = 8; // two heads of width 4
    MultiHeadAttention mha(d, 2, std::make_unique<IdentityLayer>(),
                           std::make_unique<IdentityLayer>(),
                           std::make_unique<IdentityLayer>(),
                           std::make_unique<IdentityLayer>());
    Rng rng(11);
    Tensor x = rng.normalTensor({1, t, d});
    Tensor y1 = mha.forward(x);
    Tensor x2 = x;
    for (std::size_t i = 0; i < t; ++i)
        for (std::size_t j = 4; j < 8; ++j)
            x2.at(0, i, j) += 0.7f;
    Tensor y2 = mha.forward(x2);
    for (std::size_t i = 0; i < t; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            EXPECT_NEAR(y1.at(0, i, j), y2.at(0, i, j), 1e-4f)
                << "head-0 output changed at (" << i << "," << j << ")";
}

} // namespace
} // namespace nn
} // namespace fabnet
