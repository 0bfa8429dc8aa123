/**
 * @file nn_layers_test.cpp
 * Gradient checks and semantics for every nn layer: Dense,
 * ButterflyDense, LayerNorm, Gelu, FourierMix, FeedForward and the
 * full EncoderBlock.
 */
#include <gtest/gtest.h>

#include "nn/basic_layers.h"
#include "nn/block.h"
#include "nn/dense.h"
#include "nn/gradcheck.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace fabnet {
namespace nn {
namespace {

Tensor
randomInput(std::size_t b, std::size_t t, std::size_t d, unsigned seed)
{
    Rng rng(seed);
    return rng.normalTensor({b, t, d});
}

TEST(Dense, ForwardMatchesMatmul)
{
    Rng rng(1);
    Dense layer(4, 3, rng);
    Tensor x = randomInput(2, 5, 4, 2);
    Tensor y = layer.forward(x);
    ASSERT_EQ(y.shape(),
              (std::vector<std::size_t>{2, 5, 3}));
    // Manual check of one output element.
    float acc = layer.bias()[1];
    for (std::size_t i = 0; i < 4; ++i)
        acc += layer.weight()[i * 3 + 1] * x.at(1, 2, i);
    EXPECT_NEAR(y.at(1, 2, 1), acc, 1e-5f);
}

TEST(Dense, GradCheck)
{
    Rng rng(3);
    Dense layer(6, 5, rng);
    Tensor x = randomInput(2, 3, 6, 4);
    EXPECT_TRUE(checkInputGrad(layer, x).passed);
    EXPECT_TRUE(checkParamGrad(layer, x).passed);
}

TEST(ButterflyDense, ForwardMatchesOp)
{
    Rng rng(5);
    ButterflyDense layer(8, 8, rng);
    Tensor x = randomInput(1, 4, 8, 6);
    Tensor y = layer.forward(x);
    Tensor flat = x.reshaped({4, 8});
    Tensor ref = layer.op().applyBatch(flat);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 8; ++c)
            EXPECT_NEAR(y.at(0, r, c), ref.at(r, c), 1e-5f);
}

TEST(ButterflyDense, GradCheckSquare)
{
    Rng rng(7);
    ButterflyDense layer(8, 8, rng);
    Tensor x = randomInput(2, 3, 8, 8);
    EXPECT_TRUE(checkInputGrad(layer, x).passed);
    EXPECT_TRUE(checkParamGrad(layer, x).passed);
}

TEST(ButterflyDense, GradCheckExpandAndContract)
{
    Rng rng(9);
    ButterflyDense expand(8, 16, rng);
    Tensor x = randomInput(1, 4, 8, 10);
    EXPECT_TRUE(checkInputGrad(expand, x).passed);
    EXPECT_TRUE(checkParamGrad(expand, x).passed);

    ButterflyDense contract(16, 8, rng);
    Tensor x2 = randomInput(1, 4, 16, 11);
    EXPECT_TRUE(checkInputGrad(contract, x2).passed);
    EXPECT_TRUE(checkParamGrad(contract, x2).passed);
}

TEST(ButterflyDense, FarFewerParamsThanDense)
{
    Rng rng(12);
    ButterflyDense bfly(256, 256, rng);
    Dense dense(256, 256, rng);
    EXPECT_LT(bfly.numParams() * 10, dense.numParams());
}

TEST(LayerNorm, NormalisesRows)
{
    LayerNorm ln(16);
    Tensor x = randomInput(2, 3, 16, 13);
    Tensor y = ln.forward(x);
    for (std::size_t b = 0; b < 2; ++b) {
        for (std::size_t t = 0; t < 3; ++t) {
            double mean = 0.0;
            for (std::size_t d = 0; d < 16; ++d)
                mean += y.at(b, t, d);
            EXPECT_NEAR(mean / 16.0, 0.0, 1e-4);
        }
    }
}

TEST(LayerNorm, GradCheck)
{
    LayerNorm ln(8);
    Tensor x = randomInput(2, 2, 8, 14);
    EXPECT_TRUE(checkInputGrad(ln, x).passed);
    EXPECT_TRUE(checkParamGrad(ln, x).passed);
}

TEST(Activations, GeluGradCheck)
{
    Gelu gelu;
    Tensor x = randomInput(2, 3, 6, 16);
    EXPECT_TRUE(checkInputGrad(gelu, x).passed);
}

TEST(FourierMixLayer, GradCheck)
{
    FourierMix mix(4);
    Tensor x = randomInput(1, 8, 4, 17);
    EXPECT_TRUE(checkInputGrad(mix, x).passed);
}

TEST(FourierMixLayer, NoParameters)
{
    FourierMix mix(4);
    std::vector<ParamRef> ps;
    mix.collectParams(ps);
    EXPECT_TRUE(ps.empty());
}

TEST(FourierMixLayer, RefusesWidthsTheFftCannotRun)
{
    // fourierMix2D transforms power-of-two widths only, so any other
    // width is refused when the layer is built.
    EXPECT_THROW(FourierMix(24), std::invalid_argument);
    EXPECT_THROW(FourierMix(768), std::invalid_argument);
    EXPECT_NO_THROW(FourierMix(16));
}

TEST(FourierMixLayer, ForwardRowsRunsThePackedPaddingFreeSetOnly)
{
    FourierMix mix(4);
    const Tensor x = randomInput(2, 8, 4, 31);
    const Tensor want = mix.forward(x);
    // The padding-free set's packed rows are the batch's rows.
    const Tensor got =
        mix.forwardRows(x.reshaped({16, 4}), RowSet(2, 8));
    EXPECT_EQ(got.shape(), (std::vector<std::size_t>{16, 4}));
    EXPECT_EQ(got.raw(), want.raw());
    // A padded [batch, seq, d] tensor is not the packed rows of a
    // ragged set.
    const RowSet ragged(2, 8, {5, 8});
    EXPECT_THROW(mix.forwardRows(x, ragged), std::invalid_argument);
    // Packed rows of a set with padding: no per-sequence mix exists.
    EXPECT_THROW(mix.forwardRows(randomInput(1, 13, 4, 32)
                                     .reshaped({13, 4}),
                                 ragged),
                 std::invalid_argument);
}

TEST(FeedForward, DenseGradCheck)
{
    Rng rng(18);
    FeedForward ffn(std::make_unique<Dense>(6, 12, rng),
                    std::make_unique<Gelu>(),
                    std::make_unique<Dense>(12, 6, rng));
    Tensor x = randomInput(1, 3, 6, 19);
    EXPECT_TRUE(checkInputGrad(ffn, x).passed);
    EXPECT_TRUE(checkParamGrad(ffn, x).passed);
}

TEST(FeedForward, ButterflyGradCheck)
{
    Rng rng(20);
    FeedForward ffn(std::make_unique<ButterflyDense>(8, 16, rng),
                    std::make_unique<Gelu>(),
                    std::make_unique<ButterflyDense>(16, 8, rng));
    Tensor x = randomInput(1, 3, 8, 21);
    EXPECT_TRUE(checkInputGrad(ffn, x).passed);
    EXPECT_TRUE(checkParamGrad(ffn, x).passed);
}

TEST(EncoderBlock, FourierBlockGradCheck)
{
    Rng rng(22);
    auto ffn = std::make_unique<FeedForward>(
        std::make_unique<ButterflyDense>(8, 16, rng),
        std::make_unique<Gelu>(),
        std::make_unique<ButterflyDense>(16, 8, rng));
    EncoderBlock blk(8, std::make_unique<FourierMix>(8), std::move(ffn));
    Tensor x = randomInput(1, 4, 8, 23);
    EXPECT_TRUE(checkInputGrad(blk, x, 7, 1e-3f, 3e-2f).passed);
    EXPECT_TRUE(checkParamGrad(blk, x, 7, 1e-3f, 3e-2f).passed);
}

TEST(EncoderBlock, OutputShapeMatchesInput)
{
    Rng rng(25);
    auto ffn = std::make_unique<FeedForward>(
        std::make_unique<Dense>(8, 16, rng), std::make_unique<Gelu>(),
        std::make_unique<Dense>(16, 8, rng));
    EncoderBlock blk(8, std::make_unique<FourierMix>(8), std::move(ffn));
    Tensor x = randomInput(2, 4, 8, 26);
    Tensor y = blk.forward(x);
    EXPECT_EQ(y.shape(), x.shape());
}

TEST(EncoderBlock, ParamsAggregateSublayers)
{
    Rng rng(27);
    auto ffn = std::make_unique<FeedForward>(
        std::make_unique<Dense>(8, 16, rng), std::make_unique<Gelu>(),
        std::make_unique<Dense>(16, 8, rng));
    EncoderBlock blk(8, std::make_unique<FourierMix>(8), std::move(ffn));
    std::vector<ParamRef> ps;
    blk.collectParams(ps);
    // FFN: 2 layers x (W, b) = 4; two LayerNorms x (gamma, beta) = 4.
    EXPECT_EQ(ps.size(), 8u);
}

} // namespace
} // namespace nn
} // namespace fabnet
