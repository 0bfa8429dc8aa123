/**
 * @file embedding_test.cpp
 * Embedding, pooled classifier head and softmax cross-entropy loss.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "nn/embedding.h"
#include "tensor/rng.h"

namespace fabnet {
namespace nn {
namespace {

TEST(Embedding, LookupAddsTokenAndPosition)
{
    Rng rng(1);
    Embedding emb(10, 4, 3, rng);
    std::vector<int> tokens = {2, 5};
    Tensor y = emb.forward(tokens, 1, 2);
    ASSERT_EQ(y.shape(), (std::vector<std::size_t>{1, 2, 3}));

    std::vector<ParamRef> ps;
    emb.collectParams(ps);
    const auto &tok = *ps[0].value;
    const auto &pos = *ps[1].value;
    for (std::size_t j = 0; j < 3; ++j) {
        EXPECT_NEAR(y.at(0, 0, j), tok[2 * 3 + j] + pos[0 * 3 + j],
                    1e-6f);
        EXPECT_NEAR(y.at(0, 1, j), tok[5 * 3 + j] + pos[1 * 3 + j],
                    1e-6f);
    }
}

TEST(Embedding, BackwardAccumulatesPerToken)
{
    Rng rng(2);
    Embedding emb(6, 4, 2, rng);
    std::vector<int> tokens = {3, 3}; // same token twice
    emb.forward(tokens, 1, 2);

    Tensor g = Tensor::zeros(1, 2, 2);
    g.fill(1.0f);
    emb.backward(g);

    std::vector<ParamRef> ps;
    emb.collectParams(ps);
    const auto &gtok = *ps[0].grad;
    const auto &gpos = *ps[1].grad;
    // Token 3 is used by both positions: gradient 2 per channel.
    EXPECT_FLOAT_EQ(gtok[3 * 2 + 0], 2.0f);
    EXPECT_FLOAT_EQ(gtok[3 * 2 + 1], 2.0f);
    // Each position used once.
    EXPECT_FLOAT_EQ(gpos[0], 1.0f);
    EXPECT_FLOAT_EQ(gpos[2], 1.0f);
}

TEST(Embedding, RejectsBadInput)
{
    Rng rng(3);
    Embedding emb(6, 4, 2, rng);
    std::vector<int> too_long(10, 0);
    EXPECT_THROW(emb.forward(too_long, 1, 10), std::invalid_argument);
    std::vector<int> bad_id = {7, 0};
    EXPECT_THROW(emb.forward(bad_id, 1, 2), std::out_of_range);
}

TEST(MeanPoolClassifier, PoolsThenProjects)
{
    Rng rng(4);
    MeanPoolClassifier head(4, 3, rng);
    Tensor x = Tensor::zeros(1, 2, 4);
    for (std::size_t j = 0; j < 4; ++j) {
        x.at(0, 0, j) = 1.0f;
        x.at(0, 1, j) = 3.0f;
    }
    Tensor logits = head.forward(x);
    ASSERT_EQ(logits.shape(), (std::vector<std::size_t>{1, 3}));
    // pooled = 2.0 everywhere; verify against direct projection.
    std::vector<ParamRef> ps;
    head.collectParams(ps);
    const auto &w = *ps[0].value;
    const auto &b = *ps[1].value;
    for (std::size_t c = 0; c < 3; ++c) {
        float acc = b[c];
        for (std::size_t j = 0; j < 4; ++j)
            acc += w[c * 4 + j] * 2.0f;
        EXPECT_NEAR(logits.at(0, c), acc, 1e-5f);
    }
}

TEST(MeanPoolClassifier, ForwardMaskedPoolsPackedSegments)
{
    Rng rng(7);
    MeanPoolClassifier head(4, 3, rng);
    const RowSet rows(2, 5, {2, 5});
    Rng rng2(8);
    const Tensor packed = rng2.normalTensor({rows.totalRows(), 4});
    // Sequence 1's segment starts at packed row 2: pooling its first
    // three rows equals forward() over exactly those rows.
    Tensor x1 = Tensor::zeros(1, 3, 4);
    std::copy_n(packed.data() + 2 * 4, 3 * 4, x1.data());
    const Tensor want = head.forward(x1);
    const Tensor got = head.forwardMasked(packed, rows, {2, 3});
    for (std::size_t c = 0; c < 3; ++c)
        EXPECT_EQ(got.at(1, c), want.at(0, c));
    // A right-padded [batch, seq, d] tensor is not the packed rows of
    // a ragged set, and a length may not exceed its segment.
    EXPECT_THROW(head.forwardMasked(Tensor::zeros(2, 5, 4), rows, {2, 5}),
                 std::invalid_argument);
    EXPECT_THROW(head.forwardMasked(packed, rows, {3, 5}),
                 std::invalid_argument);
}

TEST(MeanPoolClassifier, BackwardSpreadsGradOverTokens)
{
    Rng rng(5);
    MeanPoolClassifier head(4, 2, rng);
    Rng rng2(6);
    Tensor x = rng2.normalTensor({2, 3, 4});
    head.forward(x);
    Tensor g = Tensor::zeros(2, 2);
    g.fill(1.0f);
    Tensor gx = head.backward(g);
    ASSERT_EQ(gx.shape(), x.shape());
    // Every token of a batch element receives the same gradient.
    for (std::size_t b = 0; b < 2; ++b)
        for (std::size_t j = 0; j < 4; ++j) {
            EXPECT_NEAR(gx.at(b, 0, j), gx.at(b, 1, j), 1e-6f);
            EXPECT_NEAR(gx.at(b, 0, j), gx.at(b, 2, j), 1e-6f);
        }
}

TEST(CrossEntropy, KnownValues)
{
    // Uniform logits over 4 classes -> loss = ln 4.
    Tensor logits = Tensor::zeros(1, 4);
    Tensor grad;
    const float loss = softmaxCrossEntropy(logits, {2}, grad);
    EXPECT_NEAR(loss, std::log(4.0f), 1e-5f);
    // Gradient: p - onehot, scaled by 1/batch.
    EXPECT_NEAR(grad.at(0, 2), 0.25f - 1.0f, 1e-5f);
    EXPECT_NEAR(grad.at(0, 0), 0.25f, 1e-5f);
}

TEST(CrossEntropy, ConfidentCorrectPredictionHasLowLoss)
{
    Tensor logits = Tensor::fromMatrix(1, 3, {10.0f, -5.0f, -5.0f});
    Tensor grad;
    const float loss = softmaxCrossEntropy(logits, {0}, grad);
    EXPECT_LT(loss, 1e-3f);
}

TEST(CrossEntropy, GradientSumsToZeroPerRow)
{
    Rng rng(7);
    Tensor logits = rng.normalTensor({4, 5}, 2.0f);
    Tensor grad;
    softmaxCrossEntropy(logits, {0, 1, 2, 3}, grad);
    for (std::size_t b = 0; b < 4; ++b) {
        double s = 0.0;
        for (std::size_t c = 0; c < 5; ++c)
            s += grad.at(b, c);
        EXPECT_NEAR(s, 0.0, 1e-5);
    }
}

TEST(CrossEntropy, FiniteDifferenceGradient)
{
    Rng rng(8);
    Tensor logits = rng.normalTensor({2, 3});
    const std::vector<int> labels = {1, 2};
    Tensor grad;
    softmaxCrossEntropy(logits, labels, grad);

    const float eps = 1e-3f;
    for (std::size_t i = 0; i < logits.size(); ++i) {
        Tensor lp = logits, lm = logits;
        lp.raw()[i] += eps;
        lm.raw()[i] -= eps;
        Tensor tmp;
        const float fp = softmaxCrossEntropy(lp, labels, tmp);
        const float fm = softmaxCrossEntropy(lm, labels, tmp);
        EXPECT_NEAR(grad.raw()[i], (fp - fm) / (2 * eps), 1e-3f);
    }
}

TEST(Argmax, PicksLargestLogit)
{
    Tensor logits =
        Tensor::fromMatrix(2, 3, {0.1f, 0.9f, 0.2f, 5.0f, -1.0f, 3.0f});
    const auto pred = argmaxRows(logits);
    EXPECT_EQ(pred[0], 1);
    EXPECT_EQ(pred[1], 0);
}

} // namespace
} // namespace nn
} // namespace fabnet
