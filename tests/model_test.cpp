/**
 * @file model_test.cpp
 * Model builders and the end-to-end sequence classifier: shapes,
 * parameter-count relations across families, batching, and a smoke
 * training run.
 */
#include <gtest/gtest.h>

#include "model/builder.h"
#include "model/classifier.h"
#include "model/config.h"
#include "nn/optimizer.h"
#include "serve/serving.h"
#include "tensor/rng.h"

namespace fabnet {
namespace {

ModelConfig
tinyConfig(ModelKind kind)
{
    ModelConfig c;
    c.kind = kind;
    c.vocab = 16;
    c.max_seq = 16;
    c.d_hid = 8;
    c.r_ffn = 2;
    c.n_total = 2;
    c.n_abfly = kind == ModelKind::Transformer ? 2 : 0;
    c.heads = 2;
    c.classes = 3;
    return c;
}

TEST(ModelConfig, Presets)
{
    EXPECT_EQ(fabnetBase().d_hid, 768u);
    EXPECT_EQ(fabnetBase().n_total, 12u);
    EXPECT_EQ(fabnetBase().n_abfly, 0u);
    EXPECT_EQ(fabnetLarge().d_hid, 1024u);
    EXPECT_EQ(fabnetLarge().n_total, 24u);
    EXPECT_EQ(bertBase().kind, ModelKind::Transformer);
    EXPECT_EQ(bertLarge().n_total, 24u);
    EXPECT_EQ(fabnetBase().ffnHidden(), 3072u);
}

TEST(ModelConfig, DescribeMentionsFamily)
{
    EXPECT_NE(fabnetBase().describe().find("FABNet"), std::string::npos);
    EXPECT_NE(bertBase().describe().find("Transformer"),
              std::string::npos);
}

TEST(Builder, AllFamiliesProduceWorkingForward)
{
    for (ModelKind kind : {ModelKind::Transformer, ModelKind::FNet,
                           ModelKind::FABNet}) {
        Rng rng(7);
        auto cfg = tinyConfig(kind);
        auto model = buildModel(cfg, rng);
        std::vector<int> tokens(2 * 8, 1);
        Tensor logits = model->forward(tokens, 2, 8);
        EXPECT_EQ(logits.shape(), (std::vector<std::size_t>{2, 3}))
            << cfg.describe();
    }
}

TEST(Builder, FourierMixersNeedAPowerOfTwoWidth)
{
    // A Fourier mixer transforms power-of-two hidden sizes only, so a
    // model it could never run is refused when it is built, before a
    // serving engine could admit a request for it.
    ModelConfig fnet = tinyConfig(ModelKind::FNet);
    fnet.n_total = 1;
    fnet.d_hid = 24;
    Rng rng(31);
    EXPECT_THROW(buildModel(fnet, rng), std::invalid_argument);
    EXPECT_THROW(buildModel(fabnetBase(), rng), std::invalid_argument);

    fnet.d_hid = 16;
    auto model = buildModel(fnet, rng);
    serve::ServingConfig sc;
    sc.bucket_granularity = 1;
    serve::ServingEngine engine(*model, sc);
    const auto out = engine.serveAll({{1, 2, 3, 4}, {5, 6}});
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].size(), fnet.classes);
    EXPECT_EQ(out[1].size(), fnet.classes);
}

TEST(Builder, FabnetHybridUsesAbflyBlocks)
{
    Rng rng(9);
    auto cfg = tinyConfig(ModelKind::FABNet);
    cfg.n_abfly = 1;
    auto model = buildModel(cfg, rng);
    std::vector<int> tokens(8, 1);
    Tensor logits = model->forward(tokens, 1, 8);
    EXPECT_EQ(logits.dim(1), 3u);
    // ABfly adds butterfly attention projections -> more params than
    // the all-FBfly variant.
    auto cfg0 = tinyConfig(ModelKind::FABNet);
    Rng rng2(9);
    auto model0 = buildModel(cfg0, rng2);
    EXPECT_GT(model->numParams(), model0->numParams());
}

TEST(Builder, InvalidAbflyCountRejected)
{
    Rng rng(10);
    auto cfg = tinyConfig(ModelKind::FABNet);
    cfg.n_abfly = 5; // > n_total
    EXPECT_THROW(buildModel(cfg, rng), std::invalid_argument);
}

TEST(Builder, FabnetHasFarFewerParamsThanTransformer)
{
    Rng rng(11);
    ModelConfig tc = tinyConfig(ModelKind::Transformer);
    tc.d_hid = 64;
    tc.r_ffn = 4;
    ModelConfig fc = tc;
    fc.kind = ModelKind::FABNet;
    fc.n_abfly = 0;
    auto transformer = buildModel(tc, rng);
    auto fab = buildModel(fc, rng);
    EXPECT_LT(fab->numParams(), transformer->numParams() / 2);
}

TEST(Builder, PartiallyCompressedInterpolates)
{
    Rng rng(12);
    auto cfg = tinyConfig(ModelKind::Transformer);
    auto p0 = buildPartiallyCompressed(cfg, 0, rng)->numParams();
    auto p1 = buildPartiallyCompressed(cfg, 1, rng)->numParams();
    auto p2 = buildPartiallyCompressed(cfg, 2, rng)->numParams();
    EXPECT_GT(p0, p1);
    EXPECT_GT(p1, p2);
    EXPECT_THROW(buildPartiallyCompressed(cfg, 3, rng),
                 std::invalid_argument);
}

TEST(Batch, PaddingAndTruncation)
{
    std::vector<Example> data(3);
    data[0].tokens = {1, 2};
    data[0].label = 0;
    data[1].tokens = {3, 4, 5, 6, 7, 8};
    data[1].label = 1;
    data[2].tokens = {9};
    data[2].label = 2;

    Batch b = makeBatch(data, 0, 3, 4);
    EXPECT_EQ(b.tokens.size(), 12u);
    EXPECT_EQ(b.tokens[0], 1);
    EXPECT_EQ(b.tokens[2], 0); // padded
    EXPECT_EQ(b.tokens[4 + 3], 6); // truncated at 4
    EXPECT_EQ(b.labels[2], 2);
}

TEST(Classifier, EvaluateCountsExactMatches)
{
    Rng rng(13);
    auto cfg = tinyConfig(ModelKind::FNet);
    auto model = buildModel(cfg, rng);
    std::vector<Example> data(6);
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i].tokens.assign(8, static_cast<int>(i % cfg.vocab));
        data[i].label = static_cast<int>(i % 3);
    }
    const double acc = model->evaluate(data, 8, 4);
    EXPECT_GE(acc, 0.0);
    EXPECT_LE(acc, 1.0);
}

TEST(Classifier, TrainingReducesLossOnSeparableToy)
{
    // Token 1 -> class 0, token 2 -> class 1: trivially separable.
    Rng rng(14);
    ModelConfig cfg = tinyConfig(ModelKind::FABNet);
    cfg.classes = 2;
    auto model = buildModel(cfg, rng);

    std::vector<Example> data;
    for (int i = 0; i < 32; ++i) {
        Example ex;
        ex.tokens.assign(8, (i % 2) ? 2 : 1);
        ex.label = i % 2;
        data.push_back(ex);
    }

    nn::Adam opt(model->params(), 5e-3f);
    Batch b0 = makeBatch(data, 0, 16, 8);
    const float first = model->trainBatch(b0, opt);
    float last = first;
    for (int epoch = 0; epoch < 12; ++epoch)
        last = model->trainBatch(b0, opt);
    EXPECT_LT(last, first);
    EXPECT_GE(model->evaluate(data, 8, 16), 0.9);
}

TEST(Classifier, ParamsListCoversEmbeddingBlocksHead)
{
    Rng rng(15);
    auto cfg = tinyConfig(ModelKind::FNet);
    auto model = buildModel(cfg, rng);
    auto ps = model->params();
    // Embedding (2) + 2 FNet blocks (FFN 4 + LN 4 each) + head (2).
    EXPECT_EQ(ps.size(), 2u + 2u * 8u + 2u);
}

TEST(Classifier, GradientsAreSizedOnFirstUse)
{
    // A model that only serves holds no gradient memory: every
    // gradient stays empty until backward(), zeroGrads() or an
    // optimizer step sizes it.
    for (ModelKind kind :
         {ModelKind::Transformer, ModelKind::FNet, ModelKind::FABNet}) {
        Rng rng(16);
        auto model = buildModel(tinyConfig(kind), rng);
        auto ps = model->params();
        std::vector<std::vector<float>> before;
        for (const auto &p : ps) {
            EXPECT_TRUE(p.grad->empty()) << model->config().describe();
            before.push_back(*p.value);
        }
        // A step with no backward behind it reads zero gradients.
        nn::Adam opt(ps, 1e-2f);
        opt.step();
        for (std::size_t i = 0; i < ps.size(); ++i) {
            EXPECT_EQ(*ps[i].grad, std::vector<float>(before[i].size()));
            EXPECT_EQ(*ps[i].value, before[i]);
        }
        nn::zeroGrads(ps);
        for (const auto &p : ps)
            EXPECT_EQ(p.grad->size(), p.value->size());
    }
}

} // namespace
} // namespace fabnet
