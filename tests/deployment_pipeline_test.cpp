/**
 * @file deployment_pipeline_test.cpp
 * Capstone integration: the full deployment flow a user of this
 * library would run -
 *
 *   train FABNet -> checkpoint -> reload into a fresh model ->
 *   quantise to fp16 -> execute the butterfly layers on the
 *   functional hardware engine -> verify predictions survive.
 *
 * This is the software-to-silicon path the paper's artifact walks
 * with PyTorch -> Verilog testbenches (Appendix E).
 */
#include <gtest/gtest.h>

#include <cstdio>

#include "data/lra.h"
#include "model/builder.h"
#include "nn/quantize.h"
#include "nn/serialize.h"
#include "sim/accelerator.h"
#include "sim/datapath.h"
#include "sim/power.h"
#include "sim/resource.h"
#include "tensor/ops.h"

namespace fabnet {
namespace {

TEST(DeploymentPipeline, TrainCheckpointQuantizeSimulate)
{
    // --- 1. Train on the synthetic Text task. ---------------------
    Rng rng(31);
    auto gen = data::makeLraGenerator("Text", 32);
    auto train = gen->dataset(128, rng);
    auto test = gen->dataset(64, rng);

    ModelConfig cfg;
    cfg.kind = ModelKind::FABNet;
    cfg.vocab = 256;
    cfg.classes = 2;
    cfg.max_seq = 32;
    cfg.d_hid = 32;
    cfg.r_ffn = 2;
    cfg.n_total = 2;
    cfg.heads = 2;

    auto model = buildModel(cfg, rng);
    const double trained_acc = trainClassifier(
        *model, train, test, 32, 4, 16, 2e-3f, rng);
    ASSERT_GT(trained_acc, 0.65) << "training failed to learn";

    // --- 2. Checkpoint and reload into a fresh model. -------------
    const std::string path =
        std::string(::testing::TempDir()) + "fab_deploy.bin";
    ASSERT_TRUE(nn::saveParams(model->params(), path));
    Rng rng2(999);
    auto deployed = buildModel(cfg, rng2);
    ASSERT_TRUE(nn::loadParams(deployed->params(), path));
    std::remove(path.c_str());
    EXPECT_NEAR(deployed->evaluate(test, 32), trained_acc, 1e-9);

    // --- 3. Quantise to the accelerator's fp16. -------------------
    nn::quantizeParamsToHalf(deployed->params());
    const double fp16_acc = deployed->evaluate(test, 32);
    EXPECT_NEAR(fp16_acc, trained_acc, 0.06)
        << "fp16 deployment lost accuracy";

    // --- 4. The hardware design point hosting it is feasible. -----
    sim::AcceleratorConfig hw;
    hw.p_be = 32;
    hw.p_bu = 4;
    hw.bw_gbps = 100.0;
    const auto rep = sim::simulateModel(cfg, 32, hw);
    EXPECT_GT(rep.total_cycles, 0.0);
    EXPECT_TRUE(
        sim::estimateResources(hw).fitsOn(sim::vcu128Device()));
    EXPECT_GT(sim::estimatePower(hw).total(), 0.0);
}

TEST(DeploymentPipeline, TrainedLayerBitMatchesFunctionalEngine)
{
    // Train one butterfly layer inside a model, then execute that
    // exact trained core on the functional fp16 engine and compare
    // against the quantised software forward - this is the Verilog-
    // testbench equivalence the artifact checks layer by layer.
    Rng rng(33);
    ButterflyMatrix core(32);
    core.initRandomRotation(rng);
    // Light training towards a random target.
    Tensor target = rng.normalTensor({32, 32}, 0.3f);
    std::vector<float> cache((core.numStages() + 1) * 32);
    std::vector<float> gw(core.numWeights());
    std::vector<float> gin(32);
    for (int step = 0; step < 100; ++step) {
        std::vector<float> x(32);
        for (auto &v : x)
            v = rng.normal();
        core.forwardWithCache(x.data(), cache.data());
        const float *y = cache.data() + core.numStages() * 32;
        std::vector<float> g(32);
        for (std::size_t i = 0; i < 32; ++i) {
            float tx = 0.0f;
            for (std::size_t j = 0; j < 32; ++j)
                tx += target.at(i, j) * x[j];
            g[i] = y[i] - tx;
        }
        std::fill(gw.begin(), gw.end(), 0.0f);
        core.backward(cache.data(), g.data(), gin.data(), gw);
        for (std::size_t i = 0; i < gw.size(); ++i)
            core.weights()[i] -= 0.02f * gw[i];
    }

    // Quantise the trained weights as deployment would.
    for (float &w : core.weights())
        w = roundToHalf(w);

    sim::FunctionalButterflyEngine engine(4);
    for (int trial = 0; trial < 5; ++trial) {
        std::vector<float> x(32);
        for (auto &v : x)
            v = roundToHalf(rng.normal());
        std::vector<float> sw(32);
        core.applyRows(x.data(), sw.data(), 1);
        const auto hw = engine.runButterflyLinear(core, x);
        for (std::size_t i = 0; i < 32; ++i)
            EXPECT_NEAR(hw[i], sw[i],
                        2e-2f * std::max(1.0f, std::fabs(sw[i])))
                << "trial " << trial << " element " << i;
    }
}

} // namespace
} // namespace fabnet
