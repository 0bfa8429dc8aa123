/**
 * @file integration_test.cpp
 * Cross-module integration: train FABNet on a synthetic LRA task,
 * map the trained butterfly weights onto the functional hardware
 * engine (Appendix-C cross-validation on *trained* weights), and run
 * the full model through the performance stack.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "codesign/codesign.h"
#include "data/lra.h"
#include "model/builder.h"
#include "model/flops.h"
#include "sim/accelerator.h"
#include "sim/baseline.h"
#include "sim/datapath.h"
#include "sim/power.h"
#include "sim/resource.h"

namespace fabnet {
namespace {

TEST(Integration, FabnetLearnsSyntheticTextTask)
{
    Rng rng(42);
    auto gen = data::makeLraGenerator("Text", 64);
    auto train = gen->dataset(192, rng);
    auto test = gen->dataset(96, rng);

    ModelConfig cfg;
    cfg.kind = ModelKind::FABNet;
    cfg.vocab = 256;
    cfg.classes = 2;
    cfg.max_seq = 64;
    cfg.d_hid = 32;
    cfg.r_ffn = 2;
    cfg.n_total = 2;
    cfg.heads = 2;

    auto model = buildModel(cfg, rng);
    const double acc = trainClassifier(*model, train, test, 64,
                                       /*epochs=*/5, /*batch=*/16,
                                       /*lr=*/2e-3f, rng);
    // Binary task, planted evidence: must beat chance clearly.
    EXPECT_GT(acc, 0.70) << "trained accuracy " << acc;
}

TEST(Integration, TrainedButterflyWeightsRunOnFunctionalHardware)
{
    // Train a small butterfly matrix to match a random target map,
    // then execute the *trained* weights on the fp16 functional
    // engine and compare with the software forward pass.
    const std::size_t n = 16;
    Rng rng(7);
    ButterflyMatrix m(n);
    m.initRandomRotation(rng);

    // A few gradient steps toward a random linear target.
    Tensor target = rng.normalTensor({n, n}, 0.3f);
    std::vector<float> cache((m.numStages() + 1) * n);
    std::vector<float> grad_w(m.numWeights(), 0.0f);
    std::vector<float> gin(n);
    for (int step = 0; step < 200; ++step) {
        std::vector<float> x(n);
        for (auto &v : x)
            v = rng.normal();
        m.forwardWithCache(x.data(), cache.data());
        const float *y = cache.data() + m.numStages() * n;
        // dL/dy for L = 0.5 || y - T x ||^2.
        std::vector<float> g(n, 0.0f);
        for (std::size_t i = 0; i < n; ++i) {
            float tx = 0.0f;
            for (std::size_t j = 0; j < n; ++j)
                tx += target.at(i, j) * x[j];
            g[i] = y[i] - tx;
        }
        std::fill(grad_w.begin(), grad_w.end(), 0.0f);
        m.backward(cache.data(), g.data(), gin.data(), grad_w);
        for (std::size_t i = 0; i < grad_w.size(); ++i)
            m.weights()[i] -= 0.02f * grad_w[i];
    }

    std::vector<float> x(n);
    for (auto &v : x)
        v = rng.normal();
    std::vector<float> sw(n);
    m.applyRows(x.data(), sw.data(), 1);

    sim::FunctionalButterflyEngine engine(4);
    const auto hw = engine.runButterflyLinear(m, x);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(hw[i], sw[i],
                    3e-2f * std::max(1.0f, std::fabs(sw[i])));
}

TEST(Integration, EndToEndPerformanceStack)
{
    // Model -> trace -> cycle model -> resources -> power, checking
    // cross-module consistency.
    const auto cfg = fabnetBase();
    const auto hw = sim::vcu128Server();

    const auto rep = sim::simulateModel(cfg, 1024, hw);
    EXPECT_GT(rep.total_cycles, 0.0);

    const auto res = sim::estimateResources(hw);
    EXPECT_TRUE(res.fitsOn(sim::vcu128Device()));

    const auto power = sim::estimatePower(hw);
    const double energy = sim::energyPerInference(power, rep.seconds);
    EXPECT_GT(energy, 0.0);

    // Effective throughput must not exceed the theoretical peak
    // (multipliers x 2 ops x frequency).
    const double flops = modelFlops(cfg, 1024).total();
    const double gops = flops / rep.seconds / 1e9;
    const double peak_gops = static_cast<double>(hw.multipliers()) *
                             2.0 * hw.freq_ghz;
    EXPECT_LT(gops, peak_gops);
    EXPECT_GT(gops, 0.01 * peak_gops); // and is not absurdly low
}

TEST(Integration, ButterflyAcceleratorBeatsBaselineEndToEnd)
{
    const auto cfg = fabnetBase();
    sim::BaselineConfig base;
    auto ours = sim::vcu128Server();
    ours.p_be = 128; // same 2048-multiplier budget as the baseline
    for (std::size_t seq : {128u, 1024u}) {
        const double t_base =
            sim::simulateBaseline(cfg, seq, base).seconds;
        const double t_ours = sim::simulateModel(cfg, seq, ours).seconds;
        EXPECT_GT(t_base / t_ours, 5.0) << "seq " << seq;
    }
}

TEST(Integration, CodesignFindsPaperLikeOptimum)
{
    // A reduced version of the Fig. 18 search: the selected design
    // should be a small-D, FBfly-only model with high BP parallelism,
    // like the paper's {D=64-128, R=4, N=2, N_abfly=0} choice.
    codesign::SearchSpace space;
    space.d_hid = {64, 256, 1024};
    space.r_ffn = {1, 4};
    space.n_total = {1, 2};
    space.n_abfly = {0, 1};
    space.p_be = {16, 64, 128};
    space.p_bu = {4};
    space.p_qk = {0, 16};
    space.p_sv = {0, 16};

    ModelConfig base;
    base.kind = ModelKind::FABNet;
    base.vocab = 256;
    base.classes = 2;
    base.max_seq = 2048;

    codesign::CapacityAccuracyOracle oracle;
    codesign::Constraints cons;
    const auto points =
        codesign::gridSearch(space, 2048, base, oracle, cons);
    ASSERT_GT(points.size(), 10u);

    // Vanilla-Transformer reference accuracy on LRA-Text is 0.637;
    // allow <1% loss as in the paper.
    const std::size_t best =
        codesign::selectDesign(points, 0.637, 0.01);
    ASSERT_NE(best, static_cast<std::size_t>(-1));
    const auto &sel = points[best];
    EXPECT_EQ(sel.algo.n_abfly, 0u);
    EXPECT_LE(sel.algo.d_hid, 256u);
    EXPECT_EQ(sel.hw.p_be, 128u);

    // Pareto front sanity: the selected point is on it.
    const auto front = codesign::paretoFront(points);
    bool on_front = false;
    for (std::size_t idx : front) {
        if (&points[idx] == &sel)
            on_front = true;
    }
    // The selected point need not be strictly on the front (a faster,
    // less accurate point may dominate in latency), but its latency
    // must be within the front's range.
    EXPECT_TRUE(on_front || sel.latency_ms >=
                                points[front.front()].latency_ms);
}

TEST(Integration, PartiallyCompressedModelsTrainAcrossSweep)
{
    // Fig. 16 machinery: every compression level must be trainable.
    Rng rng(11);
    ModelConfig cfg;
    cfg.kind = ModelKind::Transformer;
    cfg.vocab = 256;
    cfg.classes = 2;
    cfg.max_seq = 32;
    cfg.d_hid = 16;
    cfg.r_ffn = 2;
    cfg.n_total = 2;
    cfg.n_abfly = 2;
    cfg.heads = 2;

    auto gen = data::makeLraGenerator("Text", 32);
    auto train = gen->dataset(64, rng);
    auto test = gen->dataset(32, rng);
    for (std::size_t k = 0; k <= 2; ++k) {
        Rng local(100 + k);
        auto model = buildPartiallyCompressed(cfg, k, local);
        const double acc = trainClassifier(*model, train, test, 32, 2,
                                           16, 2e-3f, local);
        EXPECT_GE(acc, 0.3) << "compressed layers " << k;
    }
}

} // namespace
} // namespace fabnet
