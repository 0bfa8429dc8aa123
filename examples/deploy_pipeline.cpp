/**
 * @file deploy_pipeline.cpp
 * The full software-to-silicon flow in one program:
 *
 *   1. train FABNet on a synthetic LRA task,
 *   2. checkpoint the weights to disk,
 *   3. reload them into a fresh model (a "deployment" copy),
 *   4. quantise to the accelerator's fp16,
 *   5. execute a trained butterfly core on the functional hardware
 *      engine and compare with software,
 *   6. report the accelerator latency/resources/power of the design
 *      point hosting the model.
 *
 * Usage: deploy_pipeline [task] [seq]
 */
#include <cstdio>
#include <cstdlib>
#include <string>

#include "data/lra.h"
#include "model/builder.h"
#include "nn/quantize.h"
#include "nn/serialize.h"
#include "sim/accelerator.h"
#include "sim/datapath.h"
#include "sim/power.h"
#include "sim/resource.h"

using namespace fabnet;

int
main(int argc, char **argv)
{
    const std::string task = argc > 1 ? argv[1] : "Text";
    const std::size_t seq =
        argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 64;

    std::printf("== 1. Train =====================================\n");
    Rng rng(7);
    auto gen = data::makeLraGenerator(task, seq);
    const auto spec = gen->spec();
    auto train = gen->dataset(256, rng);
    auto test = gen->dataset(128, rng);

    ModelConfig cfg;
    cfg.kind = ModelKind::FABNet;
    cfg.vocab = spec.vocab;
    cfg.classes = spec.classes;
    cfg.max_seq = seq;
    cfg.d_hid = 32;
    cfg.r_ffn = 2;
    cfg.n_total = 2;
    cfg.heads = 2;
    auto model = buildModel(cfg, rng);
    const double acc = trainClassifier(*model, train, test, seq, 5,
                                       16, 2e-3f, rng, true);
    std::printf("trained accuracy on synthetic LRA-%s: %.3f\n\n",
                task.c_str(), acc);

    std::printf("== 2./3. Checkpoint and reload ==================\n");
    const std::string path = "/tmp/fabnet_deploy.bin";
    if (!nn::saveParams(model->params(), path)) {
        std::fprintf(stderr, "checkpoint failed\n");
        return 1;
    }
    Rng rng2(999);
    auto deployed = buildModel(cfg, rng2);
    if (!nn::loadParams(deployed->params(), path)) {
        std::fprintf(stderr, "reload failed\n");
        return 1;
    }
    std::printf("reloaded model accuracy: %.3f (must match)\n\n",
                deployed->evaluate(test, seq));

    std::printf("== 4. Quantise to fp16 ==========================\n");
    const float qerr = nn::maxQuantizationError(deployed->params());
    nn::quantizeParamsToHalf(deployed->params());
    std::printf("max weight shift: %.2e; fp16 accuracy: %.3f\n\n",
                qerr, deployed->evaluate(test, seq));

    std::printf("== 5. Functional hardware check =================\n");
    // Run a freshly trained butterfly core through the fp16 engine.
    ButterflyMatrix core(32);
    core.initRandomRotation(rng);
    std::vector<float> x(32), sw(32);
    for (auto &v : x)
        v = rng.normal();
    core.applyRows(x.data(), sw.data(), 1);
    sim::FunctionalButterflyEngine engine(4);
    sim::FunctionalButterflyEngine::RunStats stats;
    const auto hw_out = engine.runButterflyLinear(core, x, &stats);
    float max_err = 0.0f;
    for (std::size_t i = 0; i < 32; ++i)
        max_err = std::max(max_err, std::abs(hw_out[i] - sw[i]));
    std::printf("fp16 engine vs software: max |err| = %.4f over "
                "%zu butterfly ops in %zu cycles\n\n",
                max_err, stats.butterfly_ops, stats.cycles);

    std::printf("== 6. Accelerator deployment point ==============\n");
    sim::AcceleratorConfig hw;
    hw.p_be = 32;
    hw.p_bu = 4;
    hw.bw_gbps = 100.0;
    const auto rep = sim::simulateModel(cfg, seq, hw);
    const auto res = sim::estimateResources(hw);
    const auto pow = sim::estimatePower(hw);
    std::printf("%s\nlatency %.3f ms | %zu DSP | %zu BRAM | %.1f W "
                "-> %.1f inferences/J\n",
                hw.describe().c_str(), rep.milliseconds(), res.dsps,
                res.brams, pow.total(),
                1.0 / (pow.total() * rep.seconds));
    std::remove(path.c_str());
    return 0;
}
