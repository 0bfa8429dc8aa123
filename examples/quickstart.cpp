/**
 * @file quickstart.cpp
 * Five-minute tour of the library:
 *   1. butterfly matrices and their FFT unification,
 *   2. building and running FABNet,
 *   3. counting FLOPs/parameters vs a vanilla Transformer,
 *   4. simulating the butterfly accelerator,
 *   5. checking resources and power on a VCU128.
 *
 * Build & run:  ./build/examples/quickstart
 */
#include <cstdio>

#include "butterfly/butterfly.h"
#include "model/builder.h"
#include "model/flops.h"
#include "sim/accelerator.h"
#include "sim/power.h"
#include "sim/resource.h"

using namespace fabnet;

int
main()
{
    std::printf("== 1. Butterfly matrices =============================\n");
    Rng rng(42);
    ButterflyMatrix w(8);
    w.initRandomRotation(rng);
    std::printf("8x8 butterfly: %zu stages, %zu weights (dense would "
                "hold %d)\n",
                w.numStages(), w.numWeights(), 8 * 8);

    float x[8] = {1, 2, 3, 4, 5, 6, 7, 8}, y[8];
    w.applyRows(x, y, 1);
    std::printf("W x = [%.2f %.2f %.2f ...]\n", y[0], y[1], y[2]);

    // FFT is a butterfly with twiddle weights (1, w, 1, -w).
    FftAsButterfly fft_b(8);
    std::vector<Complex> xc(8, Complex(1.0f, 0.0f));
    auto spectrum = fft_b.apply(xc);
    std::printf("FFT-as-butterfly of a constant: X[0]=%.1f, X[1]=%.1f "
                "(impulse, as expected)\n\n",
                spectrum[0].real(), std::abs(spectrum[1]));

    std::printf("== 2. FABNet forward pass ============================\n");
    ModelConfig cfg;
    cfg.kind = ModelKind::FABNet;
    cfg.vocab = 256;
    cfg.classes = 2;
    cfg.max_seq = 128;
    cfg.d_hid = 64;
    cfg.r_ffn = 4;
    cfg.n_total = 2;
    cfg.n_abfly = 0;
    auto model = buildModel(cfg, rng);
    std::vector<int> tokens(128, 65);
    Tensor logits = model->forward(tokens, 1, 128);
    std::printf("%s -> logits [%.3f, %.3f], %zu trainable params\n\n",
                cfg.describe().c_str(), logits.at(0, 0), logits.at(0, 1),
                model->numParams());

    std::printf("== 3. FLOPs vs a vanilla Transformer =================\n");
    ModelConfig vanilla = cfg;
    vanilla.kind = ModelKind::Transformer;
    vanilla.n_abfly = cfg.n_total;
    const double f_fab = modelFlops(cfg, 1024).total();
    const double f_van = modelFlops(vanilla, 1024).total();
    std::printf("at seq 1024: Transformer %.1f MFLOPs, FABNet %.1f "
                "MFLOPs -> %.1fx reduction\n\n",
                f_van / 1e6, f_fab / 1e6, f_van / f_fab);

    std::printf("== 4. Cycle-accurate accelerator simulation ==========\n");
    sim::AcceleratorConfig hw;
    hw.p_be = 64;
    hw.p_bu = 4;
    hw.bw_gbps = 100.0;
    const auto rep = sim::simulateModel(cfg, 1024, hw);
    std::printf("%s\n-> %.0f cycles = %.3f ms @200 MHz (%.1f KB moved, "
                "BP busy %.0f%%)\n\n",
                hw.describe().c_str(), rep.total_cycles,
                rep.milliseconds(), rep.bytes_moved / 1024.0,
                100.0 * rep.bp_cycles / rep.total_cycles);

    std::printf("== 5. Resources & power on VCU128 ====================\n");
    const auto res = sim::estimateResources(hw);
    const auto dev = sim::vcu128Device();
    const auto pow = sim::estimatePower(hw);
    std::printf("%zu DSPs, %zu BRAMs, %zu LUTs -> fits VCU128: %s; "
                "power %.1f W\n",
                res.dsps, res.brams, res.luts,
                res.fitsOn(dev) ? "yes" : "no", pow.total());
    return 0;
}
