/**
 * @file quant_kernels_test.cpp
 * Parity and cross-validation suite for the int8/fp16 runtime kernels,
 * built on the shared harness (test_util.h). Three validation axes,
 * mirroring the fp32 discipline of parallel_kernels_test.cpp:
 *
 *  1. Exactness vs the scalar references: the int8 panel accumulates
 *     in integer arithmetic, so the blocked/vectorised/parallel path
 *     must equal ops::reference::matmulInt8 *exactly*; the fp16 paths
 *     share the reference's rounding points and accumulation chain,
 *     so they too are compared bitwise. All of it across seeded odd/
 *     non-power-of-two shape sweeps and threads {1, 4, 8}.
 *  2. Accuracy vs fp32: quantisation noise is bounded (documented
 *     tolerances below), checked on the same sweeps.
 *  3. Cross-validation against the fp16 sim datapath
 *     (sim/datapath.h): the runtime fp16 butterfly rounds once per
 *     stage output where the BU model rounds every product, so the
 *     two agree within a small absolute band for unit-scale inputs.
 *
 * Plus the layer/model story: QuantizedDense against the reference
 * GEMM, and an int8 QuantizedSequenceClassifier served end-to-end
 * through ServingEngine with logits bitwise identical to serial
 * quantized inference.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "butterfly/qbutterfly.h"
#include "data/lra.h"
#include "model/builder.h"
#include "model/quantized.h"
#include "nn/dense.h"
#include "nn/quantize.h"
#include "runtime/parallel.h"
#include "serve/serving.h"
#include "sim/datapath.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "test_util.h"

namespace fabnet {
namespace {

using testutil::bitwiseEqual;
using testutil::forEachThreadCount;
using testutil::maxAbsDiffWithin;

using QuantKernelsTest = testutil::RuntimeFixture;

/** Relative-plus-absolute tolerance helper. */
float
relTol(const Tensor &ref, float rel, float abs_floor)
{
    return rel * ops::maxAbs(ref) + abs_floor;
}

// ------------------------------------------------------------- GEMM

TEST_F(QuantKernelsTest, Int8GemmPanelMatchesReferenceExactly)
{
    Rng rng(23);
    for (const auto &s : testutil::gemmShapeSweep(211)) {
        Tensor a = rng.normalTensor({s.m, s.k});
        Tensor b = rng.normalTensor({s.k, s.n});
        const Tensor want = ops::reference::matmulInt8(a, b);
        forEachThreadCount([&](std::size_t threads) {
            EXPECT_TRUE(bitwiseEqual(ops::matmulInt8(a, b), want))
                << "int8 gemm " << s.m << "x" << s.k << "x" << s.n
                << " at " << threads << " threads";
        });
    }
}

TEST_F(QuantKernelsTest, F16GemmPanelMatchesReferenceBitwise)
{
    Rng rng(29);
    for (const auto &s : testutil::gemmShapeSweep(223)) {
        Tensor a = rng.normalTensor({s.m, s.k});
        Tensor b = rng.normalTensor({s.k, s.n});
        const Tensor want = ops::reference::matmulF16(a, b);
        forEachThreadCount([&](std::size_t threads) {
            EXPECT_TRUE(bitwiseEqual(ops::matmulF16(a, b), want))
                << "f16 gemm " << s.m << "x" << s.k << "x" << s.n
                << " at " << threads << " threads";
        });
    }
}

TEST_F(QuantKernelsTest, QuantGemmTracksFp32)
{
    Rng rng(31);
    for (const auto &s : testutil::gemmShapeSweep(227, 2)) {
        Tensor a = rng.normalTensor({s.m, s.k});
        Tensor b = rng.normalTensor({s.k, s.n});
        const Tensor want = ops::matmul(a, b);
        // int8: ~1/254 relative noise per operand, accumulated over k
        // with cancellation - 5% of the result magnitude is a safe
        // band on normal data at these k.
        EXPECT_TRUE(maxAbsDiffWithin(ops::matmulInt8(a, b), want,
                                     relTol(want, 0.05f, 5e-3f)))
            << "int8 vs fp32 " << s.m << "x" << s.k << "x" << s.n;
        // fp16: 2^-11 relative per operand.
        EXPECT_TRUE(maxAbsDiffWithin(ops::matmulF16(a, b), want,
                                     relTol(want, 0.02f, 5e-3f)))
            << "f16 vs fp32 " << s.m << "x" << s.k << "x" << s.n;
    }
}

// -------------------------------------------------------- butterfly

TEST_F(QuantKernelsTest, QuantButterflyBatchMatchesReferenceExactly)
{
    for (QuantKind kind : {QuantKind::Int8, QuantKind::Fp16}) {
        // Up to the served cores: 256 points (projections, FFN
        // expand) and the 10-stage 1024-point FFN contract core.
        for (std::size_t n : {4u, 32u, 128u, 256u, 1024u}) {
            ButterflyMatrix m(n);
            Rng rng(n);
            m.initRandomRotation(rng);
            QuantizedButterflyMatrix qm(m, kind);
            for (std::size_t rows : testutil::rowSweep(n + 1)) {
                Tensor x = rng.normalTensor({rows, n});
                const Tensor want = qm.applyBatchReference(x);
                forEachThreadCount([&](std::size_t threads) {
                    EXPECT_TRUE(bitwiseEqual(qm.applyBatch(x), want))
                        << quantKindName(kind) << " n=" << n
                        << " rows=" << rows << " threads=" << threads;
                });
            }
        }
    }
}

TEST_F(QuantKernelsTest, QuantButterflyTracksFp32)
{
    for (std::size_t n : {32u, 128u}) {
        ButterflyMatrix m(n);
        Rng rng(n + 3);
        m.initRandomRotation(rng);
        Tensor x = rng.normalTensor({9, n});
        const Tensor want = m.applyBatch(x);
        QuantizedButterflyMatrix qi(m, QuantKind::Int8);
        QuantizedButterflyMatrix qh(m, QuantKind::Fp16);
        // Per-stage dynamic requantisation holds the int8 error to
        // ~1/127 of the running row magnitude per stage.
        EXPECT_TRUE(maxAbsDiffWithin(qi.applyBatch(x), want,
                                     relTol(want, 0.06f, 1e-2f)))
            << "int8 n=" << n;
        EXPECT_TRUE(maxAbsDiffWithin(qh.applyBatch(x), want,
                                     relTol(want, 0.02f, 1e-2f)))
            << "fp16 n=" << n;
    }
}

TEST_F(QuantKernelsTest, F16ButterflyCrossValidatesSimDatapath)
{
    // The runtime fp16 butterfly and the functional BU datapath
    // (sim/datapath.h) are two implementations of the same 16-bit
    // arithmetic; they differ only in where fp16 rounding happens
    // (per stage output vs per product). For unit-scale rotation
    // weights the gap is a few fp16 ulps per stage.
    const std::size_t n = 64, rows = 9;
    ButterflyMatrix m(n);
    Rng rng(41);
    m.initRandomRotation(rng);
    Tensor x = rng.normalTensor({rows, n});

    QuantizedButterflyMatrix qh(m, QuantKind::Fp16);
    sim::FunctionalButterflyEngine engine(4);
    const Tensor hw = engine.runButterflyLinearBatch(m, x);
    forEachThreadCount([&](std::size_t threads) {
        EXPECT_TRUE(maxAbsDiffWithin(qh.applyBatch(x), hw, 0.05f))
            << "threads=" << threads;
    });
    // And both stay within half precision of the fp32 kernel.
    EXPECT_TRUE(maxAbsDiffWithin(qh.applyBatch(x), m.applyBatch(x),
                                 0.15f));
}

TEST_F(QuantKernelsTest, QuantButterflyLinearParity)
{
    Rng rng(47);
    // (in, out) covering pad, truncate and multi-core expand paths,
    // plus the served FFN shapes at decode and classify row counts.
    struct Shape
    {
        std::size_t in, out;
        std::vector<std::size_t> rows;
    };
    const Shape shapes[] = {{24, 24, {1, 7, 33}},
                            {32, 96, {1, 7, 33}},
                            {48, 17, {1, 7, 33}},
                            {256, 1024, {4, 30}},
                            {1024, 256, {4, 30}}};
    for (QuantKind kind : {QuantKind::Int8, QuantKind::Fp16}) {
        for (const Shape &s : shapes) {
            ButterflyLinear lin(s.in, s.out);
            lin.initRandomRotation(rng);
            for (float &b : lin.bias())
                b = rng.normal();
            QuantizedButterflyLinear qlin(lin, kind);
            for (std::size_t rows : s.rows) {
                Tensor x = rng.normalTensor({rows, s.in});
                const Tensor want = qlin.applyBatchReference(x);
                forEachThreadCount([&](std::size_t threads) {
                    EXPECT_TRUE(bitwiseEqual(qlin.applyBatch(x), want))
                        << quantKindName(kind) << " in=" << s.in
                        << " out=" << s.out << " rows=" << rows
                        << " threads=" << threads;
                });
                // Quantisation noise vs the fp32 layer stays bounded.
                const Tensor fp32 = lin.applyBatch(x);
                EXPECT_TRUE(maxAbsDiffWithin(
                    qlin.applyBatch(x), fp32,
                    relTol(fp32, kind == QuantKind::Int8 ? 0.06f
                                                         : 0.02f,
                           1e-2f)))
                    << quantKindName(kind) << " vs fp32 in=" << s.in
                    << " out=" << s.out;
            }
        }
    }
}

// ------------------------------------------------------------ layers

TEST_F(QuantKernelsTest, QuantizedDenseInt8MatchesReferenceGemm)
{
    Rng rng(53);
    nn::Dense dense(48, 35, rng);
    for (float &b : dense.bias())
        b = rng.normal();
    nn::QuantizedDense qd(dense, QuantKind::Int8);

    Rng data_rng(54);
    Tensor x = data_rng.normalTensor({3, 7, 48});
    // Independent scalar derivation of the layer contract through the
    // same pinned runtime helpers: W quantised per output feature, x
    // per row, exact int32 dot, dequantInt8 with the fp32 bias folded
    // into the pinned madd.
    const std::size_t in = 48, out = 35, rows = 21;
    const Tensor x2 = x.reshaped({rows, in});
    Tensor want = Tensor::zeros(rows, out);
    std::vector<std::int8_t> qx(in), qw(in);
    std::vector<float> wr(in); // W[o], a column of the [in, out] weight
    for (std::size_t r = 0; r < rows; ++r) {
        const float *xr = x2.data() + r * in;
        const float sa =
            runtime::int8Scale(runtime::maxAbsRow(xr, in));
        runtime::quantizeInt8Row(xr, qx.data(), in, sa);
        for (std::size_t o = 0; o < out; ++o) {
            for (std::size_t i = 0; i < in; ++i)
                wr[i] = dense.weight()[i * out + o];
            const float sw =
                runtime::int8Scale(runtime::maxAbsRow(wr.data(), in));
            runtime::quantizeInt8Row(wr.data(), qw.data(), in, sw);
            std::int32_t acc = 0;
            for (std::size_t i = 0; i < in; ++i)
                acc += static_cast<std::int32_t>(qx[i]) *
                       static_cast<std::int32_t>(qw[i]);
            want.at(r, o) = runtime::dequantInt8(acc, sa, sw,
                                                 dense.bias()[o]);
        }
    }

    forEachThreadCount([&](std::size_t threads) {
        const Tensor got = qd.forward(x).reshaped({rows, out});
        EXPECT_TRUE(bitwiseEqual(got, want)) << "threads=" << threads;
    });
}

TEST_F(QuantKernelsTest, QuantizedDenseF16MatchesScalarChain)
{
    Rng rng(59);
    const std::size_t in = 24, out = 37;
    nn::Dense dense(in, out, rng);
    for (float &b : dense.bias())
        b = rng.normal();
    nn::QuantizedDense qd(dense, QuantKind::Fp16);

    Rng data_rng(60);
    Tensor x = data_rng.normalTensor({11, in});
    // Scalar ground truth with the documented rounding points: fp16
    // operands, fp32 k-increasing accumulation from the fp16 bias,
    // fp16-rounded output.
    Tensor want = Tensor::zeros(11, out);
    for (std::size_t r = 0; r < 11; ++r) {
        for (std::size_t o = 0; o < out; ++o) {
            float acc = roundToHalf(dense.bias()[o]);
            for (std::size_t i = 0; i < in; ++i)
                acc = runtime::madd(roundToHalf(x.at(r, i)),
                                    roundToHalf(dense.weight()[i * out + o]),
                                    acc);
            want.at(r, o) = roundToHalf(acc);
        }
    }
    forEachThreadCount([&](std::size_t threads) {
        EXPECT_TRUE(bitwiseEqual(qd.forward(x), want))
            << "threads=" << threads;
    });
}

TEST_F(QuantKernelsTest, QuantizedLayersAreInferenceOnly)
{
    Rng rng(61);
    nn::Dense dense(8, 8, rng);
    nn::QuantizedDense qd(dense, QuantKind::Int8);
    Tensor x = rng.normalTensor({2, 8});
    qd.forward(x);
    EXPECT_THROW(qd.backward(x), std::logic_error);

    nn::ButterflyDense bfd(8, 8, rng);
    nn::QuantizedButterflyDense qbd(bfd, QuantKind::Fp16);
    qbd.forward(x);
    EXPECT_THROW(qbd.backward(x), std::logic_error);
}

// ------------------------------------------------------------- model

ModelConfig
tinyCfg(ModelKind kind)
{
    ModelConfig cfg;
    cfg.kind = kind;
    cfg.vocab = 32;
    cfg.max_seq = 64;
    cfg.d_hid = 16;
    cfg.r_ffn = 2;
    cfg.n_total = 2;
    cfg.n_abfly = kind == ModelKind::FABNet ? 2 : 0;
    cfg.heads = 2;
    cfg.classes = 4;
    return cfg;
}

TEST_F(QuantKernelsTest, QuantizedModelLogitsTrackFp32)
{
    for (QuantKind kind : {QuantKind::Int8, QuantKind::Fp16}) {
        const ModelConfig cfg = tinyCfg(ModelKind::Transformer);
        Rng rng_fp32(77), rng_q(77);
        auto fp32 = buildModel(cfg, rng_fp32);
        QuantizedSequenceClassifier q(buildModel(cfg, rng_q), kind);
        // 2 blocks x (4 attention projections + 2 FFN linears).
        EXPECT_EQ(q.quantizedLayerCount(), 12u);
        EXPECT_TRUE(q.supportsMaskedBatch());

        std::vector<int> tokens(24, 7);
        const Tensor before = fp32->forward(tokens, 1, 24);
        const Tensor after = q.forward(tokens, 1, 24);
        EXPECT_TRUE(maxAbsDiffWithin(
            after, before,
            relTol(before, kind == QuantKind::Int8 ? 0.10f : 0.03f,
                   2e-2f)))
            << quantKindName(kind);
    }
}

TEST_F(QuantKernelsTest, QuantizedModelServesEndToEndBitwise)
{
    // The ROADMAP's "quantized serving" milestone: an int8 model
    // behind the unchanged serving front end, with every served
    // logits row bitwise identical to serial quantized inference at
    // any thread count - the same guarantee fp32 serving gives.
    for (ModelKind mk : {ModelKind::Transformer, ModelKind::FABNet}) {
        const ModelConfig cfg = tinyCfg(mk);
        Rng rng(123);
        QuantizedSequenceClassifier q(buildModel(cfg, rng),
                                      QuantKind::Int8);
        const auto reqs =
            testutil::makeRequests(testutil::mixedLens(), cfg.vocab, 7);
        const auto want = testutil::serveSerial(q.model(), reqs);

        forEachThreadCount([&](std::size_t threads) {
            serve::ServingConfig sc;
            sc.max_batch = 8;
            sc.bucket_granularity = 16;
            sc.max_wait = std::chrono::seconds(5);
            serve::ServingEngine engine(q.model(), sc);
            const auto got = engine.serveAll(reqs);
            EXPECT_TRUE(bitwiseEqual(got, want))
                << "kind=" << static_cast<int>(mk)
                << " threads=" << threads;
            const auto st = engine.stats();
            EXPECT_EQ(st.completed, reqs.size());
            EXPECT_LT(st.batches, reqs.size()); // actually batched
        });
    }
}

TEST_F(QuantKernelsTest, QuantizedModelKeepsTrainedAccuracy)
{
    // Int8 counterpart of Quantize.TrainedAccuracyPreservedInFp16
    // (throughput_quantize_test.cpp): dynamic-activation int8 keeps a
    // trained model's accuracy on the synthetic LRA Text task.
    Rng rng(11);
    auto gen = data::makeLraGenerator("Text", 32);
    auto train = gen->dataset(96, rng);
    auto test = gen->dataset(64, rng);

    ModelConfig cfg = tinyCfg(ModelKind::Transformer);
    cfg.vocab = 256;
    cfg.classes = 2;
    cfg.max_seq = 32;
    auto model = buildModel(cfg, rng);
    const double acc_fp32 =
        trainClassifier(*model, train, test, 32, 3, 16, 2e-3f, rng);

    QuantizedSequenceClassifier q(std::move(model), QuantKind::Int8);
    const double acc_int8 = q.evaluate(test, 32);
    EXPECT_NEAR(acc_int8, acc_fp32, 0.08);
}

} // namespace
} // namespace fabnet
