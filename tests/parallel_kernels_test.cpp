/**
 * @file parallel_kernels_test.cpp
 * Bitwise parity of the parallel/blocked hot-path kernels against the
 * retained reference scalar paths, across odd shapes (non-power-of-two
 * m/n/k, fewer rows than threads) and thread counts {1, 4, 8}.
 *
 * "Bitwise" is literal: the runtime's determinism guarantee (see
 * runtime/parallel.h) says results are identical at any thread count,
 * so every comparison here is exact float equality, not tolerance.
 * The sweep/equality machinery is the shared harness in test_util.h;
 * quant_kernels_test.cpp runs the same discipline over the int8/fp16
 * kernels.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "butterfly/butterfly.h"
#include "nn/attention.h"
#include "nn/basic_layers.h"
#include "nn/block.h"
#include "nn/dense.h"
#include "nn/embedding.h"
#include "nn/rowset.h"
#include "runtime/kernels.h"
#include "runtime/parallel.h"
#include "sim/datapath.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "test_util.h"

namespace fabnet {
namespace {

using testutil::bitwiseEqual;
using testutil::forEachThreadCount;
using testutil::kThreadCounts;

using ParallelKernelsTest = testutil::RuntimeFixture;

TEST_F(ParallelKernelsTest, MatmulParityOddShapes)
{
    Rng rng(7);
    for (const auto &s : testutil::gemmShapeSweep(101)) {
        Tensor a = rng.normalTensor({s.m, s.k});
        Tensor b = rng.normalTensor({s.k, s.n});
        const Tensor want = ops::reference::matmul(a, b);
        forEachThreadCount([&](std::size_t threads) {
            EXPECT_TRUE(bitwiseEqual(ops::matmul(a, b), want))
                << "matmul " << s.m << "x" << s.k << "x" << s.n
                << " at " << threads << " threads";
        });
    }
}

TEST_F(ParallelKernelsTest, MatmulTransposedParityOddShapes)
{
    Rng rng(11);
    for (const auto &s : testutil::gemmShapeSweep(103)) {
        Tensor a = rng.normalTensor({s.m, s.k});
        Tensor b = rng.normalTensor({s.n, s.k}); // [n, k]
        const Tensor want = ops::reference::matmulTransposed(a, b);
        forEachThreadCount([&](std::size_t threads) {
            EXPECT_TRUE(
                bitwiseEqual(ops::matmulTransposed(a, b), want))
                << "matmulT " << s.m << "x" << s.k << "x" << s.n
                << " at " << threads << " threads";
        });
    }
}

TEST_F(ParallelKernelsTest, ButterflyMatrixBatchParity)
{
    // Up to the served cores: 256 points (projections, FFN expand)
    // and the 10-stage 1024-point FFN contract core.
    for (std::size_t n : {4u, 32u, 128u, 256u, 1024u}) {
        ButterflyMatrix m(n);
        Rng rng(n);
        m.initRandomRotation(rng);
        // Rows below, at, and above the stage-major block size, and
        // fewer rows than threads.
        for (std::size_t rows : testutil::rowSweep(n)) {
            Tensor x = rng.normalTensor({rows, n});
            const Tensor want = m.applyBatchReference(x);
            forEachThreadCount([&](std::size_t threads) {
                EXPECT_TRUE(bitwiseEqual(m.applyBatch(x), want))
                    << "n=" << n << " rows=" << rows
                    << " threads=" << threads;
            });
        }
    }
}

TEST_F(ParallelKernelsTest, ButterflyLinearBatchParity)
{
    Rng rng(21);
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
    for (const Shape &s : shapes) {
        ButterflyLinear lin(s.in, s.out);
        lin.initRandomRotation(rng);
        for (float &b : lin.bias())
            b = rng.normal();
        for (std::size_t rows : s.rows) {
            Tensor x = rng.normalTensor({rows, s.in});
            const Tensor want = lin.applyBatchReference(x);
            forEachThreadCount([&](std::size_t threads) {
                EXPECT_TRUE(bitwiseEqual(lin.applyBatch(x), want))
                    << "in=" << s.in << " out=" << s.out
                    << " rows=" << rows << " threads=" << threads;
            });
        }
    }
}

/**
 * The scalar per-stage trajectory of one ButterflyLinear row, written
 * out as the test's reference for the training caches: the padded
 * input, then per core its stage inputs and output, in the cacheSize()
 * layout; @p out receives the biased row.
 */
void
scalarTrajectory(const ButterflyLinear &lin, const float *in, float *out,
                 float *cache)
{
    const std::size_t n = lin.coreSize();
    const std::size_t stages = lin.core(0).numStages();
    const std::size_t per_core = (stages + 1) * n;
    std::fill(cache, cache + n, 0.0f);
    std::memcpy(cache, in, lin.inFeatures() * sizeof(float));
    for (std::size_t c = 0; c < lin.numCores(); ++c) {
        float *cc = cache + n + c * per_core;
        std::memcpy(cc, cache, n * sizeof(float));
        const std::vector<float> &w = lin.core(c).weights();
        for (std::size_t s = 0; s < stages; ++s) {
            const float *cur = cc + s * n;
            float *nxt = cc + (s + 1) * n;
            for (std::size_t p = 0; p < n / 2; ++p) {
                std::size_t i1, i2;
                ButterflyMatrix::pairIndices(s, p, i1, i2);
                const float *wp = &w[lin.core(c).weightIndex(s, p)];
                nxt[i1] = runtime::madd(wp[0], cur[i1], wp[1] * cur[i2]);
                nxt[i2] = runtime::madd(wp[2], cur[i1], wp[3] * cur[i2]);
            }
        }
        const std::size_t base = c * n;
        const std::size_t take = std::min(n, lin.outFeatures() - base);
        for (std::size_t j = 0; j < take; ++j)
            out[base + j] = cc[stages * n + j] + lin.bias()[base + j];
    }
}

TEST_F(ParallelKernelsTest, ButterflyTrainingCachesMatchScalarTrajectory)
{
    // The training forward records its caches inside the stage-major
    // kernel (ButterflyDense::forward's chunking): every cache float
    // and output must equal the scalar trajectory bit for bit. Pad,
    // truncate and expand shapes plus the served FFN linears; rows
    // around the 16-row block.
    const std::size_t shapes[][2] = {
        {24, 24}, {48, 17}, {32, 96}, {256, 1024}, {1024, 256}};
    Rng rng(29);
    for (const auto &sh : shapes) {
        ButterflyLinear lin(sh[0], sh[1]);
        lin.initRandomRotation(rng);
        for (float &b : lin.bias())
            b = rng.normal();
        const std::size_t in = lin.inFeatures(), out = lin.outFeatures();
        const std::size_t cs = lin.cacheSize();
        for (std::size_t rows : {1u, 15u, 16u, 17u, 33u}) {
            const Tensor x = rng.normalTensor({rows, in});
            std::vector<float> want_y(rows * out), want_c(rows * cs);
            for (std::size_t r = 0; r < rows; ++r)
                scalarTrajectory(lin, x.data() + r * in,
                                 want_y.data() + r * out,
                                 want_c.data() + r * cs);
            forEachThreadCount([&](std::size_t threads) {
                std::vector<float> y(rows * out), cache(rows * cs);
                runtime::parallelFor(
                    0, rows, runtime::kBflyBlockRows,
                    [&](std::size_t r0, std::size_t r1) {
                        lin.applyToRows(x.data() + r0 * in,
                                        y.data() + r0 * out, r1 - r0,
                                        cache.data() + r0 * cs);
                    });
                const std::string tag =
                    "in=" + std::to_string(in) + " out=" +
                    std::to_string(out) + " rows=" + std::to_string(rows) +
                    " threads=" + std::to_string(threads);
                EXPECT_EQ(0, std::memcmp(y.data(), want_y.data(),
                                         y.size() * sizeof(float)))
                    << tag << " outputs";
                EXPECT_EQ(0, std::memcmp(cache.data(), want_c.data(),
                                         cache.size() * sizeof(float)))
                    << tag << " caches";
            });
        }
    }
}

/** Dense-projection attention; equal seeds give equal weights. */
std::unique_ptr<nn::MultiHeadAttention>
makeAttention(unsigned seed, std::size_t d, std::size_t heads, bool causal)
{
    Rng rng(seed);
    return std::make_unique<nn::MultiHeadAttention>(
        d, heads, std::make_unique<nn::Dense>(d, d, rng),
        std::make_unique<nn::Dense>(d, d, rng),
        std::make_unique<nn::Dense>(d, d, rng),
        std::make_unique<nn::Dense>(d, d, rng), causal);
}

/** Attention shapes for the forward parity suites: {t, d, heads}. The
 *  long ones fill whole 4x32 GEMM tiles, more than one 32-row query
 *  block and more than one 32-key column tile, with ragged tails. */
struct AttnShape
{
    std::size_t t, d, heads;
};
constexpr AttnShape kAttnShapes[] = {{7, 12, 3}, {67, 64, 2}, {130, 64, 2}};

TEST_F(ParallelKernelsTest, AttentionForwardParity)
{
    // Odd t, heads > 1, batch > 1; causal and bidirectional.
    for (const AttnShape &s : kAttnShapes) {
        Rng data_rng(5);
        const Tensor x = data_rng.normalTensor({2, s.t, s.d});
        for (bool causal : {false, true}) {
            const Tensor want =
                makeAttention(17, s.d, s.heads, causal)->forwardReference(x);
            forEachThreadCount([&](std::size_t threads) {
                const Tensor got =
                    makeAttention(17, s.d, s.heads, causal)->forward(x);
                EXPECT_TRUE(bitwiseEqual(got, want))
                    << "t=" << s.t << " causal=" << causal
                    << " threads=" << threads;
            });
        }
    }
}

TEST_F(ParallelKernelsTest, AttentionThreadCountInvariance)
{
    Rng data_rng(9);
    Tensor x = data_rng.normalTensor({2, 13, 16});
    Tensor first;
    forEachThreadCount([&](std::size_t threads) {
        Rng rng(31);
        nn::MultiHeadAttention mha(
            16, 4, std::make_unique<nn::Dense>(16, 16, rng),
            std::make_unique<nn::Dense>(16, 16, rng),
            std::make_unique<nn::Dense>(16, 16, rng),
            std::make_unique<nn::Dense>(16, 16, rng));
        Tensor y = mha.forward(x);
        if (first.size() == 0)
            first = y;
        else
            EXPECT_TRUE(bitwiseEqual(y, first))
                << "threads=" << threads;
    });
}

TEST_F(ParallelKernelsTest, DenseForwardThreadCountInvariance)
{
    Rng data_rng(2);
    Tensor x = data_rng.normalTensor({3, 11, 24});
    Tensor first;
    forEachThreadCount([&](std::size_t threads) {
        Rng rng(13);
        nn::Dense dense(24, 37, rng);
        Tensor y = dense.forward(x);
        if (first.size() == 0)
            first = y;
        else
            EXPECT_TRUE(bitwiseEqual(y, first))
                << "threads=" << threads;
    });
}

TEST_F(ParallelKernelsTest, DenseForwardEqualsScalarChain)
{
    // Dense::forwardRows has no row-count branch: below, at and past
    // the GEMM tile height, and on a packed ragged set (whose 4-row
    // tiles hold rows of two sequences), every output is the chain
    // bias, then i-ascending madd over the stored [in, out] weight -
    // the chain single-token inference used to run as scalar dot
    // products.
    const std::size_t in = 24, out = 37;
    Rng rng(79);
    nn::Dense dense(in, out, rng);
    for (float &b : dense.bias())
        b = rng.normal();
    const std::vector<float> &w = dense.weight();

    std::vector<std::pair<nn::RowSet, Tensor>> cases;
    for (std::size_t n = 1; n <= 9; ++n) {
        const nn::RowSet rows(1, n);
        cases.emplace_back(rows, testutil::raggedInput(rows, in, 80 + n));
    }
    const nn::RowSet ragged(4, 7, {7, 2, 5, 1});
    cases.emplace_back(ragged, testutil::raggedInput(ragged, in, 90));

    for (const auto &[rows, x] : cases) {
        Tensor want({rows.totalRows(), out});
        for (std::size_t r = 0; r < rows.totalRows(); ++r) {
            const float *xr = x.data() + r * in;
            for (std::size_t o = 0; o < out; ++o) {
                float acc = dense.bias()[o];
                for (std::size_t i = 0; i < in; ++i)
                    acc = runtime::madd(xr[i], w[i * out + o], acc);
                want.data()[r * out + o] = acc;
            }
        }
        forEachThreadCount([&](std::size_t threads) {
            EXPECT_TRUE(bitwiseEqual(dense.forwardRows(x, rows), want))
                << rows.totalRows() << " rows over " << rows.batch()
                << " sequences, threads=" << threads;
        });
    }
}

TEST_F(ParallelKernelsTest, SimBatchCrossValidation)
{
    // The functional fp16 engine batch entry must track the fp32
    // software applyBatch within half precision, row for row.
    const std::size_t n = 64, rows = 9;
    ButterflyMatrix m(n);
    Rng rng(41);
    m.initRandomRotation(rng);
    Tensor x = rng.normalTensor({rows, n});

    const Tensor sw = m.applyBatch(x);
    sim::FunctionalButterflyEngine engine(4);
    sim::FunctionalButterflyEngine::RunStats stats;
    forEachThreadCount([&](std::size_t threads) {
        const Tensor hw = engine.runButterflyLinearBatch(m, x, &stats);
        EXPECT_EQ(stats.butterfly_ops, rows * m.numStages() * (n / 2));
        EXPECT_TRUE(testutil::maxAbsDiffWithin(sw, hw, 0.15f))
            << "threads=" << threads;
    });
}

// --------------------------------------------------- ragged parity
//
// The packed-batch forward of every layer must be bitwise identical
// to each sequence's unpadded forward, row for row, at threads
// {1, 4, 8}, across degenerate length vectors (batch of 1,
// all-equal/no-padding, all-single-token, max-straddle mixes).
// `ctest -L ragged-parity`.

TEST_F(ParallelKernelsTest, RaggedDenseParity)
{
    const std::size_t seq = 12, in = 24, out = 37;
    Rng rng(61);
    nn::Dense dense(in, out, rng);
    for (const auto &lens : testutil::raggedLensSweep(seq, 211)) {
        const nn::RowSet rows(lens.size(), seq, lens);
        const Tensor x = testutil::raggedInput(rows, in, 71);
        testutil::expectRaggedForwardParity(dense, x, rows, "Dense");
    }
}

TEST_F(ParallelKernelsTest, RaggedQuantizedDenseParity)
{
    const std::size_t seq = 10, in = 24, out = 19;
    Rng rng(67);
    nn::Dense dense(in, out, rng);
    for (QuantKind kind : {QuantKind::Int8, QuantKind::Fp16}) {
        nn::QuantizedDense q(dense, kind);
        for (const auto &lens : testutil::raggedLensSweep(seq, 223)) {
            const nn::RowSet rows(lens.size(), seq, lens);
            const Tensor x = testutil::raggedInput(rows, in, 73);
            testutil::expectRaggedForwardParity(
                q, x, rows,
                kind == QuantKind::Int8 ? "QuantizedDense int8"
                                        : "QuantizedDense fp16");
        }
    }
}

TEST_F(ParallelKernelsTest, RaggedButterflyDenseParity)
{
    // (in, out) covering pad, truncate and multi-core expand paths.
    const std::size_t shapes[][2] = {{24, 24}, {16, 48}, {48, 17}};
    const std::size_t seq = 19; // straddles the 16-row stage block
    Rng rng(73);
    for (const auto &s : shapes) {
        nn::ButterflyDense dense(s[0], s[1], rng);
        for (const auto &lens : testutil::raggedLensSweep(seq, 227)) {
            const nn::RowSet rows(lens.size(), seq, lens);
            const Tensor x = testutil::raggedInput(rows, s[0], 79);
            testutil::expectRaggedForwardParity(dense, x, rows,
                                                "ButterflyDense");
        }
    }
}

TEST_F(ParallelKernelsTest, RaggedQuantizedButterflyDenseParity)
{
    const std::size_t seq = 9, in = 32, out = 32;
    Rng rng(79);
    nn::ButterflyDense dense(in, out, rng);
    for (QuantKind kind : {QuantKind::Int8, QuantKind::Fp16}) {
        nn::QuantizedButterflyDense q(dense, kind);
        for (const auto &lens : testutil::raggedLensSweep(seq, 229)) {
            const nn::RowSet rows(lens.size(), seq, lens);
            const Tensor x = testutil::raggedInput(rows, in, 83);
            testutil::expectRaggedForwardParity(
                q, x, rows,
                kind == QuantKind::Int8 ? "QButterflyDense int8"
                                        : "QButterflyDense fp16");
        }
    }
}

TEST_F(ParallelKernelsTest, RaggedLayerNormAndActivationParity)
{
    const std::size_t seq = 11, d = 16;
    nn::LayerNorm ln(d);
    nn::Gelu gelu;
    for (const auto &lens : testutil::raggedLensSweep(seq, 233)) {
        const nn::RowSet rows(lens.size(), seq, lens);
        const Tensor x = testutil::raggedInput(rows, d, 89);
        testutil::expectRaggedForwardParity(ln, x, rows, "LayerNorm");
        testutil::expectRaggedForwardParity(gelu, x, rows, "Gelu");
    }
}

TEST_F(ParallelKernelsTest, RaggedAttentionParity)
{
    // forwardRows vs unpadded forward: each sequence's rows attend
    // over that sequence's keys only and skip the attn_ cache, yet
    // every row must match bit for bit - causal too.
    // The long shapes add lengths straddling the 32-row query block
    // and the 32-key column tile.
    const AttnShape shapes[] = {{9, 12, 3}, {67, 64, 2}, {130, 64, 2}};
    for (const AttnShape &s : shapes) {
        auto sweep = testutil::raggedLensSweep(s.t, 239);
        if (s.t > 64) {
            sweep.push_back({31, 32, 33, s.t});
            sweep.push_back({63, 64, 65, 1, s.t - 1});
        }
        for (bool causal : {false, true}) {
            auto mha = makeAttention(97, s.d, s.heads, causal);
            for (const auto &lens : sweep) {
                const nn::RowSet rows(lens.size(), s.t, lens);
                const Tensor x = testutil::raggedInput(rows, s.d, 101);
                testutil::expectRaggedForwardParity(
                    *mha, x, rows,
                    (causal ? "MHA causal t=" : "MHA t=") +
                        std::to_string(s.t));
            }
        }
    }
}

TEST_F(ParallelKernelsTest, RaggedEncoderBlockParity)
{
    // Whole block: attention over packed rows + row-wise
    // residuals/norms/FFN.
    const std::size_t d = 16, seq = 13;
    Rng rng(103);
    auto mha = std::make_unique<nn::MultiHeadAttention>(
        d, 4, std::make_unique<nn::Dense>(d, d, rng),
        std::make_unique<nn::Dense>(d, d, rng),
        std::make_unique<nn::Dense>(d, d, rng),
        std::make_unique<nn::Dense>(d, d, rng));
    auto ffn = std::make_unique<nn::FeedForward>(
        std::make_unique<nn::Dense>(d, 2 * d, rng),
        std::make_unique<nn::Gelu>(),
        std::make_unique<nn::Dense>(2 * d, d, rng));
    nn::EncoderBlock block(d, std::move(mha), std::move(ffn));
    for (const auto &lens : testutil::raggedLensSweep(seq, 241)) {
        const nn::RowSet rows(lens.size(), seq, lens);
        const Tensor x = testutil::raggedInput(rows, d, 107);
        testutil::expectRaggedForwardParity(block, x, rows,
                                            "EncoderBlock");
    }
}

TEST_F(ParallelKernelsTest, RaggedEmbeddingAndPooledHeadParity)
{
    // The embedding and the pooled head sit outside nn::Layer, so the
    // shared helper cannot drive them: each sequence's unpadded
    // forward is the baseline here, written out.
    const std::size_t seq = 13, d = 24, vocab = 50, classes = 5;
    Rng rng(107);
    nn::Embedding emb(vocab, seq, d, rng);
    nn::MeanPoolClassifier head(d, classes, rng);
    for (const auto &lens : testutil::raggedLensSweep(seq, 257)) {
        const nn::RowSet rows(lens.size(), seq, lens);
        std::vector<int> tokens(rows.batch() * seq);
        for (int &t : tokens)
            t = rng.randint(0, static_cast<int>(vocab) - 1);
        const Tensor x = testutil::raggedInput(rows, d, 109);

        runtime::setNumThreads(1);
        Tensor want_emb({rows.totalRows(), d});
        Tensor want_logits({rows.batch(), classes});
        for (std::size_t b = 0; b < rows.batch(); ++b) {
            const std::size_t n = lens[b];
            const std::vector<int> tb(tokens.begin() + b * seq,
                                      tokens.begin() + b * seq + n);
            const Tensor eb = emb.forward(tb, 1, n);
            std::memcpy(want_emb.data() + rows.start(b) * d, eb.data(),
                        n * d * sizeof(float));
            Tensor xb({1, n, d});
            std::memcpy(xb.data(), x.data() + rows.start(b) * d,
                        n * d * sizeof(float));
            const Tensor lb = head.forward(xb);
            std::memcpy(want_logits.data() + b * classes, lb.data(),
                        classes * sizeof(float));
        }
        forEachThreadCount([&](std::size_t threads) {
            EXPECT_TRUE(bitwiseEqual(emb.forwardRows(tokens, rows),
                                     want_emb))
                << "Embedding rows, threads=" << threads;
            EXPECT_TRUE(bitwiseEqual(head.forwardMasked(x, rows, lens),
                                     want_logits))
                << "MeanPoolClassifier logits, threads=" << threads;
        });
    }
}

TEST_F(ParallelKernelsTest, RowSetStartsArePrefixSums)
{
    // The descriptor itself: sequence b's packed rows start where the
    // sequences before it end, so the segments tile [0, totalRows())
    // exactly once, in order, for degenerate and random shapes.
    const std::size_t seq = 7;
    for (const auto &lens : testutil::raggedLensSweep(seq, 251, 4)) {
        const nn::RowSet rows(lens.size(), seq, lens);
        std::size_t next = 0;
        for (std::size_t b = 0; b < rows.batch(); ++b) {
            EXPECT_EQ(rows.start(b), next) << "sequence " << b;
            EXPECT_EQ(rows.len(b), lens[b]);
            next += lens[b];
        }
        EXPECT_EQ(rows.totalRows(), next);
    }
    const nn::RowSet dense(3, 5);
    for (std::size_t b = 0; b < 3; ++b)
        EXPECT_EQ(dense.start(b), b * 5);
    EXPECT_EQ(dense.totalRows(), 15u);
    EXPECT_THROW(nn::RowSet(2, 4, {1}), std::invalid_argument);
    EXPECT_THROW(nn::RowSet(1, 4, {0}), std::invalid_argument);
    EXPECT_THROW(nn::RowSet(1, 4, {5}), std::invalid_argument);
}

TEST_F(ParallelKernelsTest, ParallelForCoversRangeOnce)
{
    forEachThreadCount([&](std::size_t threads) {
        EXPECT_EQ(runtime::numThreads(), threads);
        std::vector<int> hits(1003, 0);
        runtime::parallelFor(0, hits.size(), 17,
                             [&](std::size_t b, std::size_t e) {
                                 for (std::size_t i = b; i < e; ++i)
                                     ++hits[i];
                             });
        for (std::size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i], 1) << "index " << i;
    });
}

TEST_F(ParallelKernelsTest, ConcurrentCallersStayCorrect)
{
    // Two application threads using the pool at once: the second
    // region runs inline while the first owns the pool; both must
    // still be bitwise correct.
    runtime::setNumThreads(4);
    Rng rng(55);
    Tensor a = rng.normalTensor({96, 64});
    Tensor b = rng.normalTensor({64, 80});
    const Tensor want = ops::reference::matmul(a, b);
    for (int round = 0; round < 10; ++round) {
        Tensor r1, r2;
        std::thread t1([&] { r1 = ops::matmul(a, b); });
        std::thread t2([&] { r2 = ops::matmul(a, b); });
        t1.join();
        t2.join();
        ASSERT_TRUE(bitwiseEqual(r1, want)) << "round " << round;
        ASSERT_TRUE(bitwiseEqual(r2, want)) << "round " << round;
    }
}

TEST_F(ParallelKernelsTest, ParallelForPropagatesExceptions)
{
    runtime::setNumThreads(4);
    EXPECT_THROW(
        runtime::parallelFor(0, 100, 1,
                             [](std::size_t b, std::size_t) {
                                 if (b == 57)
                                     throw std::runtime_error("boom");
                             }),
        std::runtime_error);
}

} // namespace
} // namespace fabnet
