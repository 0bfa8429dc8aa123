/**
 * @file sparse_attention_test.cpp
 * The approximate-attention discipline (`ctest -L approx-accuracy`):
 * the selection kernels (nn/sparse_attention.h) are deterministic with
 * lowest-index tie-breaking; TopK attention with k >= t degenerates
 * BITWISE to the dense path (and ButterflyTopK to Butterfly); every
 * approximate kind is bitwise run-to-run deterministic at thread
 * counts {1,4,8}, bitwise invariant between the ragged path and
 * unpadded forward, and bitwise identical between incremental decode and
 * full recompute; approximate outputs stay within PINNED tolerance
 * bounds of exact attention; and the straight-through backward keeps
 * the fast-vs-reference gradient bitwise parity.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "nn/attention.h"
#include "nn/decode.h"
#include "nn/dense.h"
#include "nn/sparse_attention.h"
#include "tensor/rng.h"
#include "test_util.h"

namespace fabnet {
namespace {

using nn::butterflyCandidateBound;
using nn::butterflyCandidates;
using nn::selectTopK;
using nn::sparseKindName;
using nn::SparseAttentionConfig;
using nn::SparseKind;
using testutil::bitwiseEqual;
using testutil::forEachThreadCount;
using testutil::raggedInput;
using testutil::randomTensor;

/** Dense-projection attention at a fixed seed; same seed + different
 *  sparse config = same weights, different key set. */
std::unique_ptr<nn::MultiHeadAttention>
makeAttention(unsigned seed, SparseAttentionConfig sparse,
              bool causal = false, std::size_t d = 32,
              std::size_t heads = 2)
{
    Rng rng(seed);
    auto mha = std::make_unique<nn::MultiHeadAttention>(
        d, heads, std::make_unique<nn::Dense>(d, d, rng),
        std::make_unique<nn::Dense>(d, d, rng),
        std::make_unique<nn::Dense>(d, d, rng),
        std::make_unique<nn::Dense>(d, d, rng), causal);
    mha->setSparse(sparse);
    return mha;
}

/** The approximate kinds under test (with representative k). */
std::vector<SparseAttentionConfig>
approxKinds()
{
    return {{SparseKind::TopK, 5},
            {SparseKind::Butterfly, 0},
            {SparseKind::ButterflyTopK, 3}};
}

using SparseAttentionTest = testutil::RuntimeFixture;

// ------------------------------------------------- selection kernel

/** Sorted-pairs reference: stable sort by score desc keeps the lower
 *  index first among ties - the contract selectTopK promises. */
std::vector<std::uint32_t>
referenceTopK(const std::vector<float> &scores, std::size_t k)
{
    std::vector<std::uint32_t> idx(scores.size());
    std::iota(idx.begin(), idx.end(), 0u);
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return scores[a] > scores[b];
                     });
    idx.resize(std::min(k, scores.size()));
    std::sort(idx.begin(), idx.end());
    return idx;
}

TEST_F(SparseAttentionTest, SelectTopKMatchesSortReferenceWithTies)
{
    Rng rng(101);
    for (std::size_t n : {1u, 2u, 3u, 7u, 16u, 33u, 128u}) {
        for (std::size_t k : {1u, 2u, 5u, 16u, 200u}) {
            // Coarse score grid forces plenty of duplicate scores, so
            // the tie-break order is what decides the selected set.
            std::vector<float> scores(n);
            for (float &s : scores)
                s = static_cast<float>(rng.randint(0, 3));
            std::vector<std::uint32_t> got(n);
            const std::size_t m =
                selectTopK(scores.data(), n, k, got.data());
            got.resize(m);
            EXPECT_EQ(got, referenceTopK(scores, k))
                << "n=" << n << " k=" << k;
        }
    }
}

TEST_F(SparseAttentionTest, SelectTopKTieBreaksTowardLowerIndex)
{
    // All-equal scores: the selected set must be exactly {0..k-1}.
    const std::vector<float> flat(17, 0.25f);
    std::vector<std::uint32_t> out(flat.size());
    const std::size_t m = selectTopK(flat.data(), flat.size(), 6,
                                     out.data());
    ASSERT_EQ(m, 6u);
    for (std::uint32_t i = 0; i < 6; ++i)
        EXPECT_EQ(out[i], i);
}

TEST_F(SparseAttentionTest, SelectTopKIdentityWhenKCoversAll)
{
    Rng rng(103);
    std::vector<float> scores(23);
    for (float &s : scores)
        s = rng.uniform(-1.0f, 1.0f);
    for (std::size_t k : {23u, 24u, 1000u}) {
        std::vector<std::uint32_t> out(scores.size());
        const std::size_t m =
            selectTopK(scores.data(), scores.size(), k, out.data());
        ASSERT_EQ(m, scores.size());
        for (std::uint32_t i = 0; i < m; ++i)
            EXPECT_EQ(out[i], i);
    }
}

TEST_F(SparseAttentionTest, ButterflyCandidateProperties)
{
    for (std::size_t n : {1u, 2u, 3u, 5u, 8u, 17u, 64u, 100u}) {
        for (std::size_t i = 0; i < n; ++i) {
            std::vector<std::uint32_t> out(butterflyCandidateBound(n));
            const std::size_t m =
                butterflyCandidates(i, n, out.data());
            ASSERT_GE(m, 1u) << "n=" << n << " i=" << i;
            ASSERT_LE(m, butterflyCandidateBound(n));
            bool has_self = false;
            for (std::size_t s = 0; s < m; ++s) {
                EXPECT_LT(out[s], n);
                if (s > 0)
                    EXPECT_LT(out[s - 1], out[s]) << "not ascending";
                // Every candidate is the query or one bit flip away
                // from it.
                const std::size_t x = out[s] ^ i;
                EXPECT_TRUE(x == 0 || (x & (x - 1)) == 0)
                    << "n=" << n << " i=" << i << " cand=" << out[s];
                has_self |= out[s] == i;
            }
            EXPECT_TRUE(has_self) << "n=" << n << " i=" << i;
        }
    }
}

TEST_F(SparseAttentionTest, SetSparseRejectsTopKWithoutK)
{
    auto mha = makeAttention(7, {});
    EXPECT_THROW(mha->setSparse({SparseKind::TopK, 0}),
                 std::invalid_argument);
    EXPECT_THROW(mha->setSparse({SparseKind::ButterflyTopK, 0}),
                 std::invalid_argument);
}

// ------------------------------------------------- bitwise degeneracy

TEST_F(SparseAttentionTest, TopKCoveringAllKeysIsBitwiseDense)
{
    // {t, d, ragged lens}: t = 130 at d = 64 spans several 32-row
    // query blocks and 32-key column tiles, and its lens straddle both.
    const struct
    {
        std::size_t t, d;
        std::vector<std::size_t> lens;
    } shapes[] = {{37, 32, {37, 9, 23}}, {130, 64, {130, 33, 64}}};
    for (const auto &sh : shapes) {
        const std::size_t t = sh.t;
        const Tensor x = randomTensor({3, t, sh.d}, 11);
        for (bool causal : {false, true}) {
            auto exact = makeAttention(21, {}, causal, sh.d);
            for (std::size_t k : {t, t + 5}) {
                auto topk = makeAttention(
                    21, {SparseKind::TopK, k}, causal, sh.d);
                runtime::setNumThreads(1);
                const Tensor want = exact->forward(x);
                forEachThreadCount([&](std::size_t threads) {
                    EXPECT_TRUE(bitwiseEqual(topk->forward(x), want))
                        << "t=" << t << " causal=" << causal
                        << " k=" << k << " threads=" << threads;
                });
                // Ragged batch too: selection sees only the sequence's
                // own keys.
                const nn::RowSet rows(sh.lens.size(), t, sh.lens);
                const Tensor xm = raggedInput(rows, sh.d, 12);
                runtime::setNumThreads(1);
                const Tensor want_m = exact->forwardRows(xm, rows);
                forEachThreadCount([&](std::size_t threads) {
                    EXPECT_TRUE(bitwiseEqual(topk->forwardRows(xm, rows),
                                             want_m))
                        << "ragged t=" << t << " causal=" << causal
                        << " k=" << k << " threads=" << threads;
                });
            }
        }
    }
}

TEST_F(SparseAttentionTest, ButterflyTopKWithLargeKIsBitwiseButterfly)
{
    const std::size_t t = 33;
    const Tensor x = randomTensor({2, t, 32}, 13);
    auto plain = makeAttention(22, {SparseKind::Butterfly, 0});
    // k >= the candidate-set bound: the top-k filter selects every
    // candidate, so the two kinds must produce identical bits.
    auto filtered = makeAttention(
        22, {SparseKind::ButterflyTopK, butterflyCandidateBound(t)});
    runtime::setNumThreads(1);
    const Tensor want = plain->forward(x);
    forEachThreadCount([&](std::size_t threads) {
        EXPECT_TRUE(bitwiseEqual(filtered->forward(x), want))
            << "threads=" << threads;
    });
}

// --------------------------------------- run-to-run + thread sweeps

TEST_F(SparseAttentionTest, ApproxForwardIsDeterministicAcrossRunsAndThreads)
{
    const Tensor x = randomTensor({3, 29, 32}, 17);
    for (const auto &sp : approxKinds()) {
        for (bool causal : {false, true}) {
            auto mha = makeAttention(31, sp, causal);
            runtime::setNumThreads(1);
            const Tensor want = mha->forward(x);
            // Same instance re-run, a fresh same-seed instance, and
            // the full thread sweep: all the same bits.
            auto fresh = makeAttention(31, sp, causal);
            forEachThreadCount([&](std::size_t threads) {
                const std::string tag =
                    std::string(sparseKindName(sp.kind)) +
                    " causal=" + (causal ? "1" : "0") +
                    " threads=" + std::to_string(threads);
                EXPECT_TRUE(bitwiseEqual(mha->forward(x), want)) << tag;
                EXPECT_TRUE(bitwiseEqual(fresh->forward(x), want))
                    << tag << " (fresh instance)";
            });
        }
    }
}

TEST_F(SparseAttentionTest, ApproxRaggedMatchesMaskedDense)
{
    const std::size_t seq = 24, d = 32;
    for (const auto &sp : approxKinds()) {
        for (bool causal : {false, true}) {
            auto mha = makeAttention(41, sp, causal);
            std::size_t case_idx = 0;
            for (const auto &lens :
                 testutil::raggedLensSweep(seq, 43)) {
                const nn::RowSet rows(lens.size(), seq, lens);
                const Tensor x = raggedInput(rows, d, 47 + case_idx);
                testutil::expectRaggedForwardParity(
                    *mha, x, rows,
                    std::string(sparseKindName(sp.kind)) +
                        " causal=" + (causal ? "1" : "0") + " case " +
                        std::to_string(case_idx));
                ++case_idx;
            }
        }
    }
}

// ------------------------------------------------- decode parity

TEST_F(SparseAttentionTest, ApproxDecodeStepMatchesFullRecompute)
{
    const std::size_t b = 3, t = 12, d = 32, prefill_len = 3;
    const Tensor x = randomTensor({b, t, d}, 53);
    for (const auto &sp : approxKinds()) {
        auto mha = makeAttention(59, sp, /*causal=*/true);
        runtime::setNumThreads(1);
        const Tensor ref = mha->forward(x);
        forEachThreadCount([&](std::size_t threads) {
            const std::string tag =
                std::string(sparseKindName(sp.kind)) +
                " threads=" + std::to_string(threads);
            std::vector<nn::KVCache> caches(b);
            nn::StepState step;
            for (auto &c : caches)
                step.caches.push_back(&c);
            step.positions.assign(b, 0);
            // Prefill the first rows, then decode the rest one row at
            // a time; every incremental row must reproduce the full
            // recompute's bits. Both inputs are packed: prefill_len
            // rows per sequence, then one [b, d] row per step.
            const nn::RowSet rows(
                b, prefill_len,
                std::vector<std::size_t>(b, prefill_len));
            Tensor xp = Tensor::zeros(b * prefill_len, d);
            for (std::size_t bb = 0; bb < b; ++bb)
                std::memcpy(xp.data() + bb * prefill_len * d,
                            x.data() + bb * t * d,
                            prefill_len * d * sizeof(float));
            const Tensor yp = mha->forwardPrefill(xp, rows, step);
            for (std::size_t bb = 0; bb < b; ++bb)
                EXPECT_EQ(std::memcmp(
                              yp.data() + bb * prefill_len * d,
                              ref.data() + bb * t * d,
                              prefill_len * d * sizeof(float)),
                          0)
                    << tag << " prefill rows, seq " << bb;
            for (std::size_t i = prefill_len; i < t; ++i) {
                Tensor xs = Tensor::zeros(b, d);
                for (std::size_t bb = 0; bb < b; ++bb)
                    std::memcpy(xs.data() + bb * d,
                                x.data() + (bb * t + i) * d,
                                d * sizeof(float));
                const Tensor ys = mha->forwardStep(xs, step);
                for (std::size_t bb = 0; bb < b; ++bb)
                    EXPECT_EQ(std::memcmp(
                                  ys.data() + bb * d,
                                  ref.data() + (bb * t + i) * d,
                                  d * sizeof(float)),
                              0)
                        << tag << " step " << i << ", seq " << bb;
            }
        });
    }
}

// ------------------------------------------------- pinned tolerance

TEST_F(SparseAttentionTest, ApproxOutputsWithinPinnedToleranceOfExact)
{
    // PINNED bounds, chosen from a measured baseline with ~3x margin
    // (the golden-value discipline): a fidelity regression - e.g. a
    // selection bug that drops high-mass keys - blows through them; a
    // legitimate rounding-level change does not. TopK keeps half the
    // keys (the high-mass ones), so it sits far closer to exact than
    // the O(log t) butterfly set.
    const std::size_t t = 64;
    const Tensor x = randomTensor({2, t, 32}, 61);
    auto exact = makeAttention(67, {});
    runtime::setNumThreads(1);
    const Tensor want = exact->forward(x);

    // Baseline run (this seed, N(0,1) Dense projections, outputs of
    // scale ~6): topk maxAbs 0.285, butterfly/butterfly+topk ~6.2.
    // A selection bug shows up at the output scale, so the topk bound
    // discriminates sharply; the butterfly kinds are COARSE by design
    // - their quality pin is the golden-accuracy floor, this bound
    // only catches gross breakage (NaN, wrong-row gathers).
    auto topk = makeAttention(67, {SparseKind::TopK, t / 2});
    testutil::expectNearParity(topk->forward(x), want,
                               {0.60f, 0.05f}, "topk k=t/2");

    auto bfly = makeAttention(67, {SparseKind::Butterfly, 0});
    testutil::expectNearParity(bfly->forward(x), want,
                               {9.0f, 0.05f}, "butterfly");

    auto bftk = makeAttention(67, {SparseKind::ButterflyTopK, 4});
    testutil::expectNearParity(bftk->forward(x), want,
                               {9.0f, 0.05f}, "butterfly+topk");
}

// ------------------------------------------------- training parity

TEST_F(SparseAttentionTest, ApproxBackwardKeepsBitwiseGradParity)
{
    // The straight-through backward reads the sparse forward's attn_
    // cache (zeros = masked), so the fast-vs-reference gradient parity
    // harness applies to the approximate kinds unchanged.
    const Tensor x = randomTensor({2, 19, 32}, 71);
    for (const auto &sp : approxKinds()) {
        auto mha = makeAttention(73, sp);
        testutil::expectBackwardParity(
            *mha, x, 79, std::string("sparse ") +
                             sparseKindName(sp.kind));
    }
}

} // namespace
} // namespace fabnet
