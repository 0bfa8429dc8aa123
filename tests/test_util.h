/**
 * @file test_util.h
 * Shared randomized kernel-parity test harness.
 *
 * The runtime's core guarantee (runtime/parallel.h) is that every
 * parallel/blocked/quantized kernel is bitwise identical to its scalar
 * reference at any thread count. The suites that pin this down
 * (parallel_kernels_test, serving_test, quant_kernels_test) all need
 * the same machinery: exact-equality assertions, thread-count sweeps
 * with pool cleanup, seeded shape sweeps that include odd and
 * non-power-of-two sizes, and serial-serving baselines. It lives here
 * once so a new kernel's parity suite is a page, not a file of
 * re-derived helpers.
 */
#ifndef FABNET_TESTS_TEST_UTIL_H
#define FABNET_TESTS_TEST_UTIL_H

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "model/classifier.h"
#include "model/generator.h"
#include "nn/embedding.h"
#include "nn/rowset.h"
#include "runtime/parallel.h"
#include "runtime/workspace.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace fabnet {
namespace testutil {

/** The canonical thread sweep: inline, under-, and over-subscribed. */
inline constexpr std::size_t kThreadCounts[] = {1, 4, 8};

/**
 * Fixture that restores the global runtime knobs (pool size from
 * FABNET_NUM_THREADS, grow-only workspace policy) after each test, so
 * thread sweeps and cap experiments cannot leak into later suites.
 */
class RuntimeFixture : public ::testing::Test
{
  protected:
    void TearDown() override
    {
        runtime::setNumThreads(0);
        runtime::setWorkspaceCapBytes(0);
    }
};

/** Run @p body once per kThreadCounts entry with the pool resized. */
template <class F>
inline void
forEachThreadCount(F &&body)
{
    for (std::size_t threads : kThreadCounts) {
        runtime::setNumThreads(threads);
        body(threads);
    }
}

/** Exact float equality, reported with the max-abs-diff on failure. */
inline ::testing::AssertionResult
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    if (a.shape() != b.shape())
        return ::testing::AssertionFailure()
               << "shape mismatch " << a.shapeString() << " vs "
               << b.shapeString();
    if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
        return ::testing::AssertionFailure()
               << "payload differs (maxAbsDiff=" << ops::maxAbsDiff(a, b)
               << ")";
    }
    return ::testing::AssertionSuccess();
}

/** Exact equality over per-request logit vectors (serving parity). */
inline ::testing::AssertionResult
bitwiseEqual(const std::vector<std::vector<float>> &a,
             const std::vector<std::vector<float>> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure() << "request count differs";
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].size() != b[i].size())
            return ::testing::AssertionFailure()
                   << "logit count differs at request " << i;
        if (std::memcmp(a[i].data(), b[i].data(),
                        a[i].size() * sizeof(float)) != 0)
            return ::testing::AssertionFailure()
                   << "logits differ at request " << i;
    }
    return ::testing::AssertionSuccess();
}

/** Tolerance check, reported with the actual max-abs-diff. */
inline ::testing::AssertionResult
maxAbsDiffWithin(const Tensor &a, const Tensor &b, float tol)
{
    if (a.shape() != b.shape())
        return ::testing::AssertionFailure()
               << "shape mismatch " << a.shapeString() << " vs "
               << b.shapeString();
    const float d = ops::maxAbsDiff(a, b);
    if (d > tol)
        return ::testing::AssertionFailure()
               << "maxAbsDiff " << d << " > tol " << tol;
    return ::testing::AssertionSuccess();
}

// ------------------------------------------------- tolerance parity
//
// Approximate paths (nn/sparse_attention.h) cannot claim bitwise
// equality with exact attention; their discipline is (a) PINNED
// abs/rel tolerance bounds against the exact path and (b) golden
// accuracy floors on fixed-seed tasks - pinned like golden values, so
// a fidelity regression fails loudly instead of drifting. Failures
// report max-abs, max-rel AND max-ULP distance so a near-miss can be
// triaged (rounding-level vs genuinely divergent) from the log alone.

/**
 * Bit-space distance between two floats: the number of representable
 * values between them (0 = identical bits, 1 = adjacent floats).
 * NaN anywhere reports the maximum distance.
 */
inline std::int64_t
ulpDiff(float a, float b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::numeric_limits<std::int64_t>::max();
    const auto key = [](float x) {
        std::uint32_t u;
        std::memcpy(&u, &x, sizeof(u));
        // Map the IEEE bit pattern to a monotone integer line:
        // negatives mirror below zero so -0.0 and +0.0 coincide.
        return (u & 0x80000000u)
                   ? -static_cast<std::int64_t>(u & 0x7fffffffu)
                   : static_cast<std::int64_t>(u);
    };
    return std::llabs(key(a) - key(b));
}

/** Pinned tolerance bounds: |got - want| <= abs + rel * |want|. */
struct NearBounds
{
    float abs_tol;
    float rel_tol;
};

/**
 * Tolerance parity over two same-shape tensors against PINNED bounds,
 * elementwise |got - want| <= abs + rel * |want|. On failure reports
 * the worst element's index, values, abs/rel excess and ULP distance.
 */
inline ::testing::AssertionResult
nearParity(const Tensor &got, const Tensor &want, NearBounds nb)
{
    if (got.shape() != want.shape())
        return ::testing::AssertionFailure()
               << "shape mismatch " << got.shapeString() << " vs "
               << want.shapeString();
    double worst_excess = 0.0;
    std::size_t worst = 0;
    double max_abs = 0.0, max_rel = 0.0;
    std::int64_t max_ulp = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
        const float g = got.data()[i];
        const float w = want.data()[i];
        const double ad = std::fabs(static_cast<double>(g) - w);
        const double bound =
            nb.abs_tol + nb.rel_tol * std::fabs(static_cast<double>(w));
        max_abs = std::max(max_abs, ad);
        if (w != 0.0f)
            max_rel = std::max(max_rel, ad / std::fabs(w));
        max_ulp = std::max(max_ulp, ulpDiff(g, w));
        if (ad - bound > worst_excess) {
            worst_excess = ad - bound;
            worst = i;
        }
        if (std::isnan(g))
            return ::testing::AssertionFailure()
                   << "NaN at element " << i;
    }
    if (worst_excess > 0.0)
        return ::testing::AssertionFailure()
               << "element " << worst << ": got "
               << got.data()[worst] << " want " << want.data()[worst]
               << " exceeds |d| <= " << nb.abs_tol << " + "
               << nb.rel_tol << "*|want| by " << worst_excess
               << " (maxAbs=" << max_abs << " maxRel=" << max_rel
               << " maxUlp=" << max_ulp << ")";
    return ::testing::AssertionSuccess();
}

/** EXPECT wrapper for nearParity, tagged like the bitwise helpers. */
inline void
expectNearParity(const Tensor &got, const Tensor &want, NearBounds nb,
                 const std::string &tag)
{
    EXPECT_TRUE(nearParity(got, want, nb)) << tag;
}

/**
 * The golden-accuracy pin: a fixed-seed accuracy must stay at or
 * above its PINNED floor. Floors are chosen from a measured run with
 * margin (like golden values, not re-derived per run), so an
 * approximation-quality regression fails this assertion instead of
 * silently eroding the frontier.
 */
inline ::testing::AssertionResult
accuracyAboveFloor(double acc, double floor_value,
                   const std::string &what)
{
    if (acc >= floor_value)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << what << ": accuracy " << acc
           << " fell below the pinned golden floor " << floor_value;
}

/** One GEMM problem size. */
struct GemmShape
{
    std::size_t m, k, n;
};

/**
 * Seeded GEMM shape sweep: fixed corners covering the degenerate
 * (1x1x1), odd/non-power-of-two, fewer-rows-than-threads and
 * register-tile-aligned cases, plus @p extra random draws with every
 * dimension uniform in [1, 160] (so partial 4x32 tiles, odd k pairing
 * and sub-grain row counts all get exercised with fresh shapes).
 */
inline std::vector<GemmShape>
gemmShapeSweep(unsigned seed, std::size_t extra = 4)
{
    std::vector<GemmShape> shapes = {
        {1, 1, 1},    {3, 5, 7},    {7, 3, 129}, {129, 65, 33},
        {2, 257, 19}, {64, 64, 64}, {5, 31, 32}, {4, 32, 96},
    };
    Rng rng(seed);
    for (std::size_t i = 0; i < extra; ++i)
        shapes.push_back({static_cast<std::size_t>(rng.randint(1, 160)),
                          static_cast<std::size_t>(rng.randint(1, 160)),
                          static_cast<std::size_t>(rng.randint(1, 160))});
    return shapes;
}

/**
 * Row-count sweep for batched row-kernels (butterfly): below, at and
 * above the 16-row stage-major block, plus @p extra random draws.
 */
inline std::vector<std::size_t>
rowSweep(unsigned seed, std::size_t extra = 2)
{
    std::vector<std::size_t> rows = {1, 3, 16, 37};
    Rng rng(seed);
    for (std::size_t i = 0; i < extra; ++i)
        rows.push_back(static_cast<std::size_t>(rng.randint(1, 64)));
    return rows;
}

// ------------------------------------------------- backward parity

/** Deterministic N(0,1) tensor (dL/dy probes, parity inputs). */
inline Tensor
randomTensor(std::vector<std::size_t> shape, unsigned seed)
{
    Rng rng(seed);
    return rng.normalTensor(std::move(shape));
}

/** Copy of every parameter gradient, in collectParams order. */
inline std::vector<std::vector<float>>
snapshotGrads(const std::vector<nn::ParamRef> &params)
{
    std::vector<std::vector<float>> snap;
    snap.reserve(params.size());
    for (const auto &p : params)
        snap.push_back(*p.grad);
    return snap;
}

/** Exact equality of the live grads against a snapshot. */
inline ::testing::AssertionResult
gradsBitwiseEqual(const std::vector<nn::ParamRef> &params,
                  const std::vector<std::vector<float>> &snap)
{
    if (params.size() != snap.size())
        return ::testing::AssertionFailure() << "param count differs";
    for (std::size_t i = 0; i < params.size(); ++i) {
        const std::vector<float> &g = *params[i].grad;
        if (g.size() != snap[i].size())
            return ::testing::AssertionFailure()
                   << "grad " << i << " size differs";
        if (std::memcmp(g.data(), snap[i].data(),
                        g.size() * sizeof(float)) != 0) {
            float mx = 0.0f;
            for (std::size_t j = 0; j < g.size(); ++j)
                mx = std::max(mx, std::fabs(g[j] - snap[i][j]));
            return ::testing::AssertionFailure()
                   << "grad " << i << " payload differs (maxAbsDiff="
                   << mx << ")";
        }
    }
    return ::testing::AssertionSuccess();
}

/**
 * The backward-parity check, shared by every grad-parity suite:
 * forward once (at one thread; the forward paths have their own
 * parity suites), run the seed backwardReference to get the baseline
 * dL/dx and parameter grads, then run the parallel backward() at each
 * kThreadCounts entry - dL/dx and every parameter gradient must be
 * BITWISE identical to the baseline. @p tag names the failing case.
 */
inline void
expectBackwardParity(nn::Layer &layer, const Tensor &x, unsigned seed,
                     const std::string &tag)
{
    runtime::setNumThreads(1);
    const Tensor y = layer.forward(x);
    const Tensor probe = randomTensor(y.shape(), seed);

    std::vector<nn::ParamRef> params;
    layer.collectParams(params);

    nn::zeroGrads(params);
    const Tensor gx_ref = layer.backwardReference(probe);
    const auto grads_ref = snapshotGrads(params);

    forEachThreadCount([&](std::size_t threads) {
        nn::zeroGrads(params);
        const Tensor gx = layer.backward(probe);
        EXPECT_TRUE(bitwiseEqual(gx, gx_ref))
            << tag << " dL/dx, threads=" << threads;
        EXPECT_TRUE(gradsBitwiseEqual(params, grads_ref))
            << tag << " param grads, threads=" << threads;
    });
}

// ------------------------------------------------- ragged parity

/**
 * Length-vector sweep for ragged-batch parity tests: the degenerate
 * corners a packed batch must survive (batch of 1, all lengths
 * equal to seq - padding-free, all single-token rows, lengths
 * straddling the full [1, seq] range including a max-length row),
 * plus @p extra random ragged draws. Every entry is a lens vector
 * valid for a [*, seq] batch.
 */
inline std::vector<std::vector<std::size_t>>
raggedLensSweep(std::size_t seq, unsigned seed, std::size_t extra = 2)
{
    std::vector<std::vector<std::size_t>> sweeps = {
        {std::max<std::size_t>(seq / 2, 1)}, // batch of 1, padded
        {seq},                               // batch of 1, no padding
        {seq, seq, seq},                     // all equal, no padding
        {1, 1, 1, 1},                        // all single-token
        {1, seq, seq / 2 + 1, 2, seq - 1},   // max-straddle mix
    };
    Rng rng(seed);
    for (std::size_t i = 0; i < extra; ++i) {
        const std::size_t batch =
            static_cast<std::size_t>(rng.randint(1, 9));
        std::vector<std::size_t> lens(batch);
        for (auto &L : lens)
            L = static_cast<std::size_t>(
                rng.randint(1, static_cast<int>(seq)));
        sweeps.push_back(std::move(lens));
    }
    return sweeps;
}

/** N(0,1) packed input of @p rows: [rows.totalRows(), d], sequence b
 *  at rows [rows.start(b), rows.start(b) + rows.len(b)). */
inline Tensor
raggedInput(const nn::RowSet &rows, std::size_t d, unsigned seed)
{
    Rng rng(seed);
    return rng.normalTensor({rows.totalRows(), d});
}

/**
 * The unpadded baseline of a packed batch: each sequence's rows run
 * alone through the layer's forward() as a [1, rows.len(b), d] batch,
 * packed back into a [rows.totalRows(), d_out] tensor.
 */
inline Tensor
unpaddedForward(nn::Layer &layer, const Tensor &x, const nn::RowSet &rows)
{
    const std::size_t d = x.dim(1);
    Tensor want;
    for (std::size_t b = 0; b < rows.batch(); ++b) {
        const std::size_t n = rows.len(b);
        Tensor xb({1, n, d});
        std::memcpy(xb.data(), x.data() + rows.start(b) * d,
                    n * d * sizeof(float));
        const Tensor yb = layer.forward(xb);
        const std::size_t d_out = yb.dim(2);
        if (b == 0)
            want = Tensor({rows.totalRows(), d_out});
        std::memcpy(want.data() + rows.start(b) * d_out, yb.data(),
                    n * d_out * sizeof(float));
    }
    return want;
}

/**
 * The ragged-parity check: run each sequence's own unpadded forward()
 * once at one thread as the baseline, then forwardRows on the packed
 * batch at each kThreadCounts entry - every row must be BITWISE
 * identical to the baseline. @p x is packed (use raggedInput()).
 */
inline void
expectRaggedForwardParity(nn::Layer &layer, const Tensor &x,
                          const nn::RowSet &rows, const std::string &tag)
{
    runtime::setNumThreads(1);
    const Tensor want = unpaddedForward(layer, x, rows);
    forEachThreadCount([&](std::size_t threads) {
        EXPECT_TRUE(bitwiseEqual(layer.forwardRows(x, rows), want))
            << tag << ", threads=" << threads;
    });
}

/** Random token sequences of the given lengths (serving tests). */
inline std::vector<std::vector<int>>
makeRequests(const std::vector<std::size_t> &lens, std::size_t vocab,
             unsigned seed)
{
    Rng rng(seed);
    std::vector<std::vector<int>> reqs;
    reqs.reserve(lens.size());
    for (std::size_t len : lens) {
        std::vector<int> toks(len);
        for (int &t : toks)
            t = rng.randint(1, static_cast<int>(vocab) - 1);
        reqs.push_back(std::move(toks));
    }
    return reqs;
}

/** Serial serving baseline: one unpadded forward per request. */
inline std::vector<std::vector<float>>
serveSerial(SequenceClassifier &model,
            const std::vector<std::vector<int>> &reqs)
{
    std::vector<std::vector<float>> out;
    out.reserve(reqs.size());
    for (const auto &r : reqs) {
        const Tensor logits = model.forward(r, 1, r.size());
        out.emplace_back(logits.data(), logits.data() + logits.size());
    }
    return out;
}

/** Greedy reference: tokens a solo full-recompute loop generates. */
inline std::vector<int>
referenceGreedy(CausalGenerator &gen, std::vector<int> seq,
                std::size_t max_new, int eos = -1)
{
    std::vector<int> out;
    while (out.size() < max_new && seq.size() <= gen.maxSeq()) {
        const int tok = nn::argmaxRows(gen.forwardFull({seq}))[0];
        out.push_back(tok);
        if (eos >= 0 && tok == eos)
            break;
        if (seq.size() == gen.maxSeq())
            break;
        seq.push_back(tok);
    }
    return out;
}

/**
 * Odd request lengths straddling granularity-16 bucket boundaries:
 * below, at, and above multiples, plus the extremes (max_seq 64).
 */
inline std::vector<std::size_t>
mixedLens()
{
    return {1, 3, 15, 16, 17, 23, 31, 32, 33, 47, 5, 64, 63, 2, 16, 49};
}

} // namespace testutil
} // namespace fabnet

#endif // FABNET_TESTS_TEST_UTIL_H
