/**
 * @file isa_dispatch_test.cpp
 * The runtime-dispatch contract (runtime/isa.h + runtime/dispatch.h):
 *   - kernelTableFor() hands out a table exactly for the levels the
 *     host supports, correctly labelled, and support is monotone
 *     (a level implies everything below it), and tuningReport()
 *     names the active level and the cpu signature,
 *   - EVERY host-reachable variant table is bitwise identical to the
 *     scalar table (== ops::reference, pinned by the existing parity
 *     suites) for every kernel family it exports: the fp32 GEMM
 *     register tile, the int8 GEMM panel, the row reductions/
 *     conversions, the fp32/fp16/int8 butterfly stage
 *     sweeps at the one 16-lane block width (int8 up to its int16
 *     bound) and the block edge kernels at 1, 5 and 16 valid rows
 *     with exact-zero padding lanes, and the GELU / softmax rows on
 *     random rows and on signed zeros, infinities, NaN, -1e30 and
 *     both exp bounds - at thread counts {1, 4, 8} where threading
 *     applies,
 *   - expPinned stays within 1 ulp of e^x on [ln FLT_MIN, ln FLT_MAX]
 *     and the GELU row within 16 ulp on [-3, 3], 64 on [-6, 6]
 *     (strided sweeps against long double).
 * Together with the forced-FABNET_ISA re-runs of the kernel parity
 * suites (ctest -L isa-parity) this is the gate that makes one binary
 * safe on every deployment target.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "runtime/autotune.h"
#include "runtime/dispatch.h"
#include "runtime/isa.h"
#include "runtime/kernels.h"
#include "runtime/parallel.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "test_util.h"

namespace fabnet {
namespace {

using runtime::Isa;
using runtime::KernelTable;
using runtime::kernelTableFor;
using runtime::kNumIsaLevels;
using testutil::bitwiseEqual;
using testutil::forEachThreadCount;
using testutil::gemmShapeSweep;

/** Lanes of every stage-major butterfly block. */
constexpr std::size_t kLanes = runtime::kBflyBlockRows;
/** +0.0f, the exact bit pattern of a padding lane. */
constexpr float kZero = 0.0f;

/** Every level the host can run, weakest first (always has Scalar). */
std::vector<const KernelTable *>
supportedTables()
{
    std::vector<const KernelTable *> tables;
    for (int l = 0; l < kNumIsaLevels; ++l)
        if (const KernelTable *t = kernelTableFor(static_cast<Isa>(l)))
            tables.push_back(t);
    return tables;
}

class IsaDispatchTest : public testutil::RuntimeFixture
{
};

TEST_F(IsaDispatchTest, SupportIsMonotoneAndTablesAreLabelled)
{
    ASSERT_TRUE(runtime::isaSupported(Isa::Scalar));
    bool above_unsupported = false;
    for (int l = 0; l < kNumIsaLevels; ++l) {
        const Isa isa = static_cast<Isa>(l);
        const bool sup = runtime::isaSupported(isa);
        // A level implies everything below it: once one level is
        // unsupported, every stronger one must be too.
        if (!sup)
            above_unsupported = true;
        EXPECT_FALSE(sup && above_unsupported)
            << "support not monotone at level " << runtime::isaName(isa);

        const KernelTable *t = kernelTableFor(isa);
        EXPECT_EQ(t != nullptr, sup) << runtime::isaName(isa);
        if (t) {
            EXPECT_EQ(t->level, isa);
            EXPECT_STREQ(t->name, runtime::isaName(isa));
        }
    }

    EXPECT_TRUE(runtime::isaSupported(runtime::bestSupportedIsa()));
    EXPECT_TRUE(runtime::isaSupported(runtime::activeIsa()));
    EXPECT_STREQ(runtime::isa(), runtime::isaName(runtime::activeIsa()));
    EXPECT_EQ(runtime::kernels().level, runtime::activeIsa());
    EXPECT_FALSE(runtime::cpuSignature().empty());

    // The execution identity perfbench's stamp embeds.
    const std::string report = runtime::tuningReport();
    EXPECT_EQ(report.front(), '{') << report;
    EXPECT_EQ(report.back(), '}') << report;
    EXPECT_NE(report.find("\"isa\": \"" + std::string(runtime::isa()) +
                          "\""),
              std::string::npos)
        << report;
    EXPECT_NE(report.find("\"cpu_signature\": \"" +
                          runtime::cpuSignature() + "\""),
              std::string::npos)
        << report;
}

TEST_F(IsaDispatchTest, GemmF32EveryVariantEveryTileMatchesReference)
{
    for (const auto &s : gemmShapeSweep(2026)) {
        Rng rng(101);
        const Tensor a = rng.normalTensor({s.m, s.k});
        const Tensor b = rng.normalTensor({s.k, s.n});
        const Tensor ref = ops::reference::matmul(a, b);
        for (const KernelTable *t : supportedTables()) {
            forEachThreadCount([&](std::size_t threads) {
                Tensor c = Tensor::zeros(s.m, s.n);
                // Odd grain so panels straddle the register tile.
                runtime::parallelFor(
                    0, s.m, 3, [&](std::size_t r0, std::size_t r1) {
                        t->gemm_f32(a.data(), b.data(), c.data(), r0, r1,
                                    s.k, s.n, nullptr);
                    });
                EXPECT_TRUE(bitwiseEqual(c, ref))
                    << t->name << " threads=" << threads << " shape "
                    << s.m << "x" << s.k << "x" << s.n;
            });
        }
    }
}

TEST_F(IsaDispatchTest, GemmInt8EveryVariantMatchesScalarTable)
{
    const KernelTable *scalar = kernelTableFor(Isa::Scalar);
    ASSERT_NE(scalar, nullptr);
    for (const auto &s : gemmShapeSweep(2027)) {
        Rng rng(102);
        const Tensor af = rng.normalTensor({s.m, s.k});
        const Tensor bf = rng.normalTensor({s.k, s.n});

        // Quantise operands once with the shared helpers; the tables
        // only differ in the int32 panel arithmetic under test.
        std::vector<std::int8_t> aq(s.m * s.k), bq(s.k * s.n);
        std::vector<float> a_scale(s.m), b_scale(s.n);
        for (std::size_t i = 0; i < s.m; ++i) {
            const float *row = af.data() + i * s.k;
            const float sc =
                runtime::int8Scale(scalar->max_abs_row(row, s.k));
            a_scale[i] = sc;
            scalar->quantize_i8_row(row, aq.data() + i * s.k, s.k,
                                    sc > 0.0f ? 1.0f / sc : 0.0f);
        }
        for (std::size_t j = 0; j < s.n; ++j) {
            float m = 0.0f;
            for (std::size_t i = 0; i < s.k; ++i) {
                const float v = bf.data()[i * s.n + j];
                m = std::max(m, v < 0.0f ? -v : v);
            }
            b_scale[j] = runtime::int8Scale(m);
            const float inv = b_scale[j] > 0.0f ? 1.0f / b_scale[j] : 0.0f;
            for (std::size_t i = 0; i < s.k; ++i)
                bq[i * s.n + j] = runtime::quantizeInt8(
                    bf.data()[i * s.n + j], inv);
        }
        std::vector<std::int16_t> bp(((s.k + 1) / 2) * s.n * 2);
        runtime::packInt8PairsB(bq.data(), bp.data(), s.k, s.n);

        Tensor ref = Tensor::zeros(s.m, s.n);
        scalar->gemm_i8(aq.data(), bp.data(), ref.data(), 0, s.m, s.k,
                        s.n, a_scale.data(), b_scale.data(), nullptr);

        for (const KernelTable *t : supportedTables()) {
            forEachThreadCount([&](std::size_t threads) {
                Tensor c = Tensor::zeros(s.m, s.n);
                runtime::parallelFor(
                    0, s.m, 3, [&](std::size_t r0, std::size_t r1) {
                        t->gemm_i8(aq.data(), bp.data(), c.data(), r0,
                                   r1, s.k, s.n, a_scale.data(),
                                   b_scale.data(), nullptr);
                    });
                EXPECT_TRUE(bitwiseEqual(c, ref))
                    << t->name << " threads=" << threads << " shape "
                    << s.m << "x" << s.k << "x" << s.n;
            });
        }
    }
}

TEST_F(IsaDispatchTest, RowKernelsEveryVariantMatchesScalarTable)
{
    const KernelTable *scalar = kernelTableFor(Isa::Scalar);
    ASSERT_NE(scalar, nullptr);
    // Lengths below/at/above the 8/16-lane vector widths plus tails.
    for (const std::size_t n : {1u, 7u, 8u, 15u, 16u, 17u, 63u, 200u}) {
        Rng rng(300 + static_cast<unsigned>(n));
        const Tensor xt = rng.normalTensor({n});
        const float *x = xt.data();

        const float m_ref = scalar->max_abs_row(x, n);
        const float inv = m_ref > 0.0f
                              ? 1.0f / runtime::int8Scale(m_ref)
                              : 0.0f;
        std::vector<float> percol_inv(n);
        for (std::size_t i = 0; i < n; ++i)
            percol_inv[i] = inv * (1.0f + 0.01f * static_cast<float>(i));

        std::vector<std::int8_t> q_ref(n), q(n);
        scalar->quantize_i8_row(x, q_ref.data(), n, inv);
        std::vector<std::int8_t> qp_ref(n), qp(n);
        scalar->quantize_i8_row_percol(x, qp_ref.data(), n,
                                       percol_inv.data());
        std::vector<float> h_ref(xt.data(), xt.data() + n);
        scalar->round_row_to_half(h_ref.data(), n);
        std::vector<std::uint16_t> bits_ref(n), bits(n);
        scalar->float_to_half_bits_row(x, bits_ref.data(), n);
        std::vector<float> wide_ref(n), wide(n);
        scalar->half_bits_to_float_row(bits_ref.data(), wide_ref.data(),
                                       n);

        for (const KernelTable *t : supportedTables()) {
            SCOPED_TRACE(std::string(t->name) + " n=" +
                         std::to_string(n));
            EXPECT_EQ(t->max_abs_row(x, n), m_ref);
            t->quantize_i8_row(x, q.data(), n, inv);
            EXPECT_EQ(q, q_ref);
            t->quantize_i8_row_percol(x, qp.data(), n,
                                      percol_inv.data());
            EXPECT_EQ(qp, qp_ref);
            std::vector<float> h(xt.data(), xt.data() + n);
            t->round_row_to_half(h.data(), n);
            EXPECT_EQ(std::memcmp(h.data(), h_ref.data(),
                                  n * sizeof(float)),
                      0);
            t->float_to_half_bits_row(x, bits.data(), n);
            EXPECT_EQ(bits, bits_ref);
            t->half_bits_to_float_row(bits_ref.data(), wide.data(), n);
            EXPECT_EQ(std::memcmp(wide.data(), wide_ref.data(),
                                  n * sizeof(float)),
                      0);
        }
    }
}

TEST_F(IsaDispatchTest, ButterflyStagesEveryVariantMatchesScalarTable)
{
    const KernelTable *scalar = kernelTableFor(Isa::Scalar);
    ASSERT_NE(scalar, nullptr);
    // The stage kernels run at the one block width (16 lanes), across
    // every stride of a 64-point butterfly.
    const std::size_t n = 64, block = n * kLanes;
    Rng rng(516);
    const Tensor wt = rng.normalTensor({(n / 2) * 4});
    const Tensor buf0 = rng.normalTensor({block});
    std::vector<std::int8_t> wq((n / 2) * 4);
    for (std::size_t i = 0; i < wq.size(); ++i)
        wq[i] = runtime::quantizeInt8(wt.data()[i], 40.0f);
    std::vector<std::int8_t> q0(block);
    for (std::size_t i = 0; i < block; ++i)
        q0[i] = runtime::quantizeInt8(buf0.data()[i], 40.0f);
    const std::vector<float> scale0(kLanes, 1.0f / 40.0f);

    for (std::size_t h = 1; h <= n / 2; h *= 2) {
        // fp32 and fp16 stages rewrite the block in place.
        std::vector<float> ref32(buf0.data(), buf0.data() + block);
        scalar->bfly_stage(ref32.data(), wt.data(), n, h);
        std::vector<float> ref16(buf0.data(), buf0.data() + block);
        scalar->qbfly_f16_stage(ref16.data(), wt.data(), n, h);
        // int8 stage + requant from a quantised block.
        std::vector<std::int16_t> y_ref(block, 0);
        std::vector<std::int8_t> q_ref = q0;
        std::vector<float> s_ref = scale0;
        scalar->qbfly_i8_stage(q_ref.data(), y_ref.data(), wq.data(), n,
                               h);
        scalar->qbfly_i8_requant(y_ref.data(), q_ref.data(),
                                 s_ref.data(), 0.025f, n);

        for (const KernelTable *t : supportedTables()) {
            SCOPED_TRACE(std::string(t->name) + " h=" +
                         std::to_string(h));
            std::vector<float> b32(buf0.data(), buf0.data() + block);
            t->bfly_stage(b32.data(), wt.data(), n, h);
            EXPECT_EQ(std::memcmp(b32.data(), ref32.data(),
                                  block * sizeof(float)),
                      0);
            std::vector<float> b16(buf0.data(), buf0.data() + block);
            t->qbfly_f16_stage(b16.data(), wt.data(), n, h);
            EXPECT_EQ(std::memcmp(b16.data(), ref16.data(),
                                  block * sizeof(float)),
                      0);

            std::vector<std::int16_t> y(block, 0);
            std::vector<std::int8_t> q = q0;
            std::vector<float> s = scale0;
            t->qbfly_i8_stage(q.data(), y.data(), wq.data(), n, h);
            EXPECT_EQ(y, y_ref);
            t->qbfly_i8_requant(y.data(), q.data(), s.data(), 0.025f, n);
            EXPECT_EQ(q, q_ref);
            EXPECT_EQ(std::memcmp(s.data(), s_ref.data(),
                                  kLanes * sizeof(float)),
                      0);
        }
    }
}

// The int8 stage at its int16 bound: every weight and code is +-127,
// so each output is +-127^2 +- 127^2 - up to |y| = 2*127^2 = 32258,
// the largest value the vector body's int16 lanes must hold exactly.
TEST_F(IsaDispatchTest, Int8StageAtTheInt16BoundMatchesScalarTable)
{
    const KernelTable *scalar = kernelTableFor(Isa::Scalar);
    ASSERT_NE(scalar, nullptr);
    const std::size_t n = 8, block = n * kLanes;
    const std::int8_t p = 127, m = -127;
    // Pair weights (w0, w1, w2, w3): same signs, mixed signs, negated.
    const std::int8_t patterns[][4] = {
        {p, p, m, m}, {p, m, m, p}, {m, p, p, m}, {m, m, p, p}};
    // Lane codes: all +127, all -127, and alternating signs.
    std::vector<std::int8_t> q0(block);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t r = 0; r < kLanes; ++r)
            q0[i * kLanes + r] = (r < 6) ? p : (r < 11) ? m
                                 : ((i + r) % 2 ? p : m);
    std::int32_t y_max = 0;
    for (const auto &pat : patterns) {
        std::vector<std::int8_t> w(n / 2 * 4);
        for (std::size_t k = 0; k < w.size(); ++k)
            w[k] = pat[k % 4];
        for (std::size_t h = 1; h <= n / 2; h *= 2) {
            std::vector<std::int16_t> y_ref(block, 0);
            scalar->qbfly_i8_stage(q0.data(), y_ref.data(), w.data(), n,
                                   h);
            for (const std::int32_t v : y_ref)
                y_max = std::max(y_max, v < 0 ? -v : v);
            for (const KernelTable *t : supportedTables()) {
                SCOPED_TRACE(std::string(t->name) + " h=" +
                             std::to_string(h));
                std::vector<std::int16_t> y(block, 0);
                t->qbfly_i8_stage(q0.data(), y.data(), w.data(), n, h);
                EXPECT_EQ(y, y_ref);
            }
        }
    }
    EXPECT_EQ(y_max, 2 * 127 * 127);
}

TEST_F(IsaDispatchTest, BlockTransposesEveryVariantMatchScalarTable)
{
    const KernelTable *scalar = kernelTableFor(Isa::Scalar);
    ASSERT_NE(scalar, nullptr);
    const std::size_t n = 48, stride = 53; // rows longer than the block
    const std::size_t block = n * kLanes;
    // Every buffer is exactly sized, so a sanitizer build catches a
    // kernel that reads or writes past its nb rows or its 16 lanes.
    for (const std::size_t nb : {1u, 5u, 16u}) {
        Rng rng(700 + static_cast<unsigned>(nb));
        const Tensor src = rng.normalTensor({nb * stride});

        std::vector<float> in_ref(block, -1.0f);
        scalar->bfly_transpose_in(src.data(), in_ref.data(), n, nb,
                                  stride);
        // Spot-check the layout contract against the definition.
        EXPECT_EQ(in_ref[0], src.data()[0]);
        EXPECT_EQ(in_ref[(n - 1) * kLanes + (nb - 1)],
                  src.data()[(nb - 1) * stride + (n - 1)]);

        std::vector<float> out_ref(nb * stride, 0.0f);
        scalar->bfly_transpose_out(in_ref.data(), out_ref.data(), n, nb,
                                   stride);
        for (std::size_t r = 0; r < nb; ++r)
            EXPECT_EQ(std::memcmp(out_ref.data() + r * stride,
                                  src.data() + r * stride,
                                  n * sizeof(float)),
                      0);

        std::vector<float> f16_ref(block, -1.0f);
        scalar->qbfly_f16_transpose_in(src.data(), f16_ref.data(), n,
                                       nb, stride);
        std::vector<std::int8_t> q_ref(block, -1);
        std::vector<float> s_ref(kLanes, -1.0f);
        scalar->qbfly_i8_quant_in(src.data(), q_ref.data(),
                                  s_ref.data(), n, nb, stride);
        std::vector<float> dq_ref(nb * stride, 0.0f);
        scalar->qbfly_i8_dequant_out(q_ref.data(), s_ref.data(),
                                     dq_ref.data(), n, nb, stride);

        for (const KernelTable *t : supportedTables()) {
            SCOPED_TRACE(std::string(t->name) + " nb=" +
                         std::to_string(nb));
            std::vector<float> buf(block, -1.0f);
            t->bfly_transpose_in(src.data(), buf.data(), n, nb, stride);
            EXPECT_EQ(std::memcmp(buf.data(), in_ref.data(),
                                  block * sizeof(float)),
                      0);
            std::vector<float> outb(nb * stride, 0.0f);
            t->bfly_transpose_out(in_ref.data(), outb.data(), n, nb,
                                  stride);
            EXPECT_EQ(std::memcmp(outb.data(), out_ref.data(),
                                  nb * stride * sizeof(float)),
                      0);
            std::vector<float> f16(block, -1.0f);
            t->qbfly_f16_transpose_in(src.data(), f16.data(), n, nb,
                                      stride);
            EXPECT_EQ(std::memcmp(f16.data(), f16_ref.data(),
                                  block * sizeof(float)),
                      0);
            std::vector<std::int8_t> q(block, -1);
            std::vector<float> s(kLanes, -1.0f);
            t->qbfly_i8_quant_in(src.data(), q.data(), s.data(), n, nb,
                                 stride);
            EXPECT_EQ(q, q_ref);
            EXPECT_EQ(std::memcmp(s.data(), s_ref.data(),
                                  kLanes * sizeof(float)),
                      0);
            std::vector<float> dq(nb * stride, 0.0f);
            t->qbfly_i8_dequant_out(q_ref.data(), s_ref.data(),
                                    dq.data(), n, nb, stride);
            EXPECT_EQ(std::memcmp(dq.data(), dq_ref.data(),
                                  nb * stride * sizeof(float)),
                      0);

            // Padding lanes nb..15 of every input kernel are exact
            // (+0.0) zeros, and quant-in gives them scale 0.
            for (std::size_t r = nb; r < kLanes; ++r) {
                EXPECT_EQ(std::memcmp(&s[r], &kZero, sizeof(float)), 0)
                    << "scale lane " << r;
                for (std::size_t i = 0; i < n; ++i) {
                    const std::size_t e = i * kLanes + r;
                    EXPECT_EQ(std::memcmp(&buf[e], &kZero, sizeof(float)),
                              0)
                        << "fp32 lane " << r << " i=" << i;
                    EXPECT_EQ(std::memcmp(&f16[e], &kZero, sizeof(float)),
                              0)
                        << "fp16 lane " << r << " i=" << i;
                    EXPECT_EQ(q[e], 0) << "int8 lane " << r << " i=" << i;
                }
            }
        }
    }
}

// An all-zero row must get scale 0 and exact zero codes on every
// variant (the int8StagesRow contract the quant_in kernel pins).
TEST_F(IsaDispatchTest, QuantInZeroRowContractHoldsOnEveryVariant)
{
    const std::size_t n = 24, nb = 3, stride = 24;
    std::vector<float> src(nb * stride, 0.0f);
    for (std::size_t i = 0; i < n; ++i)
        src[2 * stride + i] = 0.5f; // only row 2 is non-zero
    for (const KernelTable *t : supportedTables()) {
        SCOPED_TRACE(t->name);
        std::vector<std::int8_t> q(n * kLanes, -1);
        std::vector<float> s(kLanes, -1.0f);
        t->qbfly_i8_quant_in(src.data(), q.data(), s.data(), n, nb,
                             stride);
        EXPECT_EQ(s[0], 0.0f);
        EXPECT_EQ(s[1], 0.0f);
        EXPECT_GT(s[2], 0.0f);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(q[i * kLanes + 0], 0);
            EXPECT_EQ(q[i * kLanes + 1], 0);
            EXPECT_EQ(q[i * kLanes + 2], 127);
        }
    }
}

// ------------------------------------------------ transcendental rows

/** Row lengths around the 8/16-lane widths, plus full score rows. */
constexpr std::size_t kTransRowLens[] = {1,  7,  8,    15,   16,
                                         17, 33, 1024, 2047, 2048};

/** The inputs every transcendental row test splices in: signed zeros,
 *  infinities, NaN, the -1e30f max seed, and values on and just past
 *  both bounds of expPinned's range. */
std::vector<float>
transSpecials()
{
    const float inf = std::numeric_limits<float>::infinity();
    return {0.0f,
            -0.0f,
            inf,
            -inf,
            std::numeric_limits<float>::quiet_NaN(),
            -1e30f,
            runtime::kExpLo,
            std::nextafter(runtime::kExpLo, -inf),
            runtime::kExpHi,
            std::nextafter(runtime::kExpHi, inf)};
}

/** A row of @p n floats: N(0, spread^2) draws with the specials spliced
 *  in at spread-out positions when @p with_specials. */
std::vector<float>
transRow(std::size_t n, unsigned seed, float spread, bool with_specials)
{
    Rng rng(seed);
    const Tensor t = rng.normalTensor({n});
    std::vector<float> row(t.data(), t.data() + n);
    for (float &v : row)
        v *= spread;
    if (with_specials) {
        const std::vector<float> sp = transSpecials();
        for (std::size_t i = 0; i < sp.size() && i < n; ++i)
            row[(i * 7919) % n] = sp[i];
    }
    return row;
}

bool
sameBits(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST_F(IsaDispatchTest, GeluRowEveryVariantMatchesScalarTable)
{
    const KernelTable *scalar = kernelTableFor(Isa::Scalar);
    ASSERT_NE(scalar, nullptr);
    for (const std::size_t n : kTransRowLens) {
        for (const bool specials : {false, true}) {
            // Spread 4 reaches both exp saturation regions of GELU's
            // e^(-2u) (|v| >~ 10).
            const std::vector<float> x =
                transRow(n, 500 + static_cast<unsigned>(n), 4.0f, specials);
            std::vector<float> ref(n);
            scalar->gelu_row(x.data(), ref.data(), n);
            for (const KernelTable *t : supportedTables()) {
                SCOPED_TRACE(std::string(t->name) + " n=" +
                             std::to_string(n) +
                             (specials ? " specials" : ""));
                std::vector<float> y(n, -1.0f);
                t->gelu_row(x.data(), y.data(), n);
                EXPECT_TRUE(sameBits(y, ref));
                std::vector<float> inplace = x;
                t->gelu_row(inplace.data(), inplace.data(), n);
                EXPECT_TRUE(sameBits(inplace, ref));
            }
        }
    }
}

TEST_F(IsaDispatchTest, SoftmaxRowEveryVariantMatchesScalarTable)
{
    const KernelTable *scalar = kernelTableFor(Isa::Scalar);
    ASSERT_NE(scalar, nullptr);
    const auto check = [&](const std::vector<float> &row, float scale,
                           const std::string &what) {
        std::vector<float> ref = row;
        scalar->softmax_row(ref.data(), ref.size(), scale);
        for (const KernelTable *t : supportedTables()) {
            SCOPED_TRACE(std::string(t->name) + " " + what);
            std::vector<float> s = row;
            t->softmax_row(s.data(), s.size(), scale);
            EXPECT_TRUE(sameBits(s, ref));
        }
    };
    for (const std::size_t n : kTransRowLens) {
        const std::string len = " n=" + std::to_string(n);
        const unsigned seed = 600 + static_cast<unsigned>(n);
        check(transRow(n, seed, 3.0f, false), 0.125f, "random" + len);
        check(transRow(n, seed, 3.0f, true), 0.125f, "specials" + len);
        check(std::vector<float>(n, 0.75f), 0.125f, "all-equal" + len);
        check(std::vector<float>(n, -1e30f), 1.0f, "all -1e30" + len);
        // Max 0 at scale 1: the exp arguments are the entries
        // themselves, swept across and past expPinned's lower bound.
        std::vector<float> sweep(n);
        for (std::size_t j = 0; j < n; ++j)
            sweep[j] = -100.0f * static_cast<float>(j) /
                       static_cast<float>(n);
        check(sweep, 1.0f, "exp-argument sweep" + len);
    }
}

/** A float's position on the number line in representable steps
 *  (+0 and -0 share 0). */
std::int64_t
floatKey(float f)
{
    std::int32_t i;
    std::memcpy(&i, &f, sizeof(i));
    return i < 0 ? -static_cast<std::int64_t>(i & 0x7FFFFFFF)
                 : static_cast<std::int64_t>(i);
}

float
keyFloat(std::int64_t k)
{
    const std::uint32_t bits =
        k < 0 ? static_cast<std::uint32_t>(-k) | 0x80000000u
              : static_cast<std::uint32_t>(k);
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
}

/** Distance in representable floats (0 for equal values, including
 *  two infinities of one sign). */
std::int64_t
ulpDistance(float a, float b)
{
    return a == b ? 0 : std::llabs(floatKey(a) - floatKey(b));
}

/** Largest ulp distance of fn(x) from ref(x) rounded to float, over
 *  about @p points floats of [lo, hi] strided in representable steps
 *  (so every binade is sampled alike), both ends included. */
template <class Fn, class Ref>
std::int64_t
maxUlpSweep(float lo, float hi, std::int64_t points, const Fn &fn,
            const Ref &ref)
{
    const std::int64_t k0 = floatKey(lo), k1 = floatKey(hi);
    const std::int64_t stride = std::max<std::int64_t>(1, (k1 - k0) / points);
    std::vector<float> xs;
    for (std::int64_t k = k0; k < k1; k += stride)
        xs.push_back(keyFloat(k));
    xs.push_back(hi);
    const std::vector<float> ys = fn(xs);
    std::int64_t worst = 0;
    for (std::size_t i = 0; i < xs.size(); ++i)
        worst = std::max(worst,
                         ulpDistance(ys[i], static_cast<float>(ref(xs[i]))));
    return worst;
}

TEST_F(IsaDispatchTest, ExpPinnedAndGeluUlpBounds)
{
    const auto exp_pinned = [](const std::vector<float> &xs) {
        std::vector<float> ys(xs.size());
        for (std::size_t i = 0; i < xs.size(); ++i)
            ys[i] = runtime::expPinned(xs[i]);
        return ys;
    };
    const auto exp_ref = [](float x) {
        return std::exp(static_cast<long double>(x));
    };
    EXPECT_LE(maxUlpSweep(runtime::kExpLo, runtime::kExpHi, 1u << 20,
                          exp_pinned, exp_ref),
              1);

    // The shipped row kernel of the active table, against
    // v / (1 + e^(-2u)) in long double on the same float constants.
    const auto gelu_row = [](const std::vector<float> &xs) {
        std::vector<float> ys(xs.size());
        runtime::geluRow(xs.data(), ys.data(), xs.size());
        return ys;
    };
    const auto gelu_ref = [](float v) {
        const long double x = v;
        const long double u =
            static_cast<long double>(runtime::kGeluK) *
            (x + static_cast<long double>(0.044715f) * x * x * x);
        return x / (1.0L + std::exp(-2.0L * u));
    };
    EXPECT_LE(maxUlpSweep(-3.0f, 3.0f, 1u << 20, gelu_row, gelu_ref), 16);
    EXPECT_LE(maxUlpSweep(-6.0f, 6.0f, 1u << 20, gelu_row, gelu_ref), 64);
}

} // namespace
} // namespace fabnet
