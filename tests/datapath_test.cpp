/**
 * @file datapath_test.cpp
 * Functional hardware model: the adaptable BU datapath, the
 * bank-conflict-free S2P layout (the paper's Fig. 9/10 property,
 * verified as a parameterised sweep), the index coalescer, and the
 * Appendix-C style cross-validation of the functional engine against
 * the software reference.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "butterfly/butterfly.h"
#include "butterfly/fft.h"
#include "sim/datapath.h"
#include "tensor/rng.h"

namespace fabnet {
namespace sim {
namespace {

TEST(ButterflyUnit, BflyModeComputesTwiddleMultiply)
{
    AdaptableButterflyUnit bu;
    const auto r = bu.executeBfly(Half(2.0f), Half(3.0f), Half(0.5f),
                                  Half(1.0f), Half(-1.0f), Half(0.25f));
    // out1 = 0.5*2 + 1*3 = 4 ; out2 = -1*2 + 0.25*3 = -1.25.
    EXPECT_FLOAT_EQ(r.out1.toFloat(), 4.0f);
    EXPECT_FLOAT_EQ(r.out2.toFloat(), -1.25f);
}

TEST(ButterflyUnit, FftModeComputesComplexButterfly)
{
    AdaptableButterflyUnit bu;
    // in1 = 1+2i, in2 = 3-1i, w = -i : v = w*in2 = -1-3i ;
    // out1 = in1 + v = 0-1i ; out2 = in1 - v = 2+5i.
    const auto r =
        bu.executeFft(Half(1.0f), Half(2.0f), Half(3.0f), Half(-1.0f),
                      Half(0.0f), Half(-1.0f));
    EXPECT_FLOAT_EQ(r.out1_r.toFloat(), 0.0f);
    EXPECT_FLOAT_EQ(r.out1_i.toFloat(), -1.0f);
    EXPECT_FLOAT_EQ(r.out2_r.toFloat(), 2.0f);
    EXPECT_FLOAT_EQ(r.out2_i.toFloat(), 5.0f);
}

TEST(ButterflyUnit, FftModeMatchesComplexArithmetic)
{
    AdaptableButterflyUnit bu;
    Rng rng(3);
    for (int i = 0; i < 50; ++i) {
        const Complex in1(rng.normal(), rng.normal());
        const Complex in2(rng.normal(), rng.normal());
        const Complex w(rng.normal(), rng.normal());
        const auto r = bu.executeFft(
            Half(in1.real()), Half(in1.imag()), Half(in2.real()),
            Half(in2.imag()), Half(w.real()), Half(w.imag()));
        const Complex v = w * in2;
        EXPECT_NEAR(r.out1_r.toFloat(), (in1 + v).real(), 2e-2f);
        EXPECT_NEAR(r.out1_i.toFloat(), (in1 + v).imag(), 2e-2f);
        EXPECT_NEAR(r.out2_r.toFloat(), (in1 - v).real(), 2e-2f);
        EXPECT_NEAR(r.out2_i.toFloat(), (in1 - v).imag(), 2e-2f);
    }
}

TEST(MemoryLayout, StartingPositionsFollowRecursion)
{
    // P_0 = 0 and P_{2^(n-1)+k} = P_k - 1 (a shift down by one row)
    // -> P_col = popcount(col).
    ButterflyMemoryLayout layout(64, 4);
    EXPECT_EQ(layout.startingPosition(0), 0u);
    EXPECT_EQ(layout.startingPosition(1), 1u);
    EXPECT_EQ(layout.startingPosition(2), 1u);
    EXPECT_EQ(layout.startingPosition(3), 2u);
    EXPECT_EQ(layout.startingPosition(7), 3u);
    EXPECT_EQ(layout.startingPosition(8), 1u);
}

TEST(MemoryLayout, Figure10StorageReproduced)
{
    // The 16-input example of Fig. 10a with 4 banks: column 1 holds
    // x4..x7 shifted down one row, column 3 holds x12..x15 shifted
    // down two rows.
    ButterflyMemoryLayout layout(16, 4);
    EXPECT_EQ(layout.bankOf(0), 0u);
    EXPECT_EQ(layout.bankOf(4), 1u);  // shifted by P_1 = 1
    EXPECT_EQ(layout.bankOf(7), 0u);  // wraps
    EXPECT_EQ(layout.bankOf(8), 1u);  // P_2 = 1
    EXPECT_EQ(layout.bankOf(12), 2u); // P_3 = 2
    EXPECT_EQ(layout.bankOf(15), 1u);
    // Addresses are simply the column index.
    EXPECT_EQ(layout.addressOf(5), 1u);
    EXPECT_EQ(layout.addressOf(12), 3u);
}

TEST(MemoryLayout, EveryPairSpansTwoBanks)
{
    ButterflyMemoryLayout layout(64, 8);
    for (std::size_t s = 0; s < 6; ++s) {
        for (std::size_t p = 0; p < 32; ++p) {
            std::size_t i1, i2;
            ButterflyMatrix::pairIndices(s, p, i1, i2);
            EXPECT_NE(layout.bankOf(i1), layout.bankOf(i2))
                << "stage " << s << " pair " << p;
        }
    }
}

/**
 * The paper's central memory claim: with the S2P layout, every
 * butterfly stage is readable at full bandwidth with zero bank
 * conflicts. Swept across sizes and bank counts.
 */
class ConflictFreeTest
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>>
{
};

TEST_P(ConflictFreeTest, AllStagesScheduleAtFullBandwidth)
{
    const auto [n, banks] = GetParam();
    ButterflyMemoryLayout layout(n, banks);
    for (std::size_t s = 0; (std::size_t{1} << s) < n; ++s) {
        std::vector<std::vector<std::size_t>> schedule;
        ASSERT_NO_THROW(schedule = layout.scheduleStage(s))
            << "n=" << n << " banks=" << banks << " stage=" << s;
        EXPECT_EQ(schedule.size(), n / banks);
        // Each cycle touches each bank at most once and covers all
        // indices exactly once across the stage.
        std::set<std::size_t> seen;
        for (const auto &cycle : schedule) {
            EXPECT_EQ(cycle.size(), banks);
            std::set<std::size_t> banks_used;
            for (std::size_t idx : cycle) {
                EXPECT_TRUE(banks_used.insert(layout.bankOf(idx)).second)
                    << "bank conflict at stage " << s;
                EXPECT_TRUE(seen.insert(idx).second);
            }
        }
        EXPECT_EQ(seen.size(), n);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConflictFreeTest,
    ::testing::Values(std::make_pair(8, 2), std::make_pair(16, 4),
                      std::make_pair(32, 4), std::make_pair(64, 8),
                      std::make_pair(128, 8), std::make_pair(256, 16),
                      std::make_pair(1024, 8),
                      std::make_pair(1024, 32)));

TEST(MemoryLayout, NaiveLayoutsDoConflict)
{
    // Control experiment (Fig. 8): the column-major layout
    // bank(x) = x mod B conflicts for stride >= B.
    const std::size_t n = 16, banks = 4;
    auto naive_bank = [&](std::size_t x) { return x % banks; };
    bool conflict = false;
    for (std::size_t s = 0; (std::size_t{1} << s) < n && !conflict;
         ++s) {
        for (std::size_t p = 0; p < n / 2; ++p) {
            std::size_t i1, i2;
            ButterflyMatrix::pairIndices(s, p, i1, i2);
            if (naive_bank(i1) == naive_bank(i2))
                conflict = true;
        }
    }
    EXPECT_TRUE(conflict);
}

TEST(IndexCoalescer, PairsArbitraryLaneOrder)
{
    std::vector<IndexCoalescer::Lane> lanes = {
        {Half(1.0f), 11}, {Half(2.0f), 1}, {Half(3.0f), 9},
        {Half(4.0f), 3}};
    auto paired = IndexCoalescer::coalesce(lanes, 8);
    ASSERT_EQ(paired.size(), 4u);
    EXPECT_EQ(paired[0].index, 1u);
    EXPECT_EQ(paired[1].index, 9u);
    EXPECT_EQ(paired[2].index, 3u);
    EXPECT_EQ(paired[3].index, 11u);
}

TEST(IndexCoalescer, ThrowsOnUnpairable)
{
    std::vector<IndexCoalescer::Lane> lanes = {{Half(1.0f), 0},
                                               {Half(2.0f), 3}};
    EXPECT_THROW(IndexCoalescer::coalesce(lanes, 8),
                 std::runtime_error);
}

TEST(FunctionalEngine, ButterflyLinearMatchesSoftwareReference)
{
    // Appendix C: functional hardware vs the "PyTorch" reference.
    for (std::size_t n : {8u, 32u, 128u}) {
        ButterflyMatrix m(n);
        Rng rng(n);
        m.initRandomRotation(rng);
        std::vector<float> x(n);
        for (auto &v : x)
            v = rng.normal();

        std::vector<float> ref(n);
        m.applyRows(x.data(), ref.data(), 1);

        FunctionalButterflyEngine engine(4);
        FunctionalButterflyEngine::RunStats stats;
        auto hw = engine.runButterflyLinear(m, x, &stats);

        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(hw[i], ref[i],
                        2e-2f * std::max(1.0f, std::fabs(ref[i])))
                << "n=" << n << " i=" << i;
        EXPECT_EQ(stats.butterfly_ops,
                  (n / 2) * log2Exact(n));
    }
}

TEST(FunctionalEngine, FftMatchesSoftwareReference)
{
    for (std::size_t n : {8u, 64u, 256u}) {
        Rng rng(n + 1);
        std::vector<Complex> x(n);
        for (auto &c : x)
            c = Complex(rng.normal(), rng.normal());

        auto ref = x;
        fftInPlace(ref);

        FunctionalButterflyEngine engine(4);
        auto hw = engine.runFft(x);
        float max_err = 0.0f;
        float max_mag = 0.0f;
        for (std::size_t i = 0; i < n; ++i) {
            max_err = std::max(max_err, std::abs(hw[i] - ref[i]));
            max_mag = std::max(max_mag, std::abs(ref[i]));
        }
        // fp16 accumulates error over log2(n) stages.
        EXPECT_LT(max_err, 0.02f * max_mag) << "n=" << n;
    }
}

TEST(FunctionalEngine, CycleCountMatchesAnalyticFormula)
{
    // The performance model's per-row formula must equal the cycles
    // the functional engine actually consumes.
    for (std::size_t pbu : {1u, 2u, 4u, 8u}) {
        FunctionalButterflyEngine engine(pbu);
        for (std::size_t n : {16u, 64u, 256u}) {
            ButterflyMatrix m(n);
            std::vector<float> x(n, 1.0f);
            FunctionalButterflyEngine::RunStats stats;
            engine.runButterflyLinear(m, x, &stats);
            EXPECT_EQ(stats.cycles, engine.analyticCycles(n))
                << "pbu=" << pbu << " n=" << n;
        }
    }
}

TEST(FunctionalEngine, UnifiedEngineSharedAcrossModes)
{
    // The same engine instance executes both an FFT and a butterfly
    // linear op - the "adaptable" property.
    FunctionalButterflyEngine engine(4);
    ButterflyMatrix m(16);
    Rng rng(5);
    m.initRandomRotation(rng);
    std::vector<float> x(16, 0.5f);
    EXPECT_NO_THROW(engine.runButterflyLinear(m, x));
    std::vector<Complex> xc(16, Complex(0.5f, 0.0f));
    EXPECT_NO_THROW(engine.runFft(xc));
}

} // namespace
} // namespace sim
} // namespace fabnet
