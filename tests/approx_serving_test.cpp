/**
 * @file approx_serving_test.cpp
 * Approximate attention through the serving stack
 * (`ctest -L approx-accuracy` + `-L serve`): sparse-attention models
 * must carry every contract the reliability layer (PR 6/7) pins for
 * exact models, because the engines are oblivious to the mixer:
 *   - ServingEngine batched logits bitwise equal the serial reference
 *     at threads {1, 4, 8}, and run-to-run,
 *   - a poisoned row fails alone with ModelFault while batchmates'
 *     logits stay bitwise identical to the fault-free run - the
 *     per-request isolation retry re-runs top-k selection, so this is
 *     the determinism contract under re-execution,
 *   - GenerationEngine greedy tokens equal the solo full-recompute
 *     reference (approximate decode path vs approximate full path),
 *     and survive a sticky fault's K/V rollback + re-prefill bitwise.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <vector>

#include "model/builder.h"
#include "model/generator.h"
#include "serve/fault.h"
#include "serve/generation.h"
#include "serve/serving.h"
#include "test_util.h"

namespace fabnet {
namespace {

using nn::SparseAttentionConfig;
using nn::SparseKind;
using serve::Error;
using serve::ErrorCode;
using serve::FaultPlan;
using serve::GenerationConfig;
using serve::GenerationEngine;
using serve::GenerationStats;
using serve::ServingConfig;
using serve::ServingEngine;
using testutil::bitwiseEqual;
using testutil::forEachThreadCount;
using testutil::makeRequests;
using testutil::referenceGreedy;
using testutil::serveSerial;

/** Attention-mixer classifier config with the given sparse setting. */
ModelConfig
sparseCfg(SparseAttentionConfig sparse)
{
    ModelConfig cfg;
    cfg.kind = ModelKind::Transformer;
    cfg.vocab = 32;
    cfg.max_seq = 64;
    cfg.d_hid = 16;
    cfg.r_ffn = 2;
    cfg.n_total = 2;
    cfg.n_abfly = 2;
    cfg.heads = 2;
    cfg.classes = 4;
    cfg.attn_sparse = sparse;
    return cfg;
}

/** Causal generator config with the given sparse setting. */
ModelConfig
sparseGenCfg(SparseAttentionConfig sparse)
{
    ModelConfig cfg = sparseCfg(sparse);
    cfg.max_seq = 32;
    cfg.classes = 2;
    cfg.causal = true;
    return cfg;
}

/** The approximate kinds under test, k small enough to be active at
 *  these test lengths (mixedLens goes well past k). */
std::vector<SparseAttentionConfig>
approxKinds()
{
    return {{SparseKind::TopK, 6},
            {SparseKind::Butterfly, 0},
            {SparseKind::ButterflyTopK, 3}};
}

/** Expect @p fn to throw serve::Error with @p code. */
template <class F>
void
expectError(ErrorCode code, F &&fn, const char *what)
{
    try {
        fn();
        FAIL() << what << ": no error thrown";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), code) << what << ": " << e.what();
    } catch (const std::exception &e) {
        FAIL() << what << ": untyped exception: " << e.what();
    }
}

using ApproxServingTest = testutil::RuntimeFixture;

// ------------------------------------------------- ServingEngine

TEST_F(ApproxServingTest, BatchedServingMatchesSerialAcrossThreads)
{
    for (const auto &sparse : approxKinds()) {
        const ModelConfig cfg = sparseCfg(sparse);
        Rng rng(61);
        auto model = buildModel(cfg, rng);
        const auto reqs =
            makeRequests(testutil::mixedLens(), cfg.vocab, 13);
        const auto want = serveSerial(*model, reqs);

        forEachThreadCount([&](std::size_t threads) {
            ServingEngine engine(*model);
            EXPECT_TRUE(bitwiseEqual(engine.serveAll(reqs), want))
                << sparse.describe() << " threads=" << threads;
            // Run-to-run on a warm engine: selection must not depend
            // on engine state or batch history.
            EXPECT_TRUE(bitwiseEqual(engine.serveAll(reqs), want))
                << sparse.describe() << " threads=" << threads
                << " (second run)";
        });
    }
}

TEST_F(ApproxServingTest, PoisonedRowFailsAloneSurvivorsBitwise)
{
    // The per-request isolation retry re-serves each batchmate of the
    // faulted row as a 1-row batch: top-k selection runs again on a
    // different batch composition and must reproduce the same bits.
    for (const auto &sparse : approxKinds()) {
        const ModelConfig cfg = sparseCfg(sparse);
        Rng rng(67);
        auto model = buildModel(cfg, rng);
        const auto reqs =
            makeRequests(testutil::mixedLens(), cfg.vocab, 23);
        const auto want = serveSerial(*model, reqs);
        const std::size_t poisoned = 3; // rides in a shared bucket

        forEachThreadCount([&](std::size_t threads) {
            FaultPlan plan;
            plan.request_faults[poisoned] = FaultPlan::Stage::Model;
            ServingConfig sc;
            sc.max_batch = 8;
            sc.bucket_granularity = 16;
            sc.max_wait = std::chrono::seconds(5);
            sc.fault_plan = &plan;
            ServingEngine engine(*model, sc);

            std::vector<std::future<std::vector<float>>> futs;
            for (const auto &r : reqs)
                futs.push_back(engine.submit(r));
            engine.flush();

            for (std::size_t i = 0; i < futs.size(); ++i) {
                if (i == poisoned) {
                    expectError(ErrorCode::ModelFault,
                                [&] { futs[i].get(); },
                                "poisoned row");
                    continue;
                }
                const std::vector<float> got = futs[i].get();
                EXPECT_EQ(got, want[i])
                    << sparse.describe() << " request " << i
                    << " threads=" << threads;
            }
            const auto st = engine.stats();
            EXPECT_EQ(st.model_faults, 1u) << sparse.describe();
            EXPECT_EQ(st.failed, 1u) << sparse.describe();
            EXPECT_EQ(st.completed, reqs.size() - 1)
                << sparse.describe();
            EXPECT_EQ(st.isolation_retries, 1u) << sparse.describe();
        });
    }
}

// ------------------------------------------------- GenerationEngine

TEST_F(ApproxServingTest, GenerationMatchesGreedyReference)
{
    for (const auto &sparse : approxKinds()) {
        Rng rng(71);
        auto gen = buildGenerator(sparseGenCfg(sparse), rng);
        const auto prompts =
            makeRequests({5, 1, 12, 7, 3}, gen->vocab(), 31);
        const std::size_t kMaxNew = 6;

        std::vector<std::vector<int>> want;
        for (const auto &p : prompts)
            want.push_back(referenceGreedy(*gen, p, kMaxNew));

        forEachThreadCount([&](std::size_t threads) {
            GenerationConfig cfg;
            cfg.max_live = 3;
            GenerationEngine eng(*gen, cfg);
            std::vector<std::future<std::vector<int>>> futs;
            for (const auto &p : prompts)
                futs.push_back(eng.submit(p, kMaxNew));
            for (std::size_t i = 0; i < futs.size(); ++i)
                EXPECT_EQ(futs[i].get(), want[i])
                    << sparse.describe() << " prompt " << i
                    << " threads=" << threads;
        });
    }
}

TEST_F(ApproxServingTest, FaultPoisonsOnlyItsOwnSequence)
{
    // Sticky Model fault on sequence #1: the isolation retry fails it
    // alone; the survivors' K/V caches are rolled back, re-prefilled
    // through the APPROXIMATE prefill path, and must still produce
    // the reference bits token for token.
    for (const auto &sparse : approxKinds()) {
        Rng rng(73);
        auto gen = buildGenerator(sparseGenCfg(sparse), rng);
        const auto prompts =
            makeRequests({5, 7, 3}, gen->vocab(), 37);
        const std::size_t kMaxNew = 4;
        std::vector<std::vector<int>> want;
        for (const auto &p : prompts)
            want.push_back(referenceGreedy(*gen, p, kMaxNew));

        FaultPlan plan;
        plan.request_faults[1] = FaultPlan::Stage::Model;
        GenerationConfig cfg;
        cfg.max_live = 3;
        cfg.fault_plan = &plan;
        GenerationEngine eng(*gen, cfg);
        std::vector<std::future<std::vector<int>>> futs;
        for (const auto &p : prompts)
            futs.push_back(eng.submit(p, kMaxNew));
        EXPECT_EQ(futs[0].get(), want[0]) << sparse.describe();
        expectError(ErrorCode::ModelFault, [&] { (void)futs[1].get(); },
                    "poisoned sequence");
        EXPECT_EQ(futs[2].get(), want[2]) << sparse.describe();
        const GenerationStats st = eng.stats();
        EXPECT_EQ(st.model_faults, 1u) << sparse.describe();
        EXPECT_GE(st.isolation_retries, 1u) << sparse.describe();
        EXPECT_EQ(st.completed, 2u) << sparse.describe();
    }
}

} // namespace
} // namespace fabnet
