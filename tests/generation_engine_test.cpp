/**
 * @file generation_engine_test.cpp
 * The continuous-batching generation engine's contract
 * (serve/generation.h): futures and streaming callbacks deliver the
 * same greedy tokens a solo full-recompute run produces, regardless of
 * admission interleaving; deadlines are enforced at per-token
 * granularity (at submit, in queue, and between decode steps); bounded
 * admission rejects/sheds; a fault poisons only its own sequence (K/V
 * rollback isolation); the watchdog cancels a stuck step; shutdown
 * drains gracefully and strands nothing at a deadline.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "model/generator.h"
#include "runtime/isa.h"
#include "serve/generation.h"
#include "test_util.h"

namespace fabnet {
namespace {

using serve::Deadline;
using serve::deadlineAfter;
using serve::Error;
using serve::ErrorCode;
using serve::FaultPlan;
using serve::GenerationConfig;
using serve::GenerationEngine;
using serve::GenerationStats;
using serve::kNoDeadline;
using serve::ShedPolicy;
using testutil::forEachThreadCount;
using testutil::referenceGreedy;

ModelConfig
genCfg()
{
    ModelConfig cfg;
    cfg.kind = ModelKind::FABNet;
    cfg.vocab = 32;
    cfg.max_seq = 32;
    cfg.d_hid = 16;
    cfg.r_ffn = 2;
    cfg.n_total = 2;
    cfg.n_abfly = 2;
    cfg.heads = 2;
    cfg.classes = 2;
    cfg.causal = true;
    return cfg;
}

using GenerationEngineTest = testutil::RuntimeFixture;

TEST_F(GenerationEngineTest, FuturesMatchFullRecomputeReference)
{
    Rng rng(41);
    auto gen = buildGenerator(genCfg(), rng);
    const auto prompts =
        testutil::makeRequests({5, 1, 12, 7, 3}, gen->vocab(), 51);
    const std::size_t kMaxNew = 6;

    std::vector<std::vector<int>> want;
    for (const auto &p : prompts)
        want.push_back(referenceGreedy(*gen, p, kMaxNew));

    forEachThreadCount([&](std::size_t threads) {
        GenerationConfig cfg;
        cfg.max_live = 3; // force queuing + step-boundary admission
        GenerationEngine eng(*gen, cfg);
        std::vector<std::future<std::vector<int>>> futs;
        for (const auto &p : prompts)
            futs.push_back(eng.submit(p, kMaxNew));
        for (std::size_t i = 0; i < futs.size(); ++i)
            EXPECT_EQ(futs[i].get(), want[i])
                << "request " << i << " threads=" << threads;
        const GenerationStats st = eng.stats();
        EXPECT_EQ(st.requests, prompts.size());
        EXPECT_EQ(st.completed, prompts.size());
        EXPECT_EQ(st.failed, 0u);
        EXPECT_EQ(st.decode_tokens, prompts.size() * kMaxNew);
        EXPECT_LE(st.peak_live, cfg.max_live);
        EXPECT_GT(st.steps, 0u);
    });
}

TEST_F(GenerationEngineTest, CallbackStreamsTokensBeforeFuture)
{
    Rng rng(42);
    auto gen = buildGenerator(genCfg(), rng);
    const auto prompts = testutil::makeRequests({4}, gen->vocab(), 52);
    const std::vector<int> want = referenceGreedy(*gen, prompts[0], 5);

    GenerationEngine eng(*gen);
    std::vector<int> streamed;
    auto fut = eng.submit(prompts[0], 5, kNoDeadline,
                          [&](int tok) { streamed.push_back(tok); });
    const std::vector<int> got = fut.get();
    EXPECT_EQ(got, want);
    // The callback ran on the scheduler thread strictly before the
    // future resolved, so no synchronisation is needed to read it now.
    EXPECT_EQ(streamed, want);
}

TEST_F(GenerationEngineTest, EosStopsEarlyAndIsIncluded)
{
    Rng rng(43);
    auto gen = buildGenerator(genCfg(), rng);
    const auto prompts = testutil::makeRequests({6}, gen->vocab(), 53);
    // Pick the first greedily generated token as the EOS id: the run
    // must stop right there with exactly that one token.
    const std::vector<int> ref = referenceGreedy(*gen, prompts[0], 1);
    GenerationConfig cfg;
    cfg.eos_token = ref[0];
    GenerationEngine eng(*gen, cfg);
    EXPECT_EQ(eng.submit(prompts[0], 100).get(), ref);
}

TEST_F(GenerationEngineTest, SubmitValidatesUpFront)
{
    Rng rng(44);
    auto gen = buildGenerator(genCfg(), rng);
    GenerationEngine eng(*gen);
    EXPECT_THROW((void)eng.submit({}, 4), Error);
    EXPECT_THROW(
        (void)eng.submit(std::vector<int>(gen->maxSeq() + 1, 1), 4),
        Error);
    EXPECT_THROW((void)eng.submit({1, 2}, 0), Error);
    // Expired-at-submit deadline throws synchronously and is counted.
    try {
        (void)eng.submit({1, 2}, 4,
                         deadlineAfter(std::chrono::microseconds(-1)));
        FAIL() << "expected DeadlineExceeded";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::DeadlineExceeded);
    }
    const GenerationStats st = eng.stats();
    EXPECT_EQ(st.requests, 0u);
    EXPECT_EQ(st.expired_in_queue, 1u);
}

TEST_F(GenerationEngineTest, PromptAtPositionalCapacityRejectedAtSubmit)
{
    // A prompt that already fills every position (== max_seq) leaves no
    // slot for a generated token. It must fail typed [InvalidRequest]
    // synchronously at submit - not get admitted and then surface as a
    // [ModelFault] when prefill runs off the positional table.
    Rng rng(47);
    auto gen = buildGenerator(genCfg(), rng);
    GenerationEngine eng(*gen);
    for (const std::size_t len : {gen->maxSeq(), gen->maxSeq() + 1}) {
        try {
            (void)eng.submit(std::vector<int>(len, 1), 4);
            FAIL() << "expected InvalidRequest for prompt length " << len;
        } catch (const Error &e) {
            EXPECT_EQ(e.code(), ErrorCode::InvalidRequest)
                << "prompt length " << len;
        }
    }
    // The longest admissible prompt (max_seq - 1) still works end to
    // end and can generate at least one token.
    const std::vector<int> prompt(gen->maxSeq() - 1, 1);
    const std::vector<int> ref = referenceGreedy(*gen, prompt, 4);
    EXPECT_EQ(eng.submit(prompt, 4).get(), ref);
    const GenerationStats st = eng.stats();
    EXPECT_EQ(st.requests, 1u);
    EXPECT_EQ(st.completed, 1u);
    EXPECT_EQ(st.model_faults, 0u);
}

TEST_F(GenerationEngineTest, BoundedAdmissionRejectsAndSheds)
{
    Rng rng(45);
    auto gen = buildGenerator(genCfg(), rng);
    // Stall batch 0 (the first prefill) so the queue backs up
    // deterministically behind it; the watchdog unsticks it later.
    FaultPlan plan;
    plan.batch_stalls.insert(0);
    GenerationConfig cfg;
    cfg.max_live = 1;
    cfg.max_queue_requests = 2;
    cfg.watchdog_timeout = std::chrono::milliseconds(300);
    cfg.fault_plan = &plan;
    GenerationEngine eng(*gen, cfg);

    auto f0 = eng.submit({1, 2, 3}, 2); // admitted, stalls in prefill
    // Wait until the scheduler actually claimed it (queue empty).
    for (int i = 0; i < 2000 && eng.stats().prefill_batches == 0; ++i)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    auto f1 = eng.submit({4, 5}, 2);
    auto f2 = eng.submit({6}, 2);
    EXPECT_THROW((void)eng.submit({7}, 2), Error); // queue full
    EXPECT_EQ(eng.stats().rejected, 1u);

    // The stalled prefill is watchdog-cancelled and fails; the queued
    // requests then decode normally.
    EXPECT_THROW((void)f0.get(), Error);
    EXPECT_EQ(f1.get().size(), 2u);
    EXPECT_EQ(f2.get().size(), 2u);
    const GenerationStats st = eng.stats();
    EXPECT_EQ(st.watchdog_fired, 1u);
    EXPECT_EQ(st.completed, 2u);
    EXPECT_EQ(st.failed, 1u);
}

TEST_F(GenerationEngineTest, WatchdogFireCountedBeforeFutureFails)
{
    // Counters are published before futures become ready: a client
    // waking from the failed get() already sees the fire counted.
    Rng rng(54);
    auto gen = buildGenerator(genCfg(), rng);
    constexpr std::size_t kRounds = 20;
    FaultPlan plan;
    for (std::size_t i = 0; i < kRounds; ++i)
        plan.batch_stalls.insert(i); // round i's prefill is invocation i
    GenerationConfig cfg;
    cfg.watchdog_timeout = std::chrono::milliseconds(2);
    cfg.fault_plan = &plan;
    GenerationEngine eng(*gen, cfg);
    for (std::size_t i = 0; i < kRounds; ++i) {
        auto f = eng.submit({1, 2, 3}, 2);
        // The code is checked through model_faults: under TSan, reading
        // the caught error here would race with the engine thread
        // dropping the last reference inside the uninstrumented C++
        // runtime.
        EXPECT_THROW((void)f.get(), Error);
        const GenerationStats st = eng.stats();
        EXPECT_EQ(st.watchdog_fired, i + 1) << "round " << i;
        EXPECT_EQ(st.model_faults, i + 1) << "round " << i;
    }
}

TEST_F(GenerationEngineTest, DropExpiredFirstShedsQueuedExpired)
{
    Rng rng(46);
    auto gen = buildGenerator(genCfg(), rng);
    FaultPlan plan;
    plan.batch_stalls.insert(0);
    GenerationConfig cfg;
    cfg.max_live = 1;
    cfg.max_queue_requests = 1;
    cfg.shed_policy = ShedPolicy::DropExpiredFirst;
    cfg.watchdog_timeout = std::chrono::milliseconds(300);
    cfg.fault_plan = &plan;
    GenerationEngine eng(*gen, cfg);

    auto f0 = eng.submit({1, 2}, 2); // stalls in prefill
    for (int i = 0; i < 2000 && eng.stats().prefill_batches == 0; ++i)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    // Queued with an already-tight deadline...
    auto f1 = eng.submit({3, 4}, 2,
                         deadlineAfter(std::chrono::milliseconds(1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    // ...so the next submit sheds it instead of rejecting.
    auto f2 = eng.submit({5, 6}, 2);
    EXPECT_THROW((void)f1.get(), Error);
    EXPECT_EQ(f2.get().size(), 2u);
    const GenerationStats st = eng.stats();
    EXPECT_EQ(st.shed, 1u);
    EXPECT_EQ(st.rejected, 0u);
}

TEST_F(GenerationEngineTest, DeadlineEvictsMidDecode)
{
    Rng rng(47);
    auto gen = buildGenerator(genCfg(), rng);
    // Delay decode step 2 (invocation index 1 is step 1: invocation 0
    // is the prefill) past the request's deadline: the sequence must
    // be evicted at the NEXT step boundary, not run to completion.
    FaultPlan plan;
    plan.batch_delays[1] = std::chrono::milliseconds(400);
    GenerationConfig cfg;
    cfg.fault_plan = &plan;
    GenerationEngine eng(*gen, cfg);
    auto fut = eng.submit({1, 2, 3}, 20,
                          deadlineAfter(std::chrono::milliseconds(150)));
    try {
        (void)fut.get();
        FAIL() << "expected DeadlineExceeded";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::DeadlineExceeded);
    }
    const GenerationStats st = eng.stats();
    EXPECT_EQ(st.expired_mid_decode, 1u);
    EXPECT_LT(st.decode_tokens, 20u);
}

TEST_F(GenerationEngineTest, SequenceFinishedPastDeadlineIsNotFulfilled)
{
    Rng rng(49);
    auto gen = buildGenerator(genCfg(), rng);
    // The prefill yields token 1 well inside the deadline; the decode
    // step that yields the last token (invocation 1) ends 200 ms in,
    // past the 50 ms deadline. Its result is discarded, as
    // ServingEngine discards a batch result computed past a deadline.
    FaultPlan plan;
    plan.batch_delays[1] = std::chrono::milliseconds(200);
    GenerationConfig cfg;
    cfg.fault_plan = &plan;
    GenerationEngine eng(*gen, cfg);
    auto fut = eng.submit({1, 2, 3}, 2,
                          deadlineAfter(std::chrono::milliseconds(50)));
    try {
        (void)fut.get();
        FAIL() << "expected DeadlineExceeded";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::DeadlineExceeded);
    }
    const GenerationStats st = eng.stats();
    EXPECT_EQ(st.expired_mid_decode, 1u);
    EXPECT_EQ(st.completed, 0u);
    EXPECT_EQ(st.decode_tokens, 2u);
}

TEST_F(GenerationEngineTest, FaultPoisonsOnlyItsOwnSequence)
{
    Rng rng(48);
    auto gen = buildGenerator(genCfg(), rng);
    const auto prompts =
        testutil::makeRequests({5, 7, 3}, gen->vocab(), 58);
    const std::size_t kMaxNew = 4;
    std::vector<std::vector<int>> want;
    for (const auto &p : prompts)
        want.push_back(referenceGreedy(*gen, p, kMaxNew));

    // Request #1 carries a sticky Model fault: the joint prefill
    // throws, the per-sequence isolation retry fails #1 alone, and
    // the survivors' K/V state (rolled back and re-prefilled) must
    // still produce the reference bits.
    FaultPlan plan;
    plan.request_faults[1] = FaultPlan::Stage::Model;
    GenerationConfig cfg;
    cfg.max_live = 3;
    cfg.fault_plan = &plan;
    GenerationEngine eng(*gen, cfg);
    std::vector<std::future<std::vector<int>>> futs;
    for (const auto &p : prompts)
        futs.push_back(eng.submit(p, kMaxNew));
    EXPECT_EQ(futs[0].get(), want[0]);
    try {
        (void)futs[1].get();
        FAIL() << "expected ModelFault";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::ModelFault);
    }
    EXPECT_EQ(futs[2].get(), want[2]);
    const GenerationStats st = eng.stats();
    EXPECT_EQ(st.model_faults, 1u);
    EXPECT_GE(st.isolation_retries, 1u);
    EXPECT_EQ(st.completed, 2u);
}

TEST_F(GenerationEngineTest, ThrowingCallbackFailsOnlyItsRequest)
{
    Rng rng(49);
    auto gen = buildGenerator(genCfg(), rng);
    const auto prompts = testutil::makeRequests({4, 6}, gen->vocab(), 59);
    const std::vector<int> want1 = referenceGreedy(*gen, prompts[1], 3);
    GenerationEngine eng(*gen);
    auto f0 = eng.submit(prompts[0], 3, kNoDeadline,
                         [](int) { throw std::runtime_error("boom"); });
    auto f1 = eng.submit(prompts[1], 3);
    try {
        (void)f0.get();
        FAIL() << "expected InvalidRequest";
    } catch (const Error &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidRequest);
    }
    EXPECT_EQ(f1.get(), want1);
}

TEST_F(GenerationEngineTest, FlushWaitsForPriorSubmissionsOnly)
{
    Rng rng(50);
    auto gen = buildGenerator(genCfg(), rng);
    GenerationEngine eng(*gen);
    auto f0 = eng.submit({1, 2, 3}, 3);
    auto f1 = eng.submit({4, 5}, 3);
    eng.flush();
    // Both resolved: get() must not block.
    EXPECT_EQ(f0.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(f1.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
}

TEST_F(GenerationEngineTest, ShutdownDeadlineStrandsNothing)
{
    Rng rng(51);
    auto gen = buildGenerator(genCfg(), rng);
    FaultPlan plan;
    plan.batch_stalls.insert(0); // first prefill sticks forever
    GenerationConfig cfg;
    cfg.max_live = 1;
    cfg.fault_plan = &plan; // no watchdog: shutdown must cancel it
    GenerationEngine eng(*gen, cfg);
    auto f0 = eng.submit({1, 2}, 4);
    for (int i = 0; i < 2000 && eng.stats().prefill_batches == 0; ++i)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    auto f1 = eng.submit({3, 4}, 4); // still queued at the deadline
    eng.shutdown(deadlineAfter(std::chrono::milliseconds(50)));
    // Every future resolved: the stalled one cancelled, the queued one
    // failed with ShuttingDown.
    for (auto *f : {&f0, &f1}) {
        ASSERT_EQ(f->wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        try {
            (void)f->get();
            FAIL() << "expected ShuttingDown";
        } catch (const Error &e) {
            EXPECT_EQ(e.code(), ErrorCode::ShuttingDown);
        }
    }
    // Submitting after shutdown is refused.
    EXPECT_THROW((void)eng.submit({1}, 1), Error);
}

TEST_F(GenerationEngineTest, DestructorDrainsGracefully)
{
    Rng rng(52);
    auto gen = buildGenerator(genCfg(), rng);
    const auto prompts = testutil::makeRequests({5, 3}, gen->vocab(), 60);
    std::vector<std::future<std::vector<int>>> futs;
    {
        GenerationEngine eng(*gen);
        for (const auto &p : prompts)
            futs.push_back(eng.submit(p, 3));
        // Engine destroyed with work possibly in flight.
    }
    for (auto &f : futs)
        EXPECT_EQ(f.get().size(), 3u);
}

TEST_F(GenerationEngineTest, StatsCarryExecutionIdentity)
{
    Rng rng(55);
    auto gen = buildGenerator(genCfg(), rng);
    GenerationEngine eng(*gen);
    const GenerationStats st = eng.stats();
    EXPECT_EQ(st.isa, runtime::isa());
    EXPECT_EQ(st.cpu_signature, runtime::cpuSignature());
}

TEST_F(GenerationEngineTest, ConcurrentSubmittersStayConsistent)
{
    Rng rng(53);
    auto gen = buildGenerator(genCfg(), rng);
    runtime::setNumThreads(4);
    GenerationConfig cfg;
    cfg.max_live = 4;
    GenerationEngine eng(*gen, cfg);
    constexpr int kThreads = 4, kPer = 6;
    std::atomic<int> ok{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPer; ++i) {
                std::vector<int> prompt(1 + (t * kPer + i) % 9,
                                        1 + (t + i) % 30);
                auto f = eng.submit(prompt, 2);
                if (f.get().size() == 2u)
                    ++ok;
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(ok.load(), kThreads * kPer);
    const GenerationStats st = eng.stats();
    EXPECT_EQ(st.completed, static_cast<std::size_t>(kThreads * kPer));
    EXPECT_EQ(st.decode_tokens,
              static_cast<std::size_t>(kThreads * kPer * 2));
}

} // namespace
} // namespace fabnet
