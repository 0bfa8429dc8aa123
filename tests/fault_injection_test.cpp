/**
 * @file fault_injection_test.cpp
 * Deterministic chaos suite for the serving reliability layer
 * (`ctest -L fault`). Every failure path the engine promises to
 * handle is driven on demand through serve::FaultPlan (serve/fault.h)
 * and checked end to end:
 *   - all five serve::ErrorCode values are produced where the
 *     taxonomy says they are (admission throw vs failed future),
 *   - per-request fault isolation: a poisoned row fails alone with
 *     ModelFault while its batchmates' logits stay bitwise identical
 *     to a fault-free run, at threads {1, 4, 8},
 *   - deadlines: expired-in-queue requests fail BEFORE any model
 *     time, mid-batch expiry discards the computed result,
 *   - bounded admission: QueueFull rejection and DropExpiredFirst
 *     shedding, with the backpressure counters,
 *   - the watchdog cancels a stalled invocation and the engine keeps
 *     serving afterwards,
 *   - shutdown(deadline): queued requests and the cancelled in-flight
 *     group fail with ShuttingDown, and a flush() blocked across
 *     shutdown returns with its watermark fully resolved,
 *   - the runtime cancellation primitive itself (CancelScope).
 */
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "model/builder.h"
#include "runtime/parallel.h"
#include "serve/error.h"
#include "serve/fault.h"
#include "serve/serving.h"
#include "tensor/rng.h"
#include "test_util.h"

namespace fabnet {
namespace {

using serve::deadlineAfter;
using serve::Error;
using serve::ErrorCode;
using serve::FaultPlan;
using serve::kNoDeadline;
using serve::ServingConfig;
using serve::ServingEngine;
using serve::ShedPolicy;
using testutil::bitwiseEqual;
using testutil::makeRequests;
using testutil::serveSerial;

ModelConfig
tinyCfg()
{
    ModelConfig cfg;
    cfg.kind = ModelKind::Transformer;
    cfg.vocab = 32;
    cfg.max_seq = 64;
    cfg.d_hid = 16;
    cfg.r_ffn = 2;
    cfg.n_total = 2;
    cfg.heads = 2;
    cfg.classes = 4;
    return cfg;
}

/** Config whose dispatcher never flushes on its own (full buckets
 *  need 64 requests, timeouts need 5 s): queued requests stay queued
 *  until a flush/drain, so admission-bound tests are deterministic. */
ServingConfig
parkedCfg()
{
    ServingConfig sc;
    sc.max_batch = 64;
    sc.bucket_granularity = 16;
    sc.max_wait = std::chrono::seconds(5);
    return sc;
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

using FaultInjectionTest = testutil::RuntimeFixture;

// ------------------------------------------------- InvalidRequest

TEST_F(FaultInjectionTest, AdmissionErrorsAreTypedAndQueueNothing)
{
    const ModelConfig cfg = tinyCfg();
    Rng rng(19);
    auto model = buildModel(cfg, rng);
    ServingEngine engine(*model, ServingConfig{});

    expectError(ErrorCode::InvalidRequest,
                [&] { engine.submit({}); }, "empty request");
    expectError(
        ErrorCode::InvalidRequest,
        [&] { engine.submit(std::vector<int>(cfg.max_seq + 1, 1)); },
        "over-long request");
    expectError(
        ErrorCode::DeadlineExceeded,
        [&] {
            engine.submit({1, 2, 3},
                          deadlineAfter(std::chrono::seconds(-1)));
        },
        "already-expired deadline");

    const auto st = engine.stats();
    EXPECT_EQ(st.requests, 0u); // nothing was queued
    EXPECT_EQ(st.expired_in_queue, 1u);
}

TEST_F(FaultInjectionTest, ServeAllIsAllOrNothingOnBadLengths)
{
    const ModelConfig cfg = tinyCfg();
    Rng rng(23);
    auto model = buildModel(cfg, rng);
    ServingEngine engine(*model, parkedCfg());

    // Request #2 is empty: the whole set must be rejected up front,
    // with nothing admitted and nothing left behind in the queue.
    std::vector<std::vector<int>> reqs = {{1, 2, 3}, {4, 5}, {}};
    expectError(ErrorCode::InvalidRequest,
                [&] { engine.serveAll(reqs); }, "serveAll bad set");
    EXPECT_EQ(engine.stats().requests, 0u);

    // The engine is unharmed: a valid set still serves bitwise.
    const auto good = makeRequests({9, 17, 30}, cfg.vocab, 7);
    EXPECT_TRUE(bitwiseEqual(engine.serveAll(good),
                             serveSerial(*model, good)));
}

TEST_F(FaultInjectionTest, InjectedAdmissionFaultUnwindsServeAllPrefix)
{
    const ModelConfig cfg = tinyCfg();
    Rng rng(29);
    auto model = buildModel(cfg, rng);
    FaultPlan plan;
    // Lengths are valid, but admission attempt #1 fails: the admitted
    // prefix (request #0) must be unwound, keeping all-or-nothing.
    plan.request_faults[1] = FaultPlan::Stage::Admission;
    ServingConfig sc = parkedCfg();
    sc.fault_plan = &plan;
    ServingEngine engine(*model, sc);

    const auto reqs = makeRequests({9, 17, 30}, cfg.vocab, 11);
    expectError(ErrorCode::InvalidRequest,
                [&] { engine.serveAll(reqs); }, "injected admission");
    {
        const auto st = engine.stats();
        EXPECT_EQ(st.requests, st.failed); // admitted prefix unwound
        EXPECT_EQ(st.completed, 0u);
        EXPECT_EQ(st.batches, 0u); // nothing reached the model
    }

    // Later attempts (admission indices 3..) are past the fault.
    EXPECT_TRUE(bitwiseEqual(engine.serveAll(reqs),
                             serveSerial(*model, reqs)));
}

// ----------------------------------------------------- QueueFull

TEST_F(FaultInjectionTest, BoundedAdmissionRejectsWhenFull)
{
    const ModelConfig cfg = tinyCfg();
    Rng rng(31);
    auto model = buildModel(cfg, rng);
    ServingConfig sc = parkedCfg();
    sc.max_queue_requests = 2;
    ServingEngine engine(*model, sc);

    auto f1 = engine.submit({1, 2, 3});
    auto f2 = engine.submit({4, 5, 6});
    expectError(ErrorCode::QueueFull,
                [&] { engine.submit({7, 8, 9}); }, "depth cap");
    {
        const auto st = engine.stats();
        EXPECT_EQ(st.rejected, 1u);
        EXPECT_EQ(st.requests, 2u); // rejected attempts are not admitted
    }
    // The queued requests are unharmed and still get served.
    engine.flush();
    EXPECT_EQ(f1.get().size(), cfg.classes);
    EXPECT_EQ(f2.get().size(), cfg.classes);
}

TEST_F(FaultInjectionTest, TokenCapBoundsQueuedBytes)
{
    const ModelConfig cfg = tinyCfg();
    Rng rng(37);
    auto model = buildModel(cfg, rng);
    ServingConfig sc = parkedCfg();
    sc.max_queue_tokens = cfg.max_seq; // one max-length request's worth
    ServingEngine engine(*model, sc);

    auto f1 = engine.submit(std::vector<int>(40, 1));
    expectError(ErrorCode::QueueFull,
                [&] { engine.submit(std::vector<int>(40, 2)); },
                "token cap");
    EXPECT_EQ(engine.stats().rejected, 1u);
    engine.flush();
    EXPECT_EQ(f1.get().size(), cfg.classes);

    // A cap below max_seq would make some valid requests permanently
    // inadmissible; the constructor refuses it.
    ServingConfig bad = parkedCfg();
    bad.max_queue_tokens = cfg.max_seq - 1;
    Rng rng2(38);
    auto model2 = buildModel(cfg, rng2);
    EXPECT_THROW(ServingEngine(*model2, bad), std::invalid_argument);
}

TEST_F(FaultInjectionTest, DropExpiredFirstShedsToMakeRoom)
{
    const ModelConfig cfg = tinyCfg();
    Rng rng(41);
    auto model = buildModel(cfg, rng);
    // A slow first batch keeps the dispatcher busy: with it idle, the
    // urgent-flush path would rescue the near-deadline request before
    // it ever expired (see UrgentFlushServesNearDeadlineRequest).
    FaultPlan plan;
    plan.batch_delays[0] = std::chrono::milliseconds(150);
    ServingConfig sc;
    sc.max_batch = 64;
    sc.bucket_granularity = 16;
    sc.max_wait = std::chrono::microseconds(500);
    sc.max_queue_requests = 2;
    sc.shed_policy = ShedPolicy::DropExpiredFirst;
    sc.fault_plan = &plan;
    ServingEngine engine(*model, sc);

    // A occupies the dispatcher; f1's deadline then expires while it
    // is parked behind A, f2 has none. The third submit finds the
    // queue full, sheds f1 (it could never be served in time anyway)
    // and is admitted in its place.
    auto fa = engine.submit(std::vector<int>(20, 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    auto f1 = engine.submit({1, 2, 3},
                            deadlineAfter(std::chrono::milliseconds(1)));
    auto f2 = engine.submit({4, 5, 6});
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto f3 = engine.submit({7, 8, 9});

    expectError(ErrorCode::DeadlineExceeded, [&] { f1.get(); },
                "shed request");
    {
        const auto st = engine.stats();
        EXPECT_EQ(st.shed, 1u);
        EXPECT_EQ(st.rejected, 0u);
        EXPECT_EQ(st.requests, 4u);
    }
    engine.flush();
    EXPECT_EQ(fa.get().size(), cfg.classes);
    EXPECT_EQ(f2.get().size(), cfg.classes);
    EXPECT_EQ(f3.get().size(), cfg.classes);
}

// ----------------------------------------------- DeadlineExceeded

TEST_F(FaultInjectionTest, ExpiredInQueueFailsBeforeAnyModelTime)
{
    const ModelConfig cfg = tinyCfg();
    Rng rng(43);
    auto model = buildModel(cfg, rng);
    // A busy dispatcher is the only way a deadline can still die in
    // queue (an idle one urgent-flushes it in time): A is claimed
    // promptly and held inside a delayed invocation while B's 1 ms
    // deadline expires behind it.
    FaultPlan plan;
    plan.batch_delays[0] = std::chrono::milliseconds(100);
    ServingConfig sc;
    sc.max_batch = 64;
    sc.bucket_granularity = 16;
    sc.max_wait = std::chrono::microseconds(500);
    sc.fault_plan = &plan;
    ServingEngine engine(*model, sc);

    auto fa = engine.submit(std::vector<int>(20, 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    auto fb = engine.submit({1, 2, 3},
                            deadlineAfter(std::chrono::milliseconds(1)));

    expectError(ErrorCode::DeadlineExceeded, [&] { fb.get(); },
                "expired in queue");
    EXPECT_EQ(fa.get().size(), cfg.classes);
    const auto st = engine.stats();
    EXPECT_EQ(st.expired_in_queue, 1u);
    EXPECT_EQ(st.batches, 1u); // A's batch only: B never reached the model
    EXPECT_EQ(st.completed, 1u);
    EXPECT_EQ(st.failed, 1u);
}

TEST_F(FaultInjectionTest, MidBatchExpiryDiscardsComputedResult)
{
    const ModelConfig cfg = tinyCfg();
    Rng rng(47);
    auto model = buildModel(cfg, rng);
    const auto reqs = makeRequests({10, 12}, cfg.vocab, 13);
    const auto want = serveSerial(*model, reqs);

    FaultPlan plan;
    // The first model batch is delayed past f1's deadline but the
    // batch is claimed well before it (the deadline is generous), so
    // the expiry deterministically lands MID-batch, not in-queue.
    plan.batch_delays[0] = std::chrono::milliseconds(500);
    ServingConfig sc = parkedCfg();
    sc.fault_plan = &plan;
    ServingEngine engine(*model, sc);

    // f2 (same bucket, no deadline) goes in first: f1's deadline is
    // urgent at once under the 5 s max_wait, so a dispatcher wakeup
    // between the two submits would otherwise flush f1 alone.
    auto f2 = engine.submit(reqs[1]);
    auto f1 = engine.submit(reqs[0],
                            deadlineAfter(std::chrono::milliseconds(200)));
    engine.flush();

    expectError(ErrorCode::DeadlineExceeded, [&] { f1.get(); },
                "mid-batch expiry");
    EXPECT_EQ(f2.get(), want[1]); // batchmate still served, bitwise
    const auto st = engine.stats();
    EXPECT_EQ(st.expired_mid_batch, 1u);
    EXPECT_EQ(st.expired_in_queue, 0u);
    EXPECT_EQ(st.batches, 1u);
    EXPECT_EQ(st.completed, 1u);
    EXPECT_EQ(st.failed, 1u);
}

// ---------------------------------------- ModelFault + isolation

TEST_F(FaultInjectionTest, PoisonedRowFailsAloneSurvivorsBitwise)
{
    const ModelConfig cfg = tinyCfg();
    Rng rng(53);
    auto model = buildModel(cfg, rng);
    const std::vector<std::size_t> lens = testutil::mixedLens();
    const auto reqs = makeRequests(lens, cfg.vocab, 17);
    const auto want = serveSerial(*model, reqs);
    const std::size_t poisoned = 3; // rides in a multi-request bucket

    testutil::forEachThreadCount([&](std::size_t threads) {
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
                            [&] { futs[i].get(); }, "poisoned row");
                continue;
            }
            // Survivors - batchmates of the poisoned row included -
            // must be bitwise identical to the fault-free run.
            const std::vector<float> got = futs[i].get();
            EXPECT_EQ(got, want[i])
                << "request " << i << " threads=" << threads;
        }
        const auto st = engine.stats();
        EXPECT_EQ(st.model_faults, 1u);
        EXPECT_EQ(st.failed, 1u);
        EXPECT_EQ(st.completed, reqs.size() - 1);
        EXPECT_EQ(st.isolation_retries, 1u)
            << "exactly the poisoned group retried";
    });
}

TEST_F(FaultInjectionTest, SurvivorsRetryAtTheirGroupsPaddedLength)
{
    // Isolation re-runs each survivor as the row its batch held:
    // padded to the group's length. A Fourier mixer mixes those pad
    // rows in, so a retry at the row's own length would fail ({20, 30}
    // in bucket 32: no 30-point FFT) or differ from the fault-free run
    // ({16, 8} in bucket 16). Request #0 is poisoned; the survivor must
    // match the fault-free run bitwise and count at the padded length.
    const std::vector<std::vector<std::size_t>> groups = {{20, 30},
                                                          {16, 8}};
    for (ModelKind kind :
         {ModelKind::FNet, ModelKind::FABNet, ModelKind::Transformer}) {
        ModelConfig cfg = tinyCfg();
        cfg.kind = kind; // FABNet: n_abfly 0, every block FBfly
        Rng rng(83);
        auto model = buildModel(cfg, rng);
        for (const auto &lens : groups) {
            const auto reqs = makeRequests(lens, cfg.vocab, 89);
            testutil::forEachThreadCount([&](std::size_t threads) {
                const std::string tag =
                    "kind=" + std::to_string(static_cast<int>(kind)) +
                    " lens=" + std::to_string(lens[0]) + "," +
                    std::to_string(lens[1]) +
                    " threads=" + std::to_string(threads);
                ServingConfig sc = parkedCfg();
                sc.allow_unmasked_mixers = true;
                std::vector<std::vector<float>> want;
                {
                    ServingEngine clean(*model, sc);
                    want = clean.serveAll(reqs); // one group, no fault
                }
                FaultPlan plan;
                plan.request_faults[0] = FaultPlan::Stage::Model;
                sc.fault_plan = &plan;
                ServingEngine engine(*model, sc);
                auto bad = engine.submit(reqs[0]);
                auto good = engine.submit(reqs[1]);
                engine.flush();

                expectError(ErrorCode::ModelFault, [&] { bad.get(); },
                            "poisoned row");
                EXPECT_EQ(good.get(), want[1]) << tag;
                const std::size_t seq = engine.bucketLen(lens[0]);
                const auto st = engine.stats();
                EXPECT_EQ(st.isolation_retries, 1u) << tag;
                EXPECT_EQ(st.model_faults, 1u) << tag;
                EXPECT_EQ(st.completed, 1u) << tag;
                EXPECT_EQ(st.real_tokens, lens[1]) << tag;
                EXPECT_EQ(st.padded_tokens, seq) << tag;
                EXPECT_EQ(st.rows_skipped,
                          model->supportsMaskedBatch() ? seq - lens[1] : 0)
                    << tag;
            });
        }
    }
}

TEST_F(FaultInjectionTest, SingleRowFaultIsFinalNoRetryLoop)
{
    const ModelConfig cfg = tinyCfg();
    Rng rng(59);
    auto model = buildModel(cfg, rng);
    FaultPlan plan;
    plan.request_faults[0] = FaultPlan::Stage::Model;
    ServingConfig sc = parkedCfg();
    sc.fault_plan = &plan;
    ServingEngine engine(*model, sc);

    auto bad = engine.submit({1, 2, 3});
    auto good = engine.submit(std::vector<int>(30, 2)); // other bucket
    engine.flush();

    expectError(ErrorCode::ModelFault, [&] { bad.get(); },
                "single-row fault");
    EXPECT_EQ(good.get().size(), cfg.classes);
    const auto st = engine.stats();
    // A 1-row batch is already isolated: its fault is final, with no
    // isolation pass (and therefore no possibility of a retry loop).
    EXPECT_EQ(st.isolation_retries, 0u);
    EXPECT_EQ(st.model_faults, 1u);
    EXPECT_EQ(st.completed, 1u);
}

TEST_F(FaultInjectionTest, WatchdogCancelsStalledInvocation)
{
    const ModelConfig cfg = tinyCfg();
    Rng rng(61);
    auto model = buildModel(cfg, rng);
    FaultPlan plan;
    plan.batch_stalls.insert(0); // first model batch never returns
    ServingConfig sc = parkedCfg();
    sc.watchdog_timeout = std::chrono::milliseconds(50);
    sc.fault_plan = &plan;
    ServingEngine engine(*model, sc);

    auto f1 = engine.submit({1, 2, 3});
    auto f2 = engine.submit({4, 5, 6}); // same bucket, same group
    engine.flush();

    // A stalled invocation has no salvageable rows: the watchdog
    // cancels it and the whole group fails as ModelFault.
    expectError(ErrorCode::ModelFault, [&] { f1.get(); }, "stalled f1");
    expectError(ErrorCode::ModelFault, [&] { f2.get(); }, "stalled f2");
    {
        const auto st = engine.stats();
        EXPECT_GE(st.watchdog_fired, 1u);
        EXPECT_EQ(st.model_faults, 2u);
        EXPECT_EQ(st.isolation_retries, 0u);
    }

    // The engine survives its watchdog: batch #1 serves normally.
    auto f3 = engine.submit({7, 8, 9});
    engine.flush();
    EXPECT_EQ(f3.get().size(), cfg.classes);
}

TEST_F(FaultInjectionTest, WatchdogFireCountedBeforeFutureFails)
{
    // Counters are published before futures become ready: a client
    // waking from the failed get() already sees the fire counted.
    const ModelConfig cfg = tinyCfg();
    Rng rng(62);
    auto model = buildModel(cfg, rng);
    constexpr std::size_t kRounds = 20;
    FaultPlan plan;
    for (std::size_t i = 0; i < kRounds; ++i)
        plan.batch_stalls.insert(i);
    ServingConfig sc;
    sc.max_batch = 1; // every submit is a full batch, claimed at once
    sc.watchdog_timeout = std::chrono::milliseconds(2);
    sc.fault_plan = &plan;
    ServingEngine engine(*model, sc);
    for (std::size_t i = 0; i < kRounds; ++i) {
        auto f = engine.submit({1, 2, 3});
        // The code is checked through model_faults: under TSan, reading
        // the caught error here would race with the engine thread
        // dropping the last reference inside the uninstrumented C++
        // runtime.
        EXPECT_THROW(f.get(), Error);
        const auto st = engine.stats();
        EXPECT_EQ(st.watchdog_fired, i + 1) << "round " << i;
        EXPECT_EQ(st.model_faults, i + 1) << "round " << i;
    }
}

// -------------------------------------------------- ShuttingDown

TEST_F(FaultInjectionTest, GracefulShutdownDrainsThenRefuses)
{
    const ModelConfig cfg = tinyCfg();
    Rng rng(67);
    auto model = buildModel(cfg, rng);
    ServingEngine engine(*model, parkedCfg());

    const auto reqs = makeRequests({9, 17, 30}, cfg.vocab, 19);
    const auto want = serveSerial(*model, reqs);
    std::vector<std::future<std::vector<float>>> futs;
    for (const auto &r : reqs)
        futs.push_back(engine.submit(r));

    engine.shutdown(); // full drain: everything already admitted serves
    for (std::size_t i = 0; i < futs.size(); ++i)
        EXPECT_EQ(futs[i].get(), want[i]);
    expectError(ErrorCode::ShuttingDown,
                [&] { engine.submit({1, 2, 3}); }, "post-shutdown submit");
    expectError(ErrorCode::ShuttingDown,
                [&] { engine.serveAll({{1, 2, 3}}); },
                "post-shutdown serveAll");
    engine.shutdown(); // idempotent
    EXPECT_EQ(engine.stats().completed, reqs.size());
}

TEST_F(FaultInjectionTest, ShutdownDeadlineFailsQueuedAndCancelsInFlight)
{
    const ModelConfig cfg = tinyCfg();
    Rng rng(71);
    auto model = buildModel(cfg, rng);
    FaultPlan plan;
    plan.batch_stalls.insert(0); // in-flight group is stuck, no watchdog
    ServingConfig sc;
    sc.max_batch = 64;
    sc.bucket_granularity = 16;
    sc.max_wait = std::chrono::microseconds(500); // claim f1 promptly
    sc.fault_plan = &plan;
    ServingEngine engine(*model, sc);

    // f1 gets claimed (timeout flush) and stalls inside the model;
    // f2 (a different bucket) stays queued behind it.
    auto f1 = engine.submit(std::vector<int>(10, 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto f2 = engine.submit(std::vector<int>(30, 2));

    engine.shutdown(deadlineAfter(std::chrono::milliseconds(100)));

    // The drain could not finish: the queued request is failed and the
    // stuck invocation is cancelled, both with ShuttingDown.
    expectError(ErrorCode::ShuttingDown, [&] { f1.get(); },
                "cancelled in-flight");
    expectError(ErrorCode::ShuttingDown, [&] { f2.get(); },
                "abandoned queued");
    const auto st = engine.stats();
    EXPECT_EQ(st.failed, 2u);
    EXPECT_EQ(st.completed, 0u);
    EXPECT_EQ(st.watchdog_fired, 0u); // no watchdog involved
}

TEST_F(FaultInjectionTest, FlushBlockedAcrossShutdownReturnsResolved)
{
    const ModelConfig cfg = tinyCfg();
    Rng rng(73);
    auto model = buildModel(cfg, rng);
    FaultPlan plan;
    plan.batch_stalls.insert(0);
    ServingConfig sc;
    sc.max_batch = 64;
    sc.bucket_granularity = 16;
    sc.max_wait = std::chrono::microseconds(500);
    sc.fault_plan = &plan;
    ServingEngine engine(*model, sc);

    auto f1 = engine.submit(std::vector<int>(10, 1)); // will stall
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto f2 = engine.submit(std::vector<int>(30, 2)); // stays queued

    // flush() blocks: its watermark covers f1 (stalled) and f2
    // (queued). The satellite contract: a shutdown racing the flush
    // resolves the whole watermark, and flush returns normally.
    std::thread flusher([&] { engine.flush(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    engine.shutdown(deadlineAfter(std::chrono::milliseconds(100)));
    flusher.join(); // must not hang

    // Everything the flush waited on is resolved (exceptionally).
    EXPECT_EQ(f1.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(f2.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    expectError(ErrorCode::ShuttingDown, [&] { f1.get(); }, "f1");
    expectError(ErrorCode::ShuttingDown, [&] { f2.get(); }, "f2");
}

// ---------------------------------------- dispatcher wakeup / urgent flush

TEST_F(FaultInjectionTest, UrgentFlushServesNearDeadlineRequest)
{
    // The timeout-flush wakeup bug: the dispatcher armed its sleep
    // against the OLDEST enqueue time only, so a later-arriving
    // request whose deadline fell well inside max_wait slept out the
    // full window and expired in queue. The fixed dispatcher re-arms
    // against the earliest queued deadline and urgent-flushes that
    // request's bucket instead.
    const ModelConfig cfg = tinyCfg();
    Rng rng(79);
    auto model = buildModel(cfg, rng);
    FaultPlan plan;
    // The urgent batch itself is slow (count-keyed on dispatch 0):
    // the deadline must still be met with the injected delay inside.
    plan.batch_delays[0] = std::chrono::milliseconds(50);
    ServingConfig sc;
    sc.max_batch = 4;
    sc.bucket_granularity = 16;
    sc.max_wait = std::chrono::seconds(10); // normal flush far too late
    sc.fault_plan = &plan;
    ServingEngine engine(*model, sc);

    // A parks in the 16-bucket with no deadline: the dispatcher goes
    // to sleep with nothing due for 10 s.
    auto fa = engine.submit(std::vector<int>(10, 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // B arrives in a DIFFERENT bucket with a 2 s deadline. The buggy
    // dispatcher kept sleeping on A's timeout; the fixed one wakes,
    // sees the deadline is inside the max_wait window, and flushes
    // B's bucket immediately.
    const std::vector<int> b_toks(30, 2);
    auto fb = engine.submit(
        b_toks, deadlineAfter(std::chrono::seconds(2)));

    const std::vector<float> got = fb.get(); // must resolve in time
    // Urgent batches keep the engine's bitwise contract.
    EXPECT_EQ(got, serveSerial(*model, {b_toks})[0]);

    auto st = engine.stats();
    EXPECT_EQ(st.expired_in_queue, 0u);
    EXPECT_GE(st.urgent_flushes, 1u);
    // Urgent pops are a subset of timeout flushes (same FlushReason).
    EXPECT_GE(st.flushed_timeout, st.urgent_flushes);

    // A was not dragged along (different bucket): it drains on flush.
    engine.flush();
    EXPECT_EQ(fa.get().size(), cfg.classes);
    st = engine.stats();
    EXPECT_EQ(st.completed, 2u);
    EXPECT_EQ(st.failed, 0u);
}

TEST_F(FaultInjectionTest, UrgentFlushTakesBucketMatesAlong)
{
    // An urgent flush pops the whole bucket FIFO-from-head, so a
    // no-deadline bucket-mate ahead of the urgent request rides along
    // instead of being bypassed.
    const ModelConfig cfg = tinyCfg();
    Rng rng(80);
    auto model = buildModel(cfg, rng);
    ServingConfig sc;
    sc.max_batch = 4;
    sc.bucket_granularity = 16;
    sc.max_wait = std::chrono::seconds(10);
    ServingEngine engine(*model, sc);

    auto fa = engine.submit(std::vector<int>(9, 1)); // same 16-bucket
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto fb = engine.submit(std::vector<int>(12, 2),
                            deadlineAfter(std::chrono::seconds(2)));

    EXPECT_EQ(fb.get().size(), cfg.classes);
    EXPECT_EQ(fa.get().size(), cfg.classes); // served in the same group
    const auto st = engine.stats();
    EXPECT_EQ(st.batches, 1u); // one urgent group carried both
    EXPECT_GE(st.urgent_flushes, 1u);
    EXPECT_EQ(st.expired_in_queue, 0u);
}

// ------------------------------------- runtime cancellation unit

TEST_F(FaultInjectionTest, ParallelForHonoursCancelScope)
{
    testutil::forEachThreadCount([&](std::size_t threads) {
        runtime::CancelToken token;
        std::atomic<std::size_t> ran{0};
        const auto body = [&](std::size_t b, std::size_t e) {
            ran.fetch_add(e - b, std::memory_order_relaxed);
        };

        // Without a scope the token is invisible: the region runs.
        token.cancel();
        runtime::parallelFor(0, 64, 8, body);
        EXPECT_EQ(ran.load(), 64u) << "threads=" << threads;

        // Inside a scope a cancelled token aborts the region with
        // runtime::Cancelled before (more) chunks are claimed.
        runtime::CancelScope scope(token);
        EXPECT_THROW(runtime::parallelFor(0, 64, 8, body),
                     runtime::Cancelled);

        // Reset re-arms the token for the next invocation.
        token.reset();
        ran.store(0);
        runtime::parallelFor(0, 64, 8, body);
        EXPECT_EQ(ran.load(), 64u);
    });
}

} // namespace
} // namespace fabnet
