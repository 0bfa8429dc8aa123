/**
 * @file serving_stress_test.cpp
 * Concurrency stress for the serving engines' lifecycle guarantees,
 * written to run under TSan (`ctest -L serve` in the sanitizer CI
 * job): client threads hammer submit()/serveAll()/flush() while
 * another thread initiates shutdown, and the suite asserts the one
 * property everything else rests on - EVERY future an engine ever
 * handed out resolves exactly once, either with a result of the right
 * shape or with a typed serve::Error. No future is dropped, none is
 * satisfied twice (a second set would throw future_error), and no
 * waiter is left blocked. Both ServingEngine and GenerationEngine run
 * this race.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "model/builder.h"
#include "model/generator.h"
#include "serve/error.h"
#include "serve/generation.h"
#include "serve/serving.h"
#include "tensor/rng.h"
#include "test_util.h"

namespace fabnet {
namespace {

using serve::Deadline;
using serve::deadlineAfter;
using serve::Error;
using serve::ErrorCode;
using serve::GenerationConfig;
using serve::GenerationEngine;
using serve::kNoDeadline;
using serve::ServingConfig;
using serve::ServingEngine;
using serve::TokenCallback;

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

/** Resolve one future and classify the outcome. Every path through
 *  the engine must land in exactly one of these buckets. */
struct Outcomes
{
    std::atomic<std::size_t> served{0};
    std::atomic<std::size_t> typed_errors{0};
    std::atomic<std::size_t> untyped{0};

    void consume(std::future<std::vector<float>> &f, std::size_t classes)
    {
        try {
            const std::vector<float> out = f.get();
            if (out.size() == classes)
                served.fetch_add(1);
            else
                untyped.fetch_add(1);
        } catch (const Error &) {
            typed_errors.fetch_add(1);
        } catch (...) {
            untyped.fetch_add(1);
        }
    }
};

using ServingStressTest = testutil::RuntimeFixture;

TEST_F(ServingStressTest, ConcurrentSubmitFlushShutdownResolvesEverything)
{
    const ModelConfig cfg = tinyCfg();
    Rng rng(101);
    auto model = buildModel(cfg, rng);

    ServingConfig sc;
    sc.max_batch = 4;
    sc.bucket_granularity = 16;
    sc.max_wait = std::chrono::microseconds(200);
    sc.max_queue_requests = 64; // bounded admission under contention
    sc.shed_policy = serve::ShedPolicy::DropExpiredFirst;

    constexpr std::size_t kSubmitters = 4;
    constexpr std::size_t kPerThread = 40;

    ServingEngine engine(*model, sc);
    Outcomes outcomes;
    std::atomic<std::size_t> admitted{0}, refused{0};
    std::vector<std::thread> threads;

    for (std::size_t t = 0; t < kSubmitters; ++t) {
        threads.emplace_back([&, t] {
            Rng trng(200 + static_cast<unsigned>(t));
            for (std::size_t i = 0; i < kPerThread; ++i) {
                const std::size_t len = static_cast<std::size_t>(
                    trng.randint(1, static_cast<int>(cfg.max_seq)));
                std::vector<int> toks(len);
                for (int &x : toks)
                    x = trng.randint(1, static_cast<int>(cfg.vocab) - 1);
                try {
                    // A mix of deadline-free and tight-deadline
                    // traffic, so expiry paths race real serving.
                    auto fut =
                        (i % 5 == 0)
                            ? engine.submit(
                                  std::move(toks),
                                  deadlineAfter(
                                      std::chrono::milliseconds(2)))
                            : engine.submit(std::move(toks));
                    admitted.fetch_add(1);
                    outcomes.consume(fut, cfg.classes);
                } catch (const Error &) {
                    // QueueFull / ShuttingDown / DeadlineExceeded at
                    // admission: typed, nothing queued.
                    refused.fetch_add(1);
                }
                if (i % 8 == 0)
                    engine.flush();
            }
        });
    }
    // One thread drives the synchronous bulk path concurrently.
    threads.emplace_back([&] {
        Rng brng(999);
        for (std::size_t round = 0; round < 6; ++round) {
            std::vector<std::vector<int>> reqs(3);
            for (auto &r : reqs) {
                r.resize(static_cast<std::size_t>(brng.randint(1, 40)));
                for (int &x : r)
                    x = brng.randint(1, static_cast<int>(cfg.vocab) - 1);
            }
            try {
                const auto out = engine.serveAll(reqs);
                for (const auto &row : out)
                    if (row.size() == cfg.classes)
                        outcomes.served.fetch_add(1);
                    else
                        outcomes.untyped.fetch_add(1);
            } catch (const Error &) {
                // ShuttingDown: either refused up front (nothing
                // admitted) or a member future failed after the set
                // was admitted; both are typed and fully resolved.
                refused.fetch_add(1);
            }
        }
    });
    // And one thread shuts the engine down mid-traffic with a
    // deadline, racing the submitters' admissions and flushes.
    threads.emplace_back([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
        engine.shutdown(deadlineAfter(std::chrono::milliseconds(150)));
    });

    for (auto &th : threads)
        th.join();

    // Exactly-once resolution: every future handed out was consumed
    // (get() returned or threw precisely once - a double-set would
    // have thrown future_error inside the engine and surfaced as an
    // untyped outcome, a dropped promise as broken_promise), nothing
    // fell outside the typed taxonomy, and no waiter hung (the test
    // reached this line).
    EXPECT_EQ(outcomes.untyped.load(), 0u);
    EXPECT_GT(outcomes.served.load(), 0u);
    const auto st = engine.stats();
    EXPECT_EQ(st.completed + st.failed, st.requests)
        << "every admitted request must resolve";
    // Every submit()-path future was consumed exactly once.
    EXPECT_GE(outcomes.served.load() + outcomes.typed_errors.load(),
              admitted.load());
}

TEST_F(ServingStressTest, DestructorResolvesOutstandingFutures)
{
    const ModelConfig cfg = tinyCfg();
    Rng rng(103);
    auto model = buildModel(cfg, rng);

    std::vector<std::future<std::vector<float>>> futs;
    {
        ServingConfig sc;
        sc.max_batch = 64; // nothing flushes until the drain
        sc.max_wait = std::chrono::seconds(5);
        ServingEngine engine(*model, sc);
        for (int i = 0; i < 6; ++i)
            futs.push_back(engine.submit({1, 2, 3, i + 1}));
        // Engine destroyed with all six still queued: the destructor's
        // graceful drain must serve them, not strand them.
    }
    for (auto &f : futs) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        EXPECT_EQ(f.get().size(), cfg.classes);
    }
}

TEST_F(ServingStressTest, GenerationSubmitFlushShutdownResolvesEverything)
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
    Rng rng(107);
    auto gen = buildGenerator(cfg, rng);

    GenerationConfig gc;
    gc.max_live = 2;
    gc.max_queue_requests = 6; // bounded admission under contention
    gc.shed_policy = serve::ShedPolicy::DropExpiredFirst;

    constexpr std::size_t kSubmitters = 4;
    constexpr std::size_t kPerThread = 40;

    /** A fulfilled request, checked against the reference afterwards. */
    struct Served
    {
        std::vector<int> prompt;
        std::size_t max_new = 0;
        std::vector<int> tokens;
        std::shared_ptr<std::vector<int>> streamed; ///< null: no callback
    };
    std::mutex served_mu;
    std::vector<Served> served;
    std::atomic<std::size_t> attempts{0}, admitted{0}, typed_errors{0},
        untyped{0};
    {
        GenerationEngine engine(*gen, gc);
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < kSubmitters; ++t) {
            threads.emplace_back([&, t] {
                Rng trng(300 + static_cast<unsigned>(t));
                std::vector<std::pair<Served, std::future<std::vector<int>>>>
                    inflight;
                const auto consume = [&] {
                    for (auto &[req, fut] : inflight) {
                        try {
                            req.tokens = fut.get();
                            std::lock_guard<std::mutex> lk(served_mu);
                            served.push_back(std::move(req));
                        } catch (const Error &) {
                            typed_errors.fetch_add(1);
                        } catch (...) {
                            untyped.fetch_add(1);
                        }
                    }
                    inflight.clear();
                };
                for (std::size_t i = 0; i < kPerThread; ++i) {
                    Served req;
                    req.prompt.resize(
                        static_cast<std::size_t>(trng.randint(1, 12)));
                    for (int &x : req.prompt)
                        x = trng.randint(1, static_cast<int>(cfg.vocab) - 1);
                    req.max_new = static_cast<std::size_t>(trng.randint(1, 8));
                    // Tight deadlines race expiry in queue and mid-decode
                    // against real decoding; some requests stream.
                    const Deadline deadline =
                        (i % 5 == 0)
                            ? deadlineAfter(std::chrono::milliseconds(2))
                            : kNoDeadline;
                    TokenCallback on_token;
                    if (i % 3 == 0) {
                        req.streamed = std::make_shared<std::vector<int>>();
                        on_token = [sink = req.streamed](int tok) {
                            sink->push_back(tok);
                        };
                    }
                    attempts.fetch_add(1);
                    try {
                        auto fut = engine.submit(req.prompt, req.max_new,
                                                 deadline, on_token);
                        admitted.fetch_add(1);
                        inflight.emplace_back(std::move(req), std::move(fut));
                    } catch (const Error &) {
                        // QueueFull / ShuttingDown / DeadlineExceeded at
                        // admission: typed, nothing queued.
                    }
                    if (i % 8 == 0) {
                        engine.flush();
                        consume();
                    }
                }
                consume();
            });
        }
        // Shut the engine down mid-traffic with a deadline, racing the
        // submitters' admissions and flushes. Counting attempts rather
        // than sleeping keeps it mid-traffic at any machine speed.
        threads.emplace_back([&] {
            while (attempts.load() < kSubmitters * kPerThread / 2)
                std::this_thread::sleep_for(std::chrono::microseconds(200));
            engine.shutdown(deadlineAfter(std::chrono::milliseconds(150)));
        });
        for (auto &th : threads)
            th.join();

        EXPECT_EQ(untyped.load(), 0u);
        EXPECT_EQ(served.size() + typed_errors.load(), admitted.load())
            << "every admitted future resolves exactly once";
        const auto st = engine.stats();
        EXPECT_EQ(st.requests, admitted.load());
        EXPECT_EQ(st.completed + st.failed, st.requests)
            << "every admitted request must resolve";
        EXPECT_EQ(st.completed, served.size());
    }
    // The engine is gone, so the generator is free for the reference.
    EXPECT_GT(served.size(), 0u);
    for (const Served &s : served) {
        EXPECT_EQ(s.tokens,
                  testutil::referenceGreedy(*gen, s.prompt, s.max_new));
        if (s.streamed) {
            EXPECT_EQ(*s.streamed, s.tokens);
        }
    }
}

} // namespace
} // namespace fabnet
