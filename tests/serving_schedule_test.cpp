/**
 * @file serving_schedule_test.cpp
 * Seeded schedule harness for both serving engines' request lifecycle
 * (`ctest -L serve`, so the sanitizer CI jobs run it too). For each
 * seed, at threads {1, 4, 8}, two client threads run a seeded mix of
 * operations against one ServingEngine and one GenerationEngine:
 * submit() (some with deadlines), serveAll() and flush(), one
 * shutdown(deadline) per engine at a seeded point, and generation
 * submits (some with deadlines) whose token callback throws at a
 * seeded token - all under
 * FaultPlans with seeded admission faults, model faults and batch
 * delays. Odd seeds serve an FNet model (Fourier mixers, padded
 * buckets), even seeds a Transformer. The harness checks that:
 *  - every future resolves exactly once, with a result of the right
 *    shape or a typed serve::Error;
 *  - completed + failed == requests once the engine has drained;
 *  - no fulfilled logits or tokens resolved after their request's
 *    deadline;
 *  - fulfilled logits equal serial inference bitwise, and fulfilled
 *    tokens (and streamed prefixes) equal the generator's greedy
 *    reference.
 * Every failure names its seed and thread count.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "model/builder.h"
#include "model/generator.h"
#include "runtime/parallel.h"
#include "serve/batcher.h"
#include "serve/error.h"
#include "serve/fault.h"
#include "serve/generation.h"
#include "serve/serving.h"
#include "tensor/rng.h"
#include "test_util.h"

namespace fabnet {
namespace {

using serve::Deadline;
using serve::deadlineAfter;
using serve::Error;
using serve::FaultPlan;
using serve::GenerationConfig;
using serve::GenerationEngine;
using serve::kNoDeadline;
using serve::ServingConfig;
using serve::ServingEngine;
using std::chrono::milliseconds;

constexpr unsigned kSeeds[] = {1, 2, 3, 4, 5, 6};
constexpr std::size_t kClients = 2;
constexpr std::size_t kOpsPerClient = 32;
/** How long after its deadline a fulfilled future may still become
 *  ready: the engine stamps the batch's finish before it publishes the
 *  results, so only that publication may trail the deadline. */
constexpr milliseconds kDeadlineSlack{50};
/** The longest submit() deadline (both engines), in ms from
 *  submission. */
constexpr int kMaxDeadlineMs = 20;

ModelConfig
classifierCfg(ModelKind kind)
{
    ModelConfig cfg;
    cfg.kind = kind;
    cfg.vocab = 32;
    cfg.max_seq = 64;
    cfg.d_hid = 16;
    cfg.r_ffn = 2;
    cfg.n_total = 2;
    cfg.heads = 2;
    cfg.classes = 4;
    return cfg;
}

ModelConfig
generatorCfg()
{
    ModelConfig cfg = classifierCfg(ModelKind::FABNet);
    cfg.max_seq = 32;
    cfg.n_abfly = 2;
    cfg.classes = 2;
    cfg.causal = true;
    return cfg;
}

std::vector<int>
randomTokens(Rng &rng, std::size_t len, std::size_t vocab)
{
    std::vector<int> toks(len);
    for (int &t : toks)
        t = rng.randint(1, static_cast<int>(vocab) - 1);
    return toks;
}

/** A request length: half the time a power of two up to 32, which a
 *  Fourier mixer can run unpadded and which pads to a longer bucket
 *  in most configs; otherwise uniform in [1, 40]. */
std::size_t
requestLength(Rng &rng)
{
    if (rng.randint(0, 1) == 0)
        return std::size_t{1} << rng.randint(0, 5);
    return static_cast<std::size_t>(rng.randint(1, 40));
}

/** One scenario's shared state: the engines, what the clients saw,
 *  and every violation found (checked on the main thread). */
struct Schedule
{
    unsigned seed = 0;
    std::size_t classes = 0;
    std::size_t vocab = 0;
    ServingEngine *serving = nullptr;
    GenerationEngine *generation = nullptr;
    /** Which client shuts which engine down, at which op, with what
     *  deadline. */
    std::size_t serve_shutdown_client = 0, serve_shutdown_op = 0;
    std::size_t gen_shutdown_client = 0, gen_shutdown_op = 0;
    int serve_shutdown_ms = 0, gen_shutdown_ms = 0;

    struct Logits
    {
        std::vector<int> tokens;
        std::vector<float> logits;
    };
    struct Tokens
    {
        std::vector<int> prompt;
        std::size_t max_new = 0;
        std::vector<int> tokens; ///< fulfilled result (empty: failed)
        std::shared_ptr<std::vector<int>> streamed; ///< null: no callback
        bool late = false; ///< still unresolved at deadline + slack
    };

    std::mutex mu; // guards everything below
    std::vector<Logits> served;
    std::vector<Tokens> generated;
    std::size_t serving_futures = 0, serving_fulfilled = 0;
    std::size_t gen_futures = 0, gen_fulfilled = 0;
    std::vector<std::string> violations;

    void violation(const std::string &what)
    {
        std::lock_guard<std::mutex> lk(mu);
        violations.push_back(what);
    }
};

/** A submitted classification request awaiting resolution. */
struct PendingLogits
{
    std::vector<int> tokens;
    std::future<std::vector<float>> future;
    bool late = false; ///< still unresolved at deadline + slack
};

/** Resolve @p p exactly once and record the outcome. */
void
resolveLogits(Schedule &s, PendingLogits &p)
{
    if (p.future.wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
        s.violation("a submit() future never resolved");
        return;
    }
    try {
        std::vector<float> out = p.future.get();
        std::lock_guard<std::mutex> lk(s.mu);
        ++s.serving_fulfilled;
        if (out.size() != s.classes)
            s.violations.push_back("submit() logits of the wrong shape");
        if (p.late)
            s.violations.push_back(
                "submit() logits fulfilled after the request's deadline");
        s.served.push_back({std::move(p.tokens), std::move(out)});
    } catch (const Error &) {
    } catch (const std::exception &e) {
        s.violation(std::string("submit() future failed untyped: ") +
                    e.what());
    }
}

void
resolveTokens(Schedule &s, Schedule::Tokens req,
              std::future<std::vector<int>> &fut)
{
    if (fut.wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
        s.violation("a generation future never resolved");
        return;
    }
    try {
        req.tokens = fut.get();
        if (req.tokens.empty() || req.tokens.size() > req.max_new)
            s.violation("generated token count outside [1, max_new]");
        if (req.late)
            s.violation(
                "generated tokens fulfilled after the request's deadline");
        std::lock_guard<std::mutex> lk(s.mu);
        ++s.gen_fulfilled;
    } catch (const Error &) {
        // A throwing callback, a model fault, a deadline or the
        // shutdown: typed. The streamed prefix is still checked.
    } catch (const std::exception &e) {
        s.violation(std::string("generation future failed untyped: ") +
                    e.what());
        return;
    }
    std::lock_guard<std::mutex> lk(s.mu);
    s.generated.push_back(std::move(req));
}

void
runClient(Schedule &s, std::size_t client)
{
    Rng rng(s.seed * 7919u + static_cast<unsigned>(client));
    std::vector<PendingLogits> logits;
    std::vector<std::pair<Schedule::Tokens, std::future<std::vector<int>>>>
        tokens;
    for (std::size_t op = 0; op < kOpsPerClient; ++op) {
        if (client == s.serve_shutdown_client && op == s.serve_shutdown_op)
            s.serving->shutdown(
                deadlineAfter(milliseconds(s.serve_shutdown_ms)));
        if (client == s.gen_shutdown_client && op == s.gen_shutdown_op)
            s.generation->shutdown(
                deadlineAfter(milliseconds(s.gen_shutdown_ms)));
        const int pick = rng.randint(0, 99);
        try {
            if (pick < 35) {
                PendingLogits p;
                p.tokens = randomTokens(
                    rng, requestLength(rng),
                    s.vocab);
                p.future = s.serving->submit(p.tokens);
                {
                    std::lock_guard<std::mutex> lk(s.mu);
                    ++s.serving_futures;
                }
                logits.push_back(std::move(p));
            } else if (pick < 50) {
                // A deadline: watch the future until deadline + slack,
                // so a result published late is seen late.
                PendingLogits p;
                p.tokens = randomTokens(
                    rng, requestLength(rng),
                    s.vocab);
                const Deadline d =
                    deadlineAfter(milliseconds(rng.randint(1, kMaxDeadlineMs)));
                p.future = s.serving->submit(p.tokens, d);
                {
                    std::lock_guard<std::mutex> lk(s.mu);
                    ++s.serving_futures;
                }
                p.late = p.future.wait_until(d + kDeadlineSlack) !=
                         std::future_status::ready;
                logits.push_back(std::move(p));
            } else if (pick < 60) {
                std::vector<std::vector<int>> set(
                    static_cast<std::size_t>(rng.randint(1, 4)));
                for (auto &r : set)
                    r = randomTokens(
                        rng, requestLength(rng),
                        s.vocab);
                const auto out = s.serving->serveAll(set);
                std::lock_guard<std::mutex> lk(s.mu);
                if (out.size() != set.size())
                    s.violations.push_back("serveAll() result count");
                for (std::size_t i = 0; i < out.size(); ++i) {
                    if (out[i].size() != s.classes)
                        s.violations.push_back(
                            "serveAll() logits of the wrong shape");
                    s.served.push_back({set[i], out[i]});
                }
            } else if (pick < 68) {
                s.serving->flush();
            } else if (pick < 93) {
                Schedule::Tokens req;
                req.prompt = randomTokens(
                    rng, static_cast<std::size_t>(rng.randint(1, 10)),
                    s.vocab);
                req.max_new = static_cast<std::size_t>(rng.randint(1, 6));
                serve::TokenCallback on_token;
                if (rng.randint(0, 2) == 0) {
                    // Streams; half of these throw at a seeded token.
                    req.streamed = std::make_shared<std::vector<int>>();
                    const std::size_t throw_at =
                        rng.randint(0, 1) == 0
                            ? static_cast<std::size_t>(
                                  rng.randint(1, static_cast<int>(
                                                     req.max_new)))
                            : 0;
                    on_token = [sink = req.streamed, throw_at](int tok) {
                        sink->push_back(tok);
                        if (sink->size() == throw_at)
                            throw std::runtime_error("callback throws");
                    };
                }
                // A third carry a deadline, watched as submit()'s are.
                const Deadline d =
                    rng.randint(0, 2) == 0
                        ? deadlineAfter(
                              milliseconds(rng.randint(1, kMaxDeadlineMs)))
                        : kNoDeadline;
                auto fut = s.generation->submit(req.prompt, req.max_new,
                                                d, on_token);
                {
                    std::lock_guard<std::mutex> lk(s.mu);
                    ++s.gen_futures;
                }
                if (d != kNoDeadline)
                    req.late = fut.wait_until(d + kDeadlineSlack) !=
                               std::future_status::ready;
                tokens.emplace_back(std::move(req), std::move(fut));
            } else {
                s.generation->flush();
            }
        } catch (const Error &) {
            // Refused at admission (InvalidRequest, QueueFull,
            // DeadlineExceeded, ShuttingDown), or a serveAll() member
            // failed: typed, and nothing was left half-admitted.
        } catch (const std::exception &e) {
            s.violation(std::string("untyped exception from an engine "
                                    "operation: ") +
                        e.what());
        }
    }
    for (PendingLogits &p : logits)
        resolveLogits(s, p);
    for (auto &[req, fut] : tokens)
        resolveTokens(s, std::move(req), fut);
}

/** Check every fulfilled result against serial inference (the
 *  engines are gone, so the models are free). */
void
checkResults(Schedule &s, SequenceClassifier &model,
             const ServingConfig &sc, CausalGenerator &gen)
{
    const serve::RequestBatcher batcher(sc.max_batch, sc.bucket_granularity,
                                        model.config().max_seq);
    for (const Schedule::Logits &r : s.served) {
        // Maskable models serve each request exactly as its unpadded
        // forward; Fourier-mixer models as its padded row alone.
        Tensor want;
        if (model.supportsMaskedBatch()) {
            want = model.forward(r.tokens, 1, r.tokens.size());
        } else {
            const std::size_t seq = batcher.bucketLen(r.tokens.size());
            std::vector<int> row(seq, sc.pad_token);
            std::copy(r.tokens.begin(), r.tokens.end(), row.begin());
            want = model.forwardBatch(row, 1, seq, {r.tokens.size()});
        }
        if (r.logits != std::vector<float>(want.data(),
                                           want.data() + want.size()))
            s.violations.push_back(
                "served logits differ from serial inference");
    }
    for (const Schedule::Tokens &r : s.generated) {
        const std::vector<int> want =
            testutil::referenceGreedy(gen, r.prompt, r.max_new);
        if (!r.tokens.empty() && r.tokens != want)
            s.violations.push_back(
                "generated tokens differ from the greedy reference");
        if (r.streamed && !r.tokens.empty() && *r.streamed != r.tokens)
            s.violations.push_back("streamed tokens differ from the future");
        if (r.streamed && (r.streamed->size() > want.size() ||
                           !std::equal(r.streamed->begin(),
                                       r.streamed->end(), want.begin())))
            s.violations.push_back(
                "streamed prefix differs from the greedy reference");
    }
}

/**
 * A FaultPlan with seeded admission faults, model faults and batch
 * delays: @p short_pct % of invocations sleep up to @p short_ms, and
 * @p long_pct % sleep @p long_ms to twice that. A long delay outlasts
 * every submit() deadline plus kDeadlineSlack, so a result published
 * past its deadline shows as late.
 */
FaultPlan
seededPlan(Rng &rng, int short_pct, int short_ms, int long_pct, int long_ms)
{
    FaultPlan plan;
    for (std::uint64_t i = 0; i < 400; ++i) {
        const int roll = rng.randint(0, 99);
        if (roll < 4)
            plan.request_faults[i] = FaultPlan::Stage::Admission;
        else if (roll < 8)
            plan.request_faults[i] = FaultPlan::Stage::Model;
    }
    for (std::size_t i = 0; i < 400; ++i) {
        const int roll = rng.randint(0, 99);
        if (roll < long_pct)
            plan.batch_delays[i] =
                milliseconds(rng.randint(long_ms, 2 * long_ms));
        else if (roll < long_pct + short_pct)
            plan.batch_delays[i] = milliseconds(rng.randint(1, short_ms));
    }
    return plan;
}

using ServingScheduleTest = testutil::RuntimeFixture;

TEST_F(ServingScheduleTest, SeededSchedulesKeepTheLifecycleContract)
{
    Rng model_rng(401);
    auto transformer =
        buildModel(classifierCfg(ModelKind::Transformer), model_rng);
    auto fnet = buildModel(classifierCfg(ModelKind::FNet), model_rng);
    auto gen = buildGenerator(generatorCfg(), model_rng);

    for (unsigned seed : kSeeds) {
        for (std::size_t threads : testutil::kThreadCounts) {
            runtime::setNumThreads(threads);
            const std::string tag = "seed=" + std::to_string(seed) +
                                    " threads=" + std::to_string(threads);
            Rng rng(seed);
            SequenceClassifier &model = seed % 2 ? *fnet : *transformer;

            const FaultPlan serve_plan =
                seededPlan(rng, 10, 20, 5, kMaxDeadlineMs + 60);
            ServingConfig sc;
            const std::size_t batches[] = {1, 4, 8};
            sc.max_batch = batches[rng.randint(0, 2)];
            sc.bucket_granularity = rng.randint(0, 1) ? 16 : 8;
            sc.allow_unmasked_mixers = true;
            sc.max_wait = std::chrono::microseconds(
                rng.randint(0, 1) ? 200 : 2000);
            sc.max_queue_requests = rng.randint(0, 1) ? 0 : 6;
            sc.shed_policy = rng.randint(0, 1)
                                 ? serve::ShedPolicy::DropExpiredFirst
                                 : serve::ShedPolicy::RejectNew;
            sc.fault_plan = &serve_plan;

            const FaultPlan gen_plan =
                seededPlan(rng, 2, 10, 1, kMaxDeadlineMs + 60);
            GenerationConfig gc;
            gc.max_live = rng.randint(0, 1) ? 3 : 1;
            gc.max_queue_requests = rng.randint(0, 1) ? 0 : 4;
            gc.fault_plan = &gen_plan;

            Schedule s;
            s.seed = seed;
            s.classes = model.config().classes;
            s.vocab = model.config().vocab;
            const auto index = [&rng](std::size_t n) {
                return static_cast<std::size_t>(
                    rng.randint(0, static_cast<int>(n) - 1));
            };
            // Shutdowns land in the second half, after real traffic.
            s.serve_shutdown_client = index(kClients);
            s.serve_shutdown_op = kOpsPerClient / 2 + index(kOpsPerClient / 2);
            s.serve_shutdown_ms = rng.randint(0, 30);
            s.gen_shutdown_client = index(kClients);
            s.gen_shutdown_op = kOpsPerClient / 2 + index(kOpsPerClient / 2);
            s.gen_shutdown_ms = rng.randint(0, 30);

            std::optional<serve::ServingStats> serving_stats;
            std::optional<serve::GenerationStats> gen_stats;
            {
                ServingEngine serving(model, sc);
                GenerationEngine generation(*gen, gc);
                s.serving = &serving;
                s.generation = &generation;
                std::vector<std::thread> clients;
                for (std::size_t c = 0; c < kClients; ++c)
                    clients.emplace_back([&s, c] { runClient(s, c); });
                for (auto &t : clients)
                    t.join();
                // Drain fully (what the destructors run first), then
                // read the final counters.
                serving.shutdown();
                generation.shutdown();
                serving_stats = serving.stats();
                gen_stats = generation.stats();
            }

            const auto &ss = *serving_stats;
            EXPECT_EQ(ss.completed + ss.failed, ss.requests) << tag;
            EXPECT_GE(ss.requests, s.serving_futures) << tag;
            EXPECT_GE(ss.completed, s.serving_fulfilled) << tag;
            const auto &gs = *gen_stats;
            EXPECT_EQ(gs.completed + gs.failed, gs.requests) << tag;
            EXPECT_EQ(gs.requests, s.gen_futures) << tag;
            EXPECT_EQ(gs.completed, s.gen_fulfilled) << tag;

            checkResults(s, model, sc, *gen);
            for (const std::string &v : s.violations)
                ADD_FAILURE() << tag << ": " << v;
        }
    }
}

} // namespace
} // namespace fabnet
