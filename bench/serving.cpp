/**
 * @file serving.cpp
 * Requests/sec of the batched serving front end vs naive one-at-a-time
 * dispatch, over a mixed-length request stream - the serving analogue
 * of the engine-vs-seed kernel pairs in bench/kernels.cpp. The
 * acceptance gate of the serving PR reads the speedup_vs_serial
 * figures from BENCH_serving.json (written when --json PATH is given).
 *
 * Two models are measured (see docs/BENCHMARKS.md for how to read
 * them):
 *  - transformer: a BERT-style Dense-projection classifier (D=256,
 *    8 heads). Every forward call re-derives the W^T panels from the
 *    mutable weights, so one-at-a-time dispatch pays that fixed cost
 *    per request while batching amortises it across the bucket - the
 *    primary requests/sec win on a single-core box, on top of the
 *    pool-saturation win on multi-core ones.
 *  - fabnet_abfly: the paper's butterfly-projected attention blocks.
 *    Butterfly layers carry O(n log n) weights and no per-call weight
 *    prep, so single-core batching is roughly throughput-neutral and
 *    the batched win comes from thread-pool saturation (more rows per
 *    parallelFor region) as cores are added.
 *
 * The request stream is short-text classification traffic (4..32
 * tokens, granularity-8 buckets): the high-QPS regime where request
 * batching is decisive in practice.
 *
 * Each `batched_N` case runs the ragged path that skips padded rows
 * end to end (`rows_skipped` counts them). Two padding figures are
 * reported per case: `pad_overhead` vs the bucket
 * length every row is padded to, and `pad_overhead_batch` vs the
 * actual flushed batch composition (rows padded only to their batch's
 * longest member) - the former includes bucket-quantisation waste the
 * batcher, not the model, is responsible for.
 *
 * Usage:  bench_serving [--json PATH] [--requests N]
 * Env:    FABNET_NUM_THREADS  thread-pool size for both sides
 */
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "data/lra.h"
#include "model/builder.h"
#include "model/generator.h"
#include "nn/embedding.h"
#include "runtime/isa.h"
#include "runtime/parallel.h"
#include "serve/generation.h"
#include "serve/serving.h"
#include "tensor/rng.h"

using namespace fabnet;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Mixed-length short-request stream over [min_len, max_len]. */
std::vector<std::vector<int>>
makeStream(std::size_t count, std::size_t min_len, std::size_t max_len,
           std::size_t vocab, Rng &rng)
{
    std::vector<std::vector<int>> reqs;
    reqs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t len = static_cast<std::size_t>(rng.randint(
            static_cast<int>(min_len), static_cast<int>(max_len)));
        std::vector<int> toks(len);
        for (int &t : toks)
            t = rng.randint(1, static_cast<int>(vocab) - 1);
        reqs.push_back(std::move(toks));
    }
    return reqs;
}

/** Naive baseline: one unpadded forward per request, in order. */
double
runSerial(SequenceClassifier &model,
          const std::vector<std::vector<int>> &reqs)
{
    const auto t0 = Clock::now();
    for (const auto &r : reqs) {
        Tensor logits = model.forward(r, 1, r.size());
        asm volatile("" ::"r"(logits.data()) : "memory");
    }
    return secondsSince(t0);
}

struct CaseResult
{
    std::string name;
    double seconds = 0.0;
    double req_per_sec = 0.0;
    double speedup = 1.0;
    double avg_batch = 1.0;
    /** Padding fraction vs the BUCKET length rows are padded to. */
    double pad_overhead = 0.0;
    /** Padding fraction vs the actual flushed batch composition
     *  (rows padded only to their batch's longest member) - the true
     *  baseline the ragged win is measured against; the bucket figure
     *  above also counts quantisation waste shared by every row of a
     *  batch. */
    double pad_overhead_batch = 0.0;
    /** Padded activation rows ragged execution skipped. */
    std::size_t rows_skipped = 0;
};

CaseResult
runBatched(SequenceClassifier &model,
           const std::vector<std::vector<int>> &reqs,
           std::size_t max_batch)
{
    serve::ServingConfig sc;
    sc.max_batch = max_batch;
    sc.bucket_granularity = 8;
    // The stream is submitted up front; rely on full/drain flushes so
    // the measurement captures batching, not timer waits.
    sc.max_wait = std::chrono::milliseconds(50);
    serve::ServingEngine engine(model, sc);

    const auto t0 = Clock::now();
    auto out = engine.serveAll(reqs);
    CaseResult r;
    r.seconds = secondsSince(t0);
    asm volatile("" ::"r"(out.data()) : "memory");
    const auto st = engine.stats();
    r.name = "batched_" + std::to_string(max_batch);
    r.req_per_sec = static_cast<double>(reqs.size()) / r.seconds;
    r.avg_batch = st.avgBatch();
    r.pad_overhead = st.padOverhead();
    r.pad_overhead_batch = st.padOverheadBatch();
    r.rows_skipped = st.rows_skipped;
    return r;
}

std::vector<CaseResult>
runModel(const char *label, const ModelConfig &cfg,
         const std::vector<std::vector<int>> &reqs)
{
    Rng rng(42);
    auto model = buildModel(cfg, rng);

    bench::rule();
    std::printf("model %s: %s\n", label, cfg.describe().c_str());

    // Warmup: thread pool spin-up and workspace growth for every batch
    // size the timed cases will run. Batched warmups use the FULL
    // request set: group row counts depend on how many requests share
    // a bucket, so a truncated warmup would form smaller groups and
    // leave workspace growth inside a measured scenario.
    {
        const std::size_t n_warm =
            std::min<std::size_t>(8, reqs.size());
        const std::vector<std::vector<int>> warm(
            reqs.begin(), reqs.begin() + n_warm);
        runSerial(*model, warm);
        for (std::size_t max_batch : {8u, 16u, 32u})
            runBatched(*model, reqs, max_batch);
    }

    CaseResult serial;
    serial.name = "one_at_a_time";
    serial.seconds = runSerial(*model, reqs);
    serial.req_per_sec =
        static_cast<double>(reqs.size()) / serial.seconds;

    std::vector<CaseResult> cases = {serial};
    for (std::size_t max_batch : {8u, 16u, 32u}) {
        CaseResult r = runBatched(*model, reqs, max_batch);
        r.speedup = r.req_per_sec / serial.req_per_sec;
        cases.push_back(r);
    }

    std::printf("%-20s %10s %12s %9s %10s %8s %8s %9s\n", "case",
                "sec", "req/s", "speedup", "avg batch", "bpad %",
                "tpad %", "skipped");
    for (const auto &c : cases)
        std::printf("%-20s %10.3f %12.1f %8.2fx %10.2f %7.1f%% "
                    "%7.1f%% %9zu\n",
                    c.name.c_str(), c.seconds, c.req_per_sec, c.speedup,
                    c.avg_batch, 100.0 * c.pad_overhead,
                    100.0 * c.pad_overhead_batch, c.rows_skipped);

    for (auto &c : cases)
        c.name = std::string(label) + "_" + c.name;
    return cases;
}

// ------------------------------------------------- overload scenario
// Poisson arrivals at 2x the engine's measured batched capacity - the
// regime the reliability layer (serve/error.h, bounded admission +
// DropExpiredFirst shedding, per-request deadlines) exists for. Two
// configurations serve the identical arrival process:
//   - bounded_shed: queue capped, shed policy DropExpiredFirst, every
//     request carrying deadline = 2x the unloaded p99. Mid-batch
//     expiry discards late results, so every FULFILLED future met its
//     deadline: the accepted-latency p99 stays within 2x unloaded by
//     construction, and the bench records the margin actually achieved
//     while goodput stays near capacity.
//   - unbounded_baseline: no caps, no deadlines (the pre-reliability
//     engine). Nothing is refused, so the queue grows with the excess
//     offered load and the accepted p99 degrades toward the full run
//     length - the failure mode bounded admission removes.

/** p-th percentile (0 < p <= 1) of a sample, by sorting. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t idx = static_cast<std::size_t>(
        std::min<double>(v.size() - 1.0,
                         std::ceil(p * static_cast<double>(v.size())) - 1.0));
    return v[idx];
}

struct OverloadResult
{
    std::string name;
    double offered_rps = 0.0;
    double goodput_rps = 0.0;     ///< fulfilled futures / wall time
    double p99_accepted_ms = 0.0; ///< p99 latency of FULFILLED requests
    double shed_rate = 0.0;       ///< (rejected+shed+expired) / offered
    std::size_t offered = 0, completed = 0, rejected = 0, shed = 0,
                expired = 0;
};

/** Closed-loop (one in flight) submit/wait over the stream: the
 *  per-request latency distribution of an idle engine, and nothing
 *  else - the baseline the overload deadline budget is derived from. */
double
unloadedP99Ms(SequenceClassifier &model,
              const std::vector<std::vector<int>> &reqs,
              const serve::ServingConfig &sc)
{
    serve::ServingEngine engine(model, sc);
    std::vector<double> ms;
    ms.reserve(reqs.size());
    for (const auto &r : reqs) {
        const auto t0 = Clock::now();
        auto fut = engine.submit(r);
        fut.wait();
        ms.push_back(1e3 * secondsSince(t0));
        (void)fut.get();
    }
    return percentile(std::move(ms), 0.99);
}

OverloadResult
runOverload(SequenceClassifier &model,
            const std::vector<std::vector<int>> &reqs, double rate_rps,
            const serve::ServingConfig &base, bool bounded,
            double deadline_budget_ms, std::size_t queue_cap)
{
    serve::ServingConfig sc = base;
    if (bounded) {
        sc.max_queue_requests = queue_cap;
        sc.shed_policy = serve::ShedPolicy::DropExpiredFirst;
    }
    serve::ServingEngine engine(model, sc);

    struct Slot
    {
        std::future<std::vector<float>> fut;
        Clock::time_point t_submit{};
        Clock::time_point t_done{};
        bool admitted = false;
    };
    std::vector<Slot> slots(reqs.size());
    std::atomic<std::size_t> n_submitted{0};

    // Polling waiter: scan every outstanding future with wait_for(0)
    // and stamp the ready ones, so a slow bucket can never inflate the
    // recorded completion time of a fast one (an in-order fut.wait()
    // walk would charge head-of-line blocking to innocent requests).
    // Stamp resolution is the 100us poll period - noise, next to the
    // millisecond-scale latencies being measured.
    std::thread waiter([&] {
        std::vector<std::size_t> open;
        std::size_t next = 0;
        for (;;) {
            const std::size_t n =
                n_submitted.load(std::memory_order_acquire);
            for (; next < n; ++next)
                if (slots[next].admitted)
                    open.push_back(next);
            for (std::size_t k = 0; k < open.size();) {
                Slot &s = slots[open[k]];
                if (s.fut.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready) {
                    s.t_done = Clock::now();
                    open[k] = open.back();
                    open.pop_back();
                } else {
                    ++k;
                }
            }
            if (next == slots.size() && open.empty())
                break;
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    });

    // Open-loop Poisson submitter: exponential inter-arrival gaps at
    // the target rate, independent of how the engine keeps up (that
    // independence IS the overload).
    std::mt19937 gen(12345);
    std::exponential_distribution<double> gap(rate_rps);
    const auto t0 = Clock::now();
    double t_next = 0.0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        t_next += gap(gen);
        const auto due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(t_next));
        std::this_thread::sleep_until(due);
        try {
            slots[i].fut =
                bounded ? engine.submit(
                              reqs[i],
                              serve::deadlineAfter(
                                  std::chrono::duration<double, std::milli>(
                                      deadline_budget_ms)))
                        : engine.submit(reqs[i]);
            slots[i].admitted = true;
        } catch (const serve::Error &) {
            slots[i].admitted = false; // QueueFull (counted in stats)
        }
        slots[i].t_submit = Clock::now();
        n_submitted.store(i + 1, std::memory_order_release);
    }
    waiter.join();

    OverloadResult r;
    r.name = bounded ? "bounded_shed" : "unbounded_baseline";
    r.offered = reqs.size();
    r.offered_rps = rate_rps;
    std::vector<double> accepted_ms;
    auto t_end = t0;
    for (auto &s : slots) {
        if (!s.admitted)
            continue;
        t_end = std::max(t_end, s.t_done);
        try {
            (void)s.fut.get();
            ++r.completed;
            accepted_ms.push_back(
                1e3 *
                std::chrono::duration<double>(s.t_done - s.t_submit)
                    .count());
        } catch (const serve::Error &) {
            // DeadlineExceeded (queued or mid-batch) - tallied below
            // from the engine's own counters.
        }
    }
    const auto st = engine.stats();
    r.rejected = st.rejected;
    r.shed = st.shed;
    r.expired = st.expired_in_queue + st.expired_mid_batch;
    r.p99_accepted_ms = percentile(std::move(accepted_ms), 0.99);
    const double span =
        std::chrono::duration<double>(t_end - t0).count();
    r.goodput_rps =
        span > 0.0 ? static_cast<double>(r.completed) / span : 0.0;
    r.shed_rate = static_cast<double>(r.rejected + r.shed + r.expired) /
                  static_cast<double>(r.offered);
    return r;
}

struct OverloadSection
{
    double capacity_rps = 0.0;
    double unloaded_p99_ms = 0.0;
    double deadline_budget_ms = 0.0;
    std::vector<OverloadResult> configs;
};

OverloadSection
runOverloadScenario(SequenceClassifier &model,
                    const std::vector<std::vector<int>> &reqs)
{
    serve::ServingConfig sc;
    // Smaller batches than the throughput cases above: under a
    // latency deadline the batch IS the floor on response time (a
    // request claimed instantly still waits out its whole batch), so
    // the overload scenario trades a slice of peak throughput for a
    // per-batch service time comfortably inside the deadline budget.
    sc.max_batch = 4;
    sc.bucket_granularity = 8;
    sc.max_wait = std::chrono::microseconds(500);

    OverloadSection sec;
    // Capacity: sustained bulk throughput over the same stream (the
    // rate the Poisson arrivals will double).
    {
        serve::ServingEngine engine(model, sc);
        const auto t0 = Clock::now();
        auto out = engine.serveAll(reqs);
        asm volatile("" ::"r"(out.data()) : "memory");
        sec.capacity_rps =
            static_cast<double>(reqs.size()) / secondsSince(t0);
    }
    sec.unloaded_p99_ms = unloadedP99Ms(model, reqs, sc);
    sec.deadline_budget_ms = 2.0 * sec.unloaded_p99_ms;

    const double rate = 2.0 * sec.capacity_rps;
    // Little's-law queue sizing against the LATENCY budget: of the
    // deadline, one batch service time is burned by the batch already
    // in flight when a request arrives and one by the request's own
    // batch - only the remainder may be spent queueing, and the queue
    // is capped at what capacity can drain in that remainder. The
    // excess load is refused at admission (QueueFull, cheap and
    // immediate) instead of expiring after queueing at the client's
    // expense.
    const double batch_ms = 1e3 * static_cast<double>(sc.max_batch) /
                            sec.capacity_rps;
    const double queue_ms =
        std::max(0.0, sec.deadline_budget_ms - 2.0 * batch_ms);
    const std::size_t queue_cap = std::max<std::size_t>(
        2, static_cast<std::size_t>(sec.capacity_rps * queue_ms / 1e3));
    sec.configs.push_back(runOverload(model, reqs, rate, sc, true,
                                      sec.deadline_budget_ms,
                                      queue_cap));
    sec.configs.push_back(
        runOverload(model, reqs, rate, sc, false, 0.0, 0));

    bench::rule();
    std::printf("overload: Poisson arrivals at 2x capacity "
                "(capacity %.1f req/s, unloaded p99 %.2f ms, "
                "deadline budget %.2f ms)\n",
                sec.capacity_rps, sec.unloaded_p99_ms,
                sec.deadline_budget_ms);
    std::printf("%-20s %12s %12s %14s %9s %18s\n", "config",
                "offered/s", "goodput/s", "p99 accepted", "shed %",
                "rej/shed/expired");
    for (const auto &c : sec.configs)
        std::printf("%-20s %12.1f %12.1f %11.2f ms %8.1f%% "
                    "%6zu/%zu/%zu\n",
                    c.name.c_str(), c.offered_rps, c.goodput_rps,
                    c.p99_accepted_ms, 100.0 * c.shed_rate, c.rejected,
                    c.shed, c.expired);
    return sec;
}

// ----------------------------------------------------- decode scenario
// Streaming autoregressive generation under Poisson prompt arrivals:
// the same arrival process served by two schedulers over the identical
// causal model (greedy decode, so both emit the same tokens):
//   - continuous: the GenerationEngine. Prompts join the live set at
//     the next STEP boundary and finished sequences free their slot
//     immediately, so the step batch stays full and a new arrival's
//     first token is never gated on strangers finishing.
//   - flush_per_batch: static batching (the pre-continuous strawman).
//     Up to max_live arrived prompts are taken together and decoded to
//     COMPLETION before the next group is admitted, so a prompt that
//     arrives just after a flush waits out the whole previous batch.
// Reported per config: sustained tokens/sec (first submit -> last
// token) and the p50/p99 per-token latency, where a token's latency is
// the gap since its sequence's previous event (submit for the first
// token - TTFT - then token-to-token). The continuous win shows up in
// the p99: under static batching the tail is one full batch drain.

struct DecodeResult
{
    std::string name;
    double seconds = 0.0;        ///< first submit -> last token
    double tokens_per_sec = 0.0; ///< generated (decode) tokens only
    double p50_token_ms = 0.0;
    double p99_token_ms = 0.0;
    std::size_t tokens = 0;
    double avg_live = 0.0; ///< mean step batch (continuous only)
};

/** Per-sequence event clock + global gap sample for token latencies. */
struct TokenTimer
{
    std::vector<Clock::time_point> last;
    std::vector<double> gaps_ms;
    std::mutex mu;
    Clock::time_point t_end{};

    explicit TokenTimer(std::size_t n) : last(n)
    {
        gaps_ms.reserve(n * 64);
    }
    void tick(std::size_t seq)
    {
        const auto now = Clock::now();
        std::lock_guard<std::mutex> lk(mu);
        gaps_ms.push_back(
            1e3 * std::chrono::duration<double>(now - last[seq]).count());
        last[seq] = now;
        t_end = std::max(t_end, now);
    }
};

/** Poisson arrival offsets (seconds from t0) at `rate_rps`. */
std::vector<double>
poissonArrivals(std::size_t n, double rate_rps)
{
    std::mt19937 gen(12345);
    std::exponential_distribution<double> gap(rate_rps);
    std::vector<double> at(n);
    double t = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        t += gap(gen);
        at[i] = t;
    }
    return at;
}

DecodeResult
runDecodeContinuous(CausalGenerator &gen,
                    const std::vector<std::vector<int>> &prompts,
                    const std::vector<double> &arrivals,
                    std::size_t max_new, std::size_t max_live)
{
    serve::GenerationConfig gc;
    gc.max_live = max_live;
    serve::GenerationEngine engine(gen, gc);

    TokenTimer timer(prompts.size());
    std::vector<std::future<std::vector<int>>> futs;
    futs.reserve(prompts.size());
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < prompts.size(); ++i) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(arrivals[i])));
        timer.last[i] = Clock::now();
        futs.push_back(engine.submit(
            prompts[i], max_new, serve::kNoDeadline,
            [&timer, i](int) { timer.tick(i); }));
    }
    std::size_t tokens = 0;
    for (auto &f : futs)
        tokens += f.get().size();

    DecodeResult r;
    r.name = "continuous";
    r.seconds = std::chrono::duration<double>(timer.t_end - t0).count();
    r.tokens = tokens;
    r.tokens_per_sec =
        r.seconds > 0.0 ? static_cast<double>(tokens) / r.seconds : 0.0;
    r.p50_token_ms = percentile(timer.gaps_ms, 0.50);
    r.p99_token_ms = percentile(std::move(timer.gaps_ms), 0.99);
    r.avg_live = engine.stats().avgLive();
    return r;
}

DecodeResult
runDecodeStatic(CausalGenerator &gen,
                const std::vector<std::vector<int>> &prompts,
                const std::vector<double> &arrivals, std::size_t max_new,
                std::size_t max_live)
{
    TokenTimer timer(prompts.size());
    const auto t0 = Clock::now();
    std::size_t tokens = 0, next = 0;
    while (next < prompts.size()) {
        // Park until the batch head has arrived, then take everything
        // already arrived (up to max_live) - and nothing that arrives
        // after this instant, however long the batch takes to drain.
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(arrivals[next])));
        const auto now = Clock::now();
        std::vector<std::size_t> batch;
        while (next < prompts.size() && batch.size() < max_live &&
               t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(arrivals[next])) <=
                   now)
            batch.push_back(next++);

        std::vector<std::vector<int>> batch_prompts;
        std::vector<SequenceState> states(batch.size());
        std::vector<SequenceState *> ptrs;
        for (std::size_t k = 0; k < batch.size(); ++k) {
            batch_prompts.push_back(prompts[batch[k]]);
            states[k] = gen.newState();
            ptrs.push_back(&states[k]);
            // First-token latency counts from ARRIVAL (as the
            // continuous runner's does from submit): time parked
            // behind the previous batch's drain is the cost being
            // measured, not hidden.
            timer.last[batch[k]] =
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             arrivals[batch[k]]));
        }
        Tensor logits = gen.prefill(batch_prompts, ptrs);
        std::vector<int> toks = nn::argmaxRows(logits);
        for (std::size_t k = 0; k < batch.size(); ++k)
            timer.tick(batch[k]);
        tokens += batch.size();
        for (std::size_t s = 1; s < max_new; ++s) {
            logits = gen.decodeStep(toks, ptrs);
            toks = nn::argmaxRows(logits);
            for (std::size_t k = 0; k < batch.size(); ++k)
                timer.tick(batch[k]);
            tokens += batch.size();
        }
    }

    DecodeResult r;
    r.name = "flush_per_batch";
    r.seconds = std::chrono::duration<double>(timer.t_end - t0).count();
    r.tokens = tokens;
    r.tokens_per_sec =
        r.seconds > 0.0 ? static_cast<double>(tokens) / r.seconds : 0.0;
    r.p50_token_ms = percentile(timer.gaps_ms, 0.50);
    r.p99_token_ms = percentile(std::move(timer.gaps_ms), 0.99);
    return r;
}

struct DecodeSection
{
    std::string model;
    std::size_t prompts = 0, max_new = 0, max_live = 0;
    double capacity_tokens_per_sec = 0.0;
    double arrival_rps = 0.0;
    std::vector<DecodeResult> configs;
};

DecodeSection
runDecodeScenario(const ModelConfig &cfg, const char *label,
                  std::size_t n_prompts)
{
    Rng rng(42);
    auto gen = buildGenerator(cfg, rng);

    Rng prng(11);
    const auto prompts =
        makeStream(n_prompts, 4, 24, cfg.vocab, prng);
    // Long enough generations that a static batch's drain time is
    // large next to the inter-arrival gap - the regime continuous
    // admission exists for (short drains never park anyone).
    const std::size_t max_new = 48;
    const std::size_t max_live = 8;

    DecodeSection sec;
    sec.model = label;
    sec.prompts = prompts.size();
    sec.max_new = max_new;
    sec.max_live = max_live;

    // Capacity: every prompt submitted at t=0 (the step batch pinned
    // at max_live) - peak sustained decode rate, and the warmup.
    {
        const std::vector<double> zeros(prompts.size(), 0.0);
        DecodeResult peak = runDecodeContinuous(*gen, prompts, zeros,
                                                max_new, max_live);
        sec.capacity_tokens_per_sec = peak.tokens_per_sec;
    }
    // Poisson arrivals at ~80% of capacity: loaded but not saturated,
    // the regime where admission latency (not raw throughput) decides
    // the per-token tail.
    sec.arrival_rps = 0.8 * sec.capacity_tokens_per_sec /
                      static_cast<double>(max_new);
    const auto arrivals = poissonArrivals(prompts.size(), sec.arrival_rps);
    sec.configs.push_back(runDecodeContinuous(*gen, prompts, arrivals,
                                              max_new, max_live));
    sec.configs.push_back(runDecodeStatic(*gen, prompts, arrivals,
                                          max_new, max_live));

    bench::rule();
    std::printf("decode: streaming generation, Poisson prompt arrivals "
                "at %.1f req/s (80%% of %.1f tok/s capacity), "
                "model %s, %zu prompts x %zu tokens, max_live=%zu\n",
                sec.arrival_rps, sec.capacity_tokens_per_sec,
                sec.model.c_str(), sec.prompts, max_new, max_live);
    std::printf("%-20s %10s %12s %14s %14s %10s\n", "config", "sec",
                "tok/s", "p50 token", "p99 token", "avg live");
    for (const auto &c : sec.configs)
        std::printf("%-20s %10.3f %12.1f %11.2f ms %11.2f ms %10.2f\n",
                    c.name.c_str(), c.seconds, c.tokens_per_sec,
                    c.p50_token_ms, c.p99_token_ms, c.avg_live);
    return sec;
}

// ------------------------------------------- long-context frontier
// The accuracy-vs-speed frontier of approximate attention at LRA
// lengths (seq 1k/2k/4k): every variant is built from the SAME seed as
// the exact anchor (setSparse draws nothing from the rng, so the
// weights are identical) and serves the SAME near-full-length request
// stream, so the logit deltas and label disagreements are pure
// attention-approximation error and the time ratio is the pure
// selection win. Points per scenario: exact, topk k in {16,32,64},
// butterfly, butterfly+topk (the k sweep x sequence length grid the
// approx-attention PR's acceptance gate reads from the JSON).

struct FrontierPoint
{
    std::string name; ///< SparseAttentionConfig::describe()
    double ms_per_request = 0.0;
    double speedup_vs_exact = 1.0;
    /** Fraction of requests whose argmax label matches the exact
     *  anchor's on the same weights and inputs. */
    double agreement_vs_exact = 1.0;
    double mean_abs_logit_diff = 0.0;
};

struct LongContextSection
{
    std::string task;
    std::size_t seq = 0, requests = 0;
    std::vector<FrontierPoint> points;
};

std::vector<int>
argmaxLabels(const std::vector<std::vector<float>> &logits)
{
    std::vector<int> out;
    out.reserve(logits.size());
    for (const auto &row : logits)
        out.push_back(static_cast<int>(
            std::max_element(row.begin(), row.end()) - row.begin()));
    return out;
}

LongContextSection
runLongContext(const data::LongRangeScenario &sc, std::size_t n_reqs)
{
    std::vector<ModelConfig> cfgs = {sc.exact};
    for (std::size_t k : {std::size_t(16), std::size_t(32),
                          std::size_t(64)})
        cfgs.push_back(data::longContextConfig(
            sc.task, sc.seq, {nn::SparseKind::TopK, k}));
    cfgs.push_back(sc.butterfly);
    cfgs.push_back(sc.butterfly_topk);

    // Near-full-length mixed stream: the quadratic worst case the
    // frontier is about, with enough spread to keep serving ragged.
    Rng rrng(31);
    const auto reqs = makeStream(n_reqs, sc.seq - sc.seq / 4, sc.seq,
                                 cfgs.front().vocab, rrng);

    LongContextSection sec;
    sec.task = sc.task;
    sec.seq = sc.seq;
    sec.requests = reqs.size();

    std::vector<int> exact_labels;
    std::vector<std::vector<float>> exact_logits;
    for (const auto &cfg : cfgs) {
        Rng rng(23);
        auto model = buildModel(cfg, rng);
        serve::ServingEngine engine(*model);
        // Warmup with the full stream, so pool spin-up and workspace
        // growth for the timed run's batch shapes happen here.
        auto out = engine.serveAll(reqs);
        const auto t0 = Clock::now();
        out = engine.serveAll(reqs);
        const double sec_run = secondsSince(t0);
        asm volatile("" ::"r"(out.data()) : "memory");

        FrontierPoint p;
        p.name = cfg.attn_sparse.describe();
        p.ms_per_request =
            1e3 * sec_run / static_cast<double>(reqs.size());
        if (sec.points.empty()) { // the exact anchor runs first
            exact_labels = argmaxLabels(out);
            exact_logits = out;
        } else {
            p.speedup_vs_exact =
                sec.points.front().ms_per_request / p.ms_per_request;
            const std::vector<int> labels = argmaxLabels(out);
            std::size_t agree = 0;
            double diff = 0.0;
            std::size_t count = 0;
            for (std::size_t i = 0; i < out.size(); ++i) {
                agree += labels[i] == exact_labels[i];
                for (std::size_t j = 0; j < out[i].size(); ++j)
                    diff += std::fabs(out[i][j] - exact_logits[i][j]);
                count += out[i].size();
            }
            p.agreement_vs_exact = static_cast<double>(agree) /
                                   static_cast<double>(out.size());
            p.mean_abs_logit_diff =
                count ? diff / static_cast<double>(count) : 0.0;
        }
        sec.points.push_back(std::move(p));
    }

    bench::rule();
    std::printf("long_context %s @ seq %zu: %zu requests, lengths "
                "%zu..%zu\n",
                sec.task.c_str(), sec.seq, sec.requests,
                sc.seq - sc.seq / 4, sc.seq);
    std::printf("%-20s %14s %9s %11s %16s\n", "attention", "ms/request",
                "speedup", "agreement", "mean |dlogit|");
    for (const auto &p : sec.points)
        std::printf("%-20s %14.2f %8.2fx %10.2f%% %16.5f\n",
                    p.name.c_str(), p.ms_per_request, p.speedup_vs_exact,
                    100.0 * p.agreement_vs_exact, p.mean_abs_logit_diff);
    return sec;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    std::size_t n_requests = 256;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc)
            n_requests = static_cast<std::size_t>(std::atol(argv[++i]));
    }
    if (n_requests == 0)
        n_requests = 1;

    ModelConfig tfm;
    tfm.kind = ModelKind::Transformer;
    tfm.vocab = 256;
    tfm.max_seq = 64;
    tfm.d_hid = 256;
    tfm.r_ffn = 4;
    tfm.n_total = 2;
    tfm.heads = 8;
    tfm.classes = 10;

    ModelConfig fab = tfm;
    fab.kind = ModelKind::FABNet;
    fab.n_abfly = fab.n_total; // all-ABfly: butterfly attention blocks

    Rng stream_rng(7);
    const auto reqs =
        makeStream(n_requests, 4, 32, tfm.vocab, stream_rng);

    bench::header("Serving throughput: batched front end vs "
                  "one-at-a-time dispatch");
    std::printf("threads=%zu requests=%zu mixed lengths 4..32 "
                "(granularity-8 buckets)\n",
                runtime::numThreads(), reqs.size());

    std::vector<CaseResult> cases = runModel("transformer", tfm, reqs);
    const std::vector<CaseResult> fab_cases =
        runModel("fabnet_abfly", fab, reqs);
    cases.insert(cases.end(), fab_cases.begin(), fab_cases.end());

    // Overload behaviour of the reliability layer, on the transformer
    // (the model whose per-call weight prep makes overload sharpest).
    OverloadSection overload;
    {
        Rng orng(42);
        auto model = buildModel(tfm, orng);
        overload = runOverloadScenario(*model, reqs);
    }

    // Streaming decode on the causal butterfly model (the paper's
    // attention blocks driving an autoregressive LM head).
    ModelConfig dec = fab;
    dec.causal = true;
    dec.max_seq = 96; // room for the longest prompt + 48 new tokens
    const DecodeSection decode =
        runDecodeScenario(dec, "fabnet_abfly_causal",
                          std::min<std::size_t>(32, n_requests));

    // The long-context accuracy-vs-speed frontier (approximate
    // attention at LRA lengths 1k/2k/4k). Few requests per scenario:
    // the exact anchor is quadratic in seq and each point is served
    // twice (warmup + timed).
    std::vector<LongContextSection> longctx;
    for (const auto &sc : data::longRangeScenarios())
        longctx.push_back(runLongContext(sc, 3));

    if (!json_path.empty()) {
        FILE *f = std::fopen(json_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
            return 1;
        }
        // Execution identity (docs/BENCHMARKS.md): which dispatch
        // level ran, on what CPU, and whether the build specialised
        // for the build box.
        std::fprintf(f,
                     "{\n  \"bench\": \"serving\",\n"
                     "  \"isa\": \"%s\",\n"
                     "  \"cpu_signature\": \"%s\",\n"
#ifdef FABNET_BUILT_NATIVE
                     "  \"march_native\": true,\n"
#else
                     "  \"march_native\": false,\n"
#endif
                     "  \"threads\": %zu,\n  \"requests\": %zu,\n"
                     "  \"lengths\": \"4..32\",\n  \"cases\": [\n",
                     runtime::isa(), runtime::cpuSignature().c_str(),
                     runtime::numThreads(), reqs.size());
        for (std::size_t i = 0; i < cases.size(); ++i) {
            const auto &c = cases[i];
            std::fprintf(
                f,
                "    {\"name\": \"%s\", \"seconds\": %.6f, "
                "\"requests_per_sec\": %.2f, \"speedup_vs_serial\": "
                "%.3f, \"avg_batch\": %.3f, \"pad_overhead\": %.4f, "
                "\"pad_overhead_batch\": %.4f, \"rows_skipped\": %zu}%s\n",
                c.name.c_str(), c.seconds, c.req_per_sec, c.speedup,
                c.avg_batch, c.pad_overhead, c.pad_overhead_batch,
                c.rows_skipped, i + 1 < cases.size() ? "," : "");
        }
        std::fprintf(f,
                     "  ],\n  \"overload\": {\n"
                     "    \"model\": \"transformer\",\n"
                     "    \"capacity_rps\": %.2f,\n"
                     "    \"offered_rps\": %.2f,\n"
                     "    \"unloaded_p99_ms\": %.4f,\n"
                     "    \"deadline_budget_ms\": %.4f,\n"
                     "    \"configs\": [\n",
                     overload.capacity_rps, 2.0 * overload.capacity_rps,
                     overload.unloaded_p99_ms,
                     overload.deadline_budget_ms);
        for (std::size_t i = 0; i < overload.configs.size(); ++i) {
            const auto &c = overload.configs[i];
            std::fprintf(
                f,
                "      {\"name\": \"%s\", \"goodput_rps\": %.2f, "
                "\"p99_accepted_ms\": %.4f, \"shed_rate\": %.4f, "
                "\"offered\": %zu, \"completed\": %zu, "
                "\"rejected\": %zu, \"shed\": %zu, \"expired\": %zu}%s\n",
                c.name.c_str(), c.goodput_rps, c.p99_accepted_ms,
                c.shed_rate, c.offered, c.completed, c.rejected, c.shed,
                c.expired,
                i + 1 < overload.configs.size() ? "," : "");
        }
        std::fprintf(f, "    ]\n  },\n");
        std::fprintf(f,
                     "  \"decode\": {\n"
                     "    \"model\": \"%s\",\n"
                     "    \"prompts\": %zu,\n"
                     "    \"max_new_tokens\": %zu,\n"
                     "    \"max_live\": %zu,\n"
                     "    \"capacity_tokens_per_sec\": %.2f,\n"
                     "    \"arrival_rps\": %.2f,\n"
                     "    \"configs\": [\n",
                     decode.model.c_str(), decode.prompts,
                     decode.max_new, decode.max_live,
                     decode.capacity_tokens_per_sec, decode.arrival_rps);
        for (std::size_t i = 0; i < decode.configs.size(); ++i) {
            const auto &c = decode.configs[i];
            std::fprintf(
                f,
                "      {\"name\": \"%s\", \"seconds\": %.6f, "
                "\"tokens_per_sec\": %.2f, \"p50_token_ms\": %.4f, "
                "\"p99_token_ms\": %.4f, \"tokens\": %zu, "
                "\"avg_live\": %.3f}%s\n",
                c.name.c_str(), c.seconds, c.tokens_per_sec,
                c.p50_token_ms, c.p99_token_ms, c.tokens, c.avg_live,
                i + 1 < decode.configs.size() ? "," : "");
        }
        std::fprintf(f, "    ]\n  },\n  \"long_context\": [\n");
        for (std::size_t s = 0; s < longctx.size(); ++s) {
            const auto &sec = longctx[s];
            std::fprintf(f,
                         "    {\"task\": \"%s\", \"seq\": %zu, "
                         "\"requests\": %zu, \"points\": [\n",
                         sec.task.c_str(), sec.seq, sec.requests);
            for (std::size_t i = 0; i < sec.points.size(); ++i) {
                const auto &p = sec.points[i];
                std::fprintf(
                    f,
                    "      {\"attention\": \"%s\", "
                    "\"ms_per_request\": %.4f, "
                    "\"speedup_vs_exact\": %.3f, "
                    "\"agreement_vs_exact\": %.4f, "
                    "\"mean_abs_logit_diff\": %.6f}%s\n",
                    p.name.c_str(), p.ms_per_request, p.speedup_vs_exact,
                    p.agreement_vs_exact, p.mean_abs_logit_diff,
                    i + 1 < sec.points.size() ? "," : "");
            }
            std::fprintf(f, "    ]}%s\n",
                         s + 1 < longctx.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("Wrote %s\n", json_path.c_str());
    }
    return 0;
}
