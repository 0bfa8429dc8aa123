/**
 * @file perfbench.cpp
 * Closed-loop serving benchmark over the public engine API.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--setup-only] [--spans FILE]
 *
 * One process drives one engine from one load thread, and load thread
 * + engine thread + kernel pool stay within 4 cores. Workloads (see
 * perfbench/README.md for the rationale):
 *  - classify_short: int8 all-ABfly FABNet classifier (D=256, 8 heads,
 *    2 blocks) behind the default ServingConfig, 4 streams of 4-32
 *    token requests, a pool of 1.
 *  - decode_stream: fp32 causal FABNet-ABfly behind the default
 *    GenerationConfig, 4 streams of 4-24 token prompts, 16-64 tokens
 *    out per request, EOS off, a pool of 1.
 *  - long_context: exact-attention LRA Transformer (ListOps @ 2048)
 *    behind the default ServingConfig, one 1536-2048 token document
 *    in flight, a pool of 2.
 * Model weights are fixed; --seed draws the traffic. Every stream
 * sends its next request when the previous one returns. Outputs are
 * checked against serial inference after the timed window. With
 * --trace 1 the model is assembled with timing wrappers (trace.h) and
 * the per-layer split is reported as well.
 *
 * Output: a {"stamp": ...} line with the execution identity, then one
 * JSON result line. --setup-only stops after set-up and reports only
 * setup_s; --spans writes a traced run's spans to FILE as CSV.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/lra.h"
#include "model/builder.h"
#include "model/generator.h"
#include "model/quantized.h"
#include "nn/embedding.h"
#include "runtime/autotune.h"
#include "runtime/isa.h"
#include "runtime/parallel.h"
#include "serve/generation.h"
#include "serve/serving.h"
#include "stats.h"
#include "trace.h"

namespace {

using namespace fabnet;
using perfbench::Ns;
using perfbench::nowNs;

constexpr std::uint64_t kModelSeed = 42;
/** Warmup traffic is the same for every --seed, so setup_s measures a
 *  fixed amount of work. */
constexpr std::uint64_t kWarmupSeed = 7;
/** Conservation tolerance per invocation: 1 us of timer resolution
 *  (span arithmetic is in integer ns, so a well-formed tree conserves
 *  exactly). */
constexpr Ns kConservationTolNs = 1000;

const Ns g_main_start = nowNs();

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool setup_only = false;
    std::string spans; ///< traced runs: write every span here (CSV)
};

std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** One request as generated: tokens and (decode) output length. */
struct Request
{
    std::vector<int> tokens;
    std::size_t max_new = 0;
};

/** Per-stream traffic: a stream's requests depend only on the seed,
 *  the phase (warmup / timed) and the stream index. */
class Traffic
{
  public:
    struct Shape
    {
        int len_lo, len_hi; ///< request length range (inclusive)
        int vocab;
        int new_lo = 0, new_hi = 0; ///< decode output length range
    };
    Traffic(std::uint64_t seed, int phase, std::size_t stream, Shape shape)
        : rng_(mix(mix(seed) ^ mix(static_cast<std::uint64_t>(phase) << 8 |
                                   stream))),
          shape_(shape)
    {
    }
    Request next()
    {
        Request r;
        r.tokens.resize(static_cast<std::size_t>(
            rng_.randint(shape_.len_lo, shape_.len_hi)));
        for (int &t : r.tokens)
            t = rng_.randint(1, shape_.vocab - 1);
        if (shape_.new_hi > 0)
            r.max_new = static_cast<std::size_t>(
                rng_.randint(shape_.new_lo, shape_.new_hi));
        return r;
    }

  private:
    Rng rng_;
    Shape shape_;
};

/** One finished request. */
struct Done
{
    std::size_t stream = 0;
    Request req;
    bool ok = false;
    std::string error;
    std::vector<float> logits; ///< classifiers
    std::vector<int> out;      ///< generators
    std::vector<Ns> token_times;
    Ns submit = 0, done = 0;
};

// ------------------------------------------------------ load loops

/** When a load loop stops sending: after @c max requests, once the
 *  clock passes @c soft_stop with at least @c min requests sent, or at
 *  @c hard_stop. */
struct Budget
{
    std::size_t max = std::numeric_limits<std::size_t>::max();
    std::size_t min = 0;
    Ns soft_stop = std::numeric_limits<Ns>::max();
    Ns hard_stop = std::numeric_limits<Ns>::max();

    bool spent(std::size_t sent) const
    {
        const Ns now = nowNs();
        return sent >= max || now >= hard_stop ||
               (now >= soft_stop && sent >= min);
    }
};

/** A fixed number of requests (warmup). */
Budget
requests(std::size_t n)
{
    Budget b;
    b.max = n;
    return b;
}

/**
 * The timed window: sends for --seconds, and past that only until the
 * window holds the samples the p90 latency needs (ten beyond it, so
 * 100), for at most as long again. Only a document-at-a-time workload
 * on a slow host gets near that floor.
 */
Budget
seconds(double s)
{
    Budget b;
    const Ns t = nowNs();
    const Ns len = static_cast<Ns>(s * 1e9);
    b.min = perfbench::kMinBeyond * 100 / (100 - 90);
    b.soft_stop = t + len;
    b.hard_stop = t + 2 * len;
    return b;
}

/**
 * Closed loop over a ServingEngine: each stream submits its next
 * request once the previous one returned, until @p budget is spent;
 * then drains.
 */
std::vector<Done>
serveLoop(serve::ServingEngine &eng, std::vector<Traffic> &streams,
          const Budget &budget)
{
    struct Slot
    {
        bool busy = false;
        Request req;
        Ns submit = 0;
        std::future<std::vector<float>> fut;
    };
    std::vector<Slot> slots(streams.size());
    std::vector<Done> done;
    std::size_t submitted = 0;
    auto finish = [&](std::size_t i, Done d) {
        d.stream = i;
        d.req = std::move(slots[i].req);
        d.submit = slots[i].submit;
        done.push_back(std::move(d));
        slots[i].busy = false;
    };
    auto refill = [&] {
        for (std::size_t i = 0; i < slots.size(); ++i) {
            Slot &s = slots[i];
            if (s.busy || budget.spent(submitted))
                continue;
            s.req = streams[i].next();
            ++submitted;
            s.submit = nowNs();
            try {
                s.fut = eng.submit(s.req.tokens);
                s.busy = true;
            } catch (const std::exception &e) {
                Done d;
                d.error = e.what();
                d.done = nowNs();
                s.busy = true;
                finish(i, std::move(d));
            }
        }
    };
    refill();
    for (;;) {
        std::size_t earliest = slots.size(), busy = 0;
        for (std::size_t i = 0; i < slots.size(); ++i)
            if (slots[i].busy) {
                ++busy;
                if (earliest == slots.size() ||
                    slots[i].submit < slots[earliest].submit)
                    earliest = i;
            }
        if (busy == 0)
            break;
        // The engine dispatches the bucket with the oldest head first,
        // so the earliest submitted request is the next to complete;
        // its batch mates are picked up by the sweep (or, if their
        // promise is set a moment later, by the next wait, which then
        // returns at once). No completion callback, no polling.
        slots[earliest].fut.wait();
        const Ns t = nowNs();
        for (std::size_t i = 0; i < slots.size(); ++i) {
            if (!slots[i].busy ||
                slots[i].fut.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready)
                continue;
            Done d;
            d.done = t;
            try {
                d.logits = slots[i].fut.get();
                d.ok = true;
            } catch (const std::exception &e) {
                d.error = e.what();
            }
            finish(i, std::move(d));
        }
        refill();
    }
    return done;
}

/** Closed loop over a GenerationEngine; token times are stamped in the
 *  streaming callback, completion when the future is ready. */
std::vector<Done>
generateLoop(serve::GenerationEngine &eng, std::vector<Traffic> &streams,
             const Budget &budget)
{
    struct Slot
    {
        bool busy = false;
        Request req;
        Ns submit = 0;
        std::vector<Ns> times; ///< written by the engine's callback
        std::future<std::vector<int>> fut;
    };
    std::vector<Slot> slots(streams.size());
    std::mutex mu;
    std::condition_variable cv;
    std::vector<char> finished(streams.size(), 0); // guarded by mu
    std::vector<Done> done;
    std::size_t submitted = 0;

    auto refill = [&] {
        for (std::size_t i = 0; i < slots.size(); ++i) {
            Slot &s = slots[i];
            if (s.busy || budget.spent(submitted))
                continue;
            s.req = streams[i].next();
            s.times.clear();
            s.times.reserve(s.req.max_new);
            ++submitted;
            s.submit = nowNs();
            s.busy = true;
            try {
                s.fut = eng.submit(
                    s.req.tokens, s.req.max_new, serve::kNoDeadline,
                    [&slots, &mu, &cv, &finished, i](int) {
                        Slot &sl = slots[i];
                        sl.times.push_back(nowNs());
                        if (sl.times.size() == sl.req.max_new) {
                            std::lock_guard<std::mutex> lk(mu);
                            finished[i] = 1;
                            cv.notify_one();
                        }
                    });
            } catch (...) {
                std::promise<std::vector<int>> p;
                p.set_exception(std::current_exception());
                s.fut = p.get_future();
            }
        }
    };
    refill();
    for (;;) {
        bool any_busy = false;
        for (const Slot &s : slots)
            any_busy = any_busy || s.busy;
        if (!any_busy)
            break;
        std::vector<char> last_token;
        {
            std::unique_lock<std::mutex> lk(mu);
            cv.wait_for(lk, std::chrono::milliseconds(20), [&] {
                return std::find(finished.begin(), finished.end(), 1) !=
                       finished.end();
            });
            last_token = finished;
            std::fill(finished.begin(), finished.end(), 0);
        }
        for (std::size_t i = 0; i < slots.size(); ++i) {
            Slot &s = slots[i];
            if (!s.busy)
                continue;
            // A failed request never streams its last token: its future
            // is ready without the flag, so poll it as well. The token
            // times are read only after get(): the engine runs every
            // callback before it resolves the future.
            if (!last_token[i] &&
                s.fut.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready)
                continue;
            Done d;
            try {
                d.out = s.fut.get();
                d.ok = true;
            } catch (const std::exception &e) {
                d.error = e.what();
            }
            d.done = nowNs();
            d.stream = i;
            d.submit = s.submit;
            d.token_times = std::move(s.times);
            d.req = std::move(s.req);
            done.push_back(std::move(d));
            s.busy = false;
        }
        refill();
    }
    return done;
}

// ------------------------------------------------- process counters

struct Usage
{
    double user_s = 0, sys_s = 0;
    long minflt = 0, maxrss_kb = 0;
};

Usage
usage()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
    u.minflt = ru.ru_minflt;
    u.maxrss_kb = ru.ru_maxrss;
    return u;
}

/** Aggregate jiffies from /proc/stat: {steal, total}; zeros when the
 *  file is unavailable. */
std::pair<double, double>
cpuJiffies()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    double v = 0, total = 0, steal = 0;
    for (int i = 0; i < 8 && (in >> v); ++i) {
        total += v;
        if (i == 7)
            steal = v;
    }
    return {steal, total};
}

// ------------------------------------------------------------ JSON

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quote(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            o += c;
    }
    return o + "\"";
}

using Metrics = std::map<std::string, double>;

std::string
metricsJson(const Metrics &m)
{
    std::string o = "{";
    for (const auto &[k, v] : m)
        o += (o.size() > 1 ? ", " : "") + quote(k) + ": " + num(v);
    return o + "}";
}

double
msOf(Ns ns)
{
    return static_cast<double>(ns) / 1e6;
}

// ------------------------------------------------------ the result

struct Result
{
    double setup_s = 0;
    std::size_t attempted = 0, failed = 0;
    bool correct = true;
    std::vector<std::string> problems;
    Metrics e2e, layers;
    std::string stamp; ///< JSON object body fields
};

void
fail(Result &r, const std::string &why)
{
    r.correct = false;
    if (r.problems.size() < 8)
        r.problems.push_back(why);
}

/** Timed-phase process counters, shared by every workload. */
struct Window
{
    Ns t0 = 0, t1 = 0;
    Usage u0, u1;
    std::pair<double, double> j0, j1;
    /** Autotuner state as the window left it (the checks, run on more
     *  threads, tune shapes of their own afterwards). */
    std::string tuning;
    std::size_t tuned_shapes = 0;

    void begin()
    {
        u0 = usage();
        j0 = cpuJiffies();
        t0 = nowNs();
    }
    void end(const std::vector<Done> &done)
    {
        t1 = t0;
        for (const Done &d : done)
            t1 = std::max(t1, d.done);
        u1 = usage();
        j1 = cpuJiffies();
        tuning = runtime::tuningReport();
        for (std::size_t p = tuning.find("\"family\"");
             p != std::string::npos; p = tuning.find("\"family\"", p + 1))
            ++tuned_shapes;
    }
    double seconds() const { return static_cast<double>(t1 - t0) / 1e9; }
    double stealShare() const
    {
        const double dt = j1.second - j0.second;
        return dt > 0 ? (j1.first - j0.first) / dt : 0.0;
    }
};

/** What the successful requests of a window add up to. */
struct Served
{
    std::size_t requests = 0, tokens = 0;
    double latency_sum_ms = 0;
};

/** End-to-end metrics common to every workload; @p tokens counts the
 *  tokens a request moves (input for classifiers, output for
 *  generators). */
Served
endToEnd(Result &r, const std::vector<Done> &done, const Window &w,
         const std::function<std::size_t(const Done &)> &tokens)
{
    Served s;
    std::vector<double> lat;
    for (const Done &d : done)
        if (d.ok) {
            lat.push_back(msOf(d.done - d.submit));
            s.latency_sum_ms += lat.back();
            s.tokens += tokens(d);
        }
    s.requests = lat.size();
    r.e2e["req_per_s"] = static_cast<double>(s.requests) / w.seconds();
    r.e2e["tokens_per_s"] = static_cast<double>(s.tokens) / w.seconds();
    r.e2e["latency_p50_ms"] = perfbench::percentile(lat, 50);
    r.e2e["latency_p90_ms"] = perfbench::percentile(lat, 90);
    r.e2e["peak_rss_mb"] = static_cast<double>(w.u1.maxrss_kb) / 1024.0;
    return s;
}

/** Per-layer metrics from the process counters (every workload). */
void
runtimeLayers(Result &r, const Window &w, std::size_t requests,
              std::size_t tokens)
{
    const double cpu =
        (w.u1.user_s - w.u0.user_s) + (w.u1.sys_s - w.u0.sys_s);
    const double faults = static_cast<double>(w.u1.minflt - w.u0.minflt);
    const double n = static_cast<double>(std::max<std::size_t>(requests, 1));
    const double t = static_cast<double>(std::max<std::size_t>(tokens, 1));
    r.layers["runtime.cpu_ms_per_req"] = cpu * 1e3 / n;
    r.layers["runtime.cpu_us_per_token"] = cpu * 1e6 / t;
    r.layers["runtime.sys_share"] =
        cpu > 0 ? (w.u1.sys_s - w.u0.sys_s) / cpu : 0.0;
    r.layers["runtime.minor_faults_per_req"] = faults / n;
    r.layers["runtime.minor_faults_per_token"] = faults / t;
    r.layers["runtime.tuned_shapes"] = static_cast<double>(w.tuned_shapes);
    r.layers["env.steal_share"] = w.stealShare();
}

/** What the traced run's spans say about one timed window. */
struct TraceSplit
{
    std::vector<perfbench::InvocationLoad> batch_loads, prefill_loads;
    /** Encoder time per invocation: all; full passes over whole
     *  sequences (classifier batches, decode prefills); decode steps. */
    std::vector<double> encoder_ms, prefill_ms, step_ms;
    double rows = 0;              ///< valid rows over all invocations
    Ns busy = 0, uncovered = 0;
    Ns attn_self = 0, attn_self_step = 0;
    double attn_pairs = 0, step_rows = 0;
    Ns linear = 0; ///< projection and FFN linear spans
    double linear_rows = 0, linear_calls = 0, linear_ops = 0;
    Ns worst_residual = 0;
};

TraceSplit
splitTrace(const perfbench::Tracer &tr)
{
    using perfbench::Entry;
    using perfbench::LayerRole;
    const auto &spans = tr.spans();
    const auto &invs = tr.invocations();
    const auto &paths = tr.paths();
    const std::vector<Ns> self = perfbench::selfTimes(spans);
    const auto it = perfbench::invocationTimes(spans, self, invs.size());

    TraceSplit s;
    for (std::size_t v = 0; v < invs.size(); ++v) {
        const Ns win = it[v].window;
        s.encoder_ms.push_back(msOf(win));
        s.busy += win;
        s.uncovered += it[v].uncovered;
        s.rows += invs[v].rows;
        s.worst_residual =
            std::max(s.worst_residual, std::abs(it[v].residual()));
        const perfbench::InvocationLoad load{
            static_cast<std::size_t>(invs[v].seqs), win};
        if (invs[v].entry == Entry::Step) {
            s.step_ms.push_back(msOf(win));
            s.step_rows += invs[v].rows;
            continue;
        }
        s.prefill_ms.push_back(msOf(win));
        (invs[v].entry == Entry::Prefill ? s.prefill_loads : s.batch_loads)
            .push_back(load);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const perfbench::Span &sp = spans[i];
        const perfbench::PathInfo &p =
            paths.at(static_cast<std::size_t>(sp.path));
        if (p.role == LayerRole::Mixer) {
            s.attn_self += self[i];
            s.attn_pairs += sp.pairs;
            if (sp.invocation >= 0 &&
                invs[static_cast<std::size_t>(sp.invocation)].entry ==
                    Entry::Step)
                s.attn_self_step += self[i];
        }
        if (p.role == LayerRole::Projection ||
            p.role == LayerRole::FfnLinear) {
            s.linear += sp.end - sp.start;
            s.linear_rows += sp.rows;
            s.linear_calls += 1;
            s.linear_ops += p.ops_per_row * sp.rows;
        }
    }
    return s;
}

double
p50OrZero(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : perfbench::percentile(v, 50);
}

/** Write every span of the window as CSV, times relative to its start. */
void
writeSpans(const std::string &file, const perfbench::Tracer &tr, Ns t0)
{
    std::ofstream out(file);
    out << "path,parent,invocation,rows,seqs,start_ns,end_ns\n";
    for (const perfbench::Span &s : tr.spans())
        out << tr.paths().at(static_cast<std::size_t>(s.path)).name << ','
            << s.parent << ',' << s.invocation << ',' << s.rows << ','
            << s.seqs << ',' << s.start - t0 << ',' << s.end - t0 << '\n';
    if (!out)
        throw std::runtime_error("cannot write spans to " + file);
}

/** Per-layer metrics from the spans. @p latency_sum_ms / loads give
 *  serve.wait_ms_mean; @p tokens is the per-token denominator. Returns
 *  the decode-step encoder time p50 (0 without steps). */
double
traceLayers(Result &r, const perfbench::Tracer &tr, const Window &w,
            std::size_t requests, std::size_t tokens, double latency_sum_ms,
            bool decode, std::size_t d_model, const std::string &spans_file)
{
    const TraceSplit s = splitTrace(tr);
    if (!spans_file.empty())
        writeSpans(spans_file, tr, w.t0);
    if (s.worst_residual > kConservationTolNs)
        fail(r, "trace conservation: an invocation's self times plus "
                "uncovered time miss its wall time by " +
                    std::to_string(s.worst_residual) + " ns");
    const auto &loads = decode ? s.prefill_loads : s.batch_loads;
    std::size_t served = 0;
    for (const auto &l : loads)
        served += l.requests;
    if (served != requests)
        fail(r, "trace: invocations served " + std::to_string(served) +
                    " requests, the load loop completed " +
                    std::to_string(requests));
    const double n = static_cast<double>(std::max<std::size_t>(requests, 1));
    const double t = static_cast<double>(std::max<std::size_t>(tokens, 1));
    const double ninv =
        static_cast<double>(std::max<std::size_t>(s.encoder_ms.size(), 1));
    auto ms = [](Ns v) { return static_cast<double>(v) / 1e6; };
    auto us = [](Ns v) { return static_cast<double>(v) / 1e3; };
    auto gflops = [](double ops, Ns ns) {
        return ns > 0 ? ops / static_cast<double>(ns) : 0.0;
    };

    r.layers["serve.wait_ms_mean"] =
        perfbench::waitMeanMs(latency_sum_ms, requests, loads);
    r.layers["serve.model_busy_share"] =
        static_cast<double>(s.busy) / static_cast<double>(w.t1 - w.t0);
    r.layers["model.encoder_ms_p50"] = p50OrZero(s.encoder_ms);
    r.layers["model.rows_per_invoke"] = s.rows / ninv;
    r.layers["model.prefill_ms_p50"] = perfbench::percentile(s.prefill_ms, 50);
    r.layers["nn.attn_core_ms_per_req"] = ms(s.attn_self) / n;
    r.layers["nn.attn_core_us_per_token"] =
        decode ? (s.step_rows > 0 ? us(s.attn_self_step) / s.step_rows : 0)
               : us(s.attn_self) / t;
    r.layers["nn.attn_core_gflops"] =
        gflops(4.0 * static_cast<double>(d_model) * s.attn_pairs,
               s.attn_self);

    r.layers["nn.norm_residual_ms_per_req"] = ms(s.uncovered) / n;
    r.layers["nn.norm_residual_us_per_token"] = us(s.uncovered) / t;
    r.layers["nn.linear_ms_per_req"] = ms(s.linear) / n;
    r.layers["nn.linear_us_per_token"] = us(s.linear) / t;
    r.layers["nn.linear_rows_per_call"] =
        s.linear_calls > 0 ? s.linear_rows / s.linear_calls : 0.0;
    r.layers["nn.linear_gflops"] = gflops(s.linear_ops, s.linear);
    return p50OrZero(s.step_ms);
}

std::string
servingConfigJson(const serve::ServingConfig &c)
{
    return "{\"engine\": \"ServingEngine\", \"max_batch\": " +
           std::to_string(c.max_batch) +
           ", \"bucket_granularity\": " +
           std::to_string(c.bucket_granularity) + ", \"max_wait_us\": " +
           std::to_string(c.max_wait.count()) +
           ", \"workspace_cap_bytes\": " +
           std::to_string(c.workspace_cap_bytes) + "}";
}

std::string
generationConfigJson(const serve::GenerationConfig &c)
{
    return "{\"engine\": \"GenerationEngine\", \"max_live\": " +
           std::to_string(c.max_live) +
           ", \"eos_token\": " + std::to_string(c.eos_token) +
           ", \"workspace_cap_bytes\": " +
           std::to_string(c.workspace_cap_bytes) + "}";
}

std::string
stampJson(const Args &a, const std::string &model, const std::string &engine,
          const Window &w, std::size_t pool, std::size_t streams,
          const std::vector<Done> &done, const std::string &extra)
{
    // Completions per second of the window: shows a level shift (a
    // neighbour's load, a plan flip) inside one run.
    std::vector<std::size_t> per_s(
        static_cast<std::size_t>(w.seconds()) + 1, 0);
    for (const Done &d : done)
        ++per_s[std::min<std::size_t>(per_s.size() - 1,
                                      static_cast<std::size_t>(
                                          (d.done - w.t0) / 1000000000))];
    std::string rates = "[";
    for (std::size_t n : per_s)
        rates += (rates.size() > 1 ? ", " : "") + std::to_string(n);
    rates += "]";

    return "{\"workload\": " + quote(a.workload) +
           ", \"seed\": " + std::to_string(a.seed) +
           ", \"seconds\": " + num(a.seconds) +
           ", \"trace\": " + (a.trace ? "1" : "0") +
           ", \"isa\": " + quote(runtime::isa()) +
           ", \"cpu_signature\": " + quote(runtime::cpuSignature()) +
           ", \"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"pool\": " + std::to_string(pool) +
           ", \"streams\": " + std::to_string(streams) +
           ", \"model\": " + quote(model) + ", \"engine_config\": " + engine +
           ", \"window_s\": " + num(w.seconds()) +
           ", \"steal_share\": " + num(w.stealShare()) +
           ", \"completions_per_s\": " + rates + extra +
           ", \"tuning\": " + w.tuning + "}";
}

void
recordFailures(Result &r, const std::vector<Done> &done)
{
    r.attempted = done.size();
    for (const Done &d : done)
        if (!d.ok) {
            ++r.failed;
            fail(r, "request failed: " + d.error);
        }
}

bool
sameBits(const float *a, const float *b, std::size_t n)
{
    return std::memcmp(a, b, n * sizeof(float)) == 0;
}

/** The output checks run after the engine is gone, on every core: the
 *  library's results do not depend on the thread count, so checking at
 *  another pool size than the served one also exercises that. */
void
checkPool()
{
    runtime::setNumThreads(
        std::max(1u, std::thread::hardware_concurrency()));
}

// ------------------------------------------------------- classifiers

/** Logits of serial unbatched inference on @p m. */
std::vector<float>
serial(SequenceClassifier &m, const std::vector<int> &tokens)
{
    const Tensor t = m.forward(tokens, 1, tokens.size());
    return std::vector<float>(t.data(), t.data() + t.size());
}

/** Shared body of classify_short and long_context. */
Result
runClassifier(const Args &a, const ModelConfig &cfg, bool int8,
              std::size_t pool, Traffic::Shape shape, std::size_t streams,
              std::size_t warmup_requests, std::size_t check_stride,
              const std::string &model_name)
{
    Result r;
    runtime::setNumThreads(pool);
    perfbench::Tracer tracer;
    auto build = [&](bool traced) {
        Rng rng(kModelSeed);
        std::unique_ptr<SequenceClassifier> m =
            traced ? perfbench::buildTracedModel(tracer, cfg, rng)
                   : buildModel(cfg, rng);
        if (int8)
            m->quantizeLinears(QuantKind::Int8);
        return m;
    };
    // The untraced model is the reference for the output checks; the
    // traced run serves its traced twin.
    std::unique_ptr<SequenceClassifier> ref = build(false);
    std::unique_ptr<SequenceClassifier> traced;
    if (a.trace)
        traced = build(true);
    SequenceClassifier &served = a.trace ? *traced : *ref;

    const serve::ServingConfig scfg{};
    Window w;
    std::vector<Done> done;
    serve::ServingStats s0, s1;
    {
        serve::ServingEngine eng(served, scfg);
        std::vector<Traffic> warm, timed;
        for (std::size_t i = 0; i < streams; ++i) {
            warm.emplace_back(kWarmupSeed, 0, i, shape);
            timed.emplace_back(a.seed, 1, i, shape);
        }
        serveLoop(eng, warm, requests(warmup_requests));
        r.setup_s = static_cast<double>(nowNs() - g_main_start) / 1e9;
        if (a.setup_only)
            return r;

        s0 = eng.stats();
        if (a.trace)
            tracer.start();
        w.begin();
        done = serveLoop(eng, timed, seconds(a.seconds));
        w.end(done);
        tracer.stop();
        s1 = eng.stats();
    }
    recordFailures(r, done);
    checkPool();

    // Output checks, outside the timed window.
    std::size_t checked = 0;
    for (std::size_t i = 0; i < done.size(); ++i) {
        const Done &d = done[i];
        if (!d.ok || (i % check_stride != 0 && i + 1 != done.size()))
            continue;
        ++checked;
        const std::vector<float> want = serial(*ref, d.req.tokens);
        if (want.size() != d.logits.size() ||
            !sameBits(want.data(), d.logits.data(), want.size())) {
            ++r.failed;
            fail(r, "logits differ from serial forward (request " +
                        std::to_string(i) + ")");
        }
    }
    if (a.trace) {
        Traffic probe(a.seed, 2, 0, shape);
        for (int i = 0; i < 4; ++i) {
            const Request q = probe.next();
            const std::vector<float> x = serial(*ref, q.tokens);
            const std::vector<float> y = serial(*traced, q.tokens);
            if (!sameBits(x.data(), y.data(), x.size()))
                fail(r, "traced model differs from buildModel");
        }
    }

    const Served sv = endToEnd(
        r, done, w, [](const Done &d) { return d.req.tokens.size(); });
    runtimeLayers(r, w, sv.requests, sv.tokens);
    if (a.trace) {
        traceLayers(r, tracer, w, sv.requests, sv.tokens, sv.latency_sum_ms,
                    false, cfg.d_hid, a.spans);
        const double batches =
            static_cast<double>(s1.batches - s0.batches);
        const double served_n = static_cast<double>(
            (s1.completed + s1.failed) - (s0.completed + s0.failed));
        r.layers["serve.avg_batch"] = batches > 0 ? served_n / batches : 0;
        r.layers["serve.timeout_flush_share"] =
            batches > 0
                ? static_cast<double>(s1.flushed_timeout -
                                      s0.flushed_timeout) /
                      batches
                : 0;
        r.layers["serve.avg_live"] = 0;
        r.layers["serve.prefills_per_req"] = 0;
    }
    r.stamp = stampJson(a, model_name, servingConfigJson(scfg), w, pool,
                        streams, done,
                        ", \"checked\": " + std::to_string(checked));
    return r;
}

ModelConfig
fabnetShortConfig()
{
    // bench/serving.cpp's FABNet all-ABfly classifier.
    ModelConfig c;
    c.kind = ModelKind::FABNet;
    c.vocab = 256;
    c.max_seq = 64;
    c.d_hid = 256;
    c.r_ffn = 4;
    c.n_total = 2;
    c.n_abfly = 2;
    c.heads = 8;
    c.classes = 10;
    return c;
}

Result
classifyShort(const Args &a)
{
    const ModelConfig cfg = fabnetShortConfig();
    return runClassifier(a, cfg, true, 1,
                         {4, 32, static_cast<int>(cfg.vocab)},
                         4, 64, 8, "fabnet_abfly int8 D256 h8 L2");
}

Result
longContext(const Args &a)
{
    const ModelConfig cfg = data::longContextConfig("ListOps", 2048);
    return runClassifier(a, cfg, false, 2,
                         {1536, 2048, static_cast<int>(cfg.vocab)},
                         1, 2, 16, "transformer ListOps@2048 exact");
}

// -------------------------------------------------------- generator

Result
decodeStream(const Args &a)
{
    Result r;
    const std::size_t pool = 1;
    runtime::setNumThreads(pool);
    ModelConfig cfg = fabnetShortConfig();
    cfg.causal = true;
    cfg.max_seq = 96; // longest prompt (24) + longest output (64) fits
    perfbench::Tracer tracer;
    auto build = [&](bool traced) {
        Rng rng(kModelSeed);
        return traced ? perfbench::buildTracedGenerator(tracer, cfg, rng)
                      : buildGenerator(cfg, rng);
    };
    std::unique_ptr<CausalGenerator> ref = build(false);
    std::unique_ptr<CausalGenerator> traced;
    if (a.trace)
        traced = build(true);
    CausalGenerator &served = a.trace ? *traced : *ref;

    const Traffic::Shape shape{4, 24, static_cast<int>(cfg.vocab), 16, 64};
    const std::size_t streams = 4;
    const serve::GenerationConfig gcfg{};
    Window w;
    std::vector<Done> done;
    serve::GenerationStats s0, s1;
    {
        serve::GenerationEngine eng(served, gcfg);
        std::vector<Traffic> warm, timed;
        for (std::size_t i = 0; i < streams; ++i) {
            warm.emplace_back(kWarmupSeed, 0, i, shape);
            timed.emplace_back(a.seed, 1, i, shape);
        }
        generateLoop(eng, warm, requests(16));
        r.setup_s = static_cast<double>(nowNs() - g_main_start) / 1e9;
        if (a.setup_only)
            return r;

        s0 = eng.stats();
        if (a.trace)
            tracer.start();
        w.begin();
        done = generateLoop(eng, timed, seconds(a.seconds));
        w.end(done);
        tracer.stop();
        s1 = eng.stats();
    }
    recordFailures(r, done);
    checkPool();

    // Greedy reference for the first kSample requests of every stream:
    // full causal recompute via forwardFull, one token at a time.
    constexpr std::size_t kSample = 4;
    std::vector<std::size_t> sample;
    std::vector<std::size_t> per_stream(streams, 0);
    for (std::size_t i = 0; i < done.size(); ++i)
        if (done[i].ok && per_stream[done[i].stream]++ < kSample)
            sample.push_back(i);
    std::vector<std::vector<int>> seqs;
    std::size_t longest = 0;
    for (std::size_t i : sample) {
        seqs.push_back(done[i].req.tokens);
        longest = std::max(longest, done[i].req.max_new);
    }
    std::vector<bool> bad(sample.size(), false);
    for (std::size_t step = 0; step < longest; ++step) {
        std::vector<std::size_t> live;
        std::vector<std::vector<int>> batch;
        for (std::size_t j = 0; j < sample.size(); ++j)
            if (step < done[sample[j]].req.max_new) {
                live.push_back(j);
                batch.push_back(seqs[j]);
            }
        const std::vector<int> next =
            nn::argmaxRows(ref->forwardFull(batch));
        for (std::size_t q = 0; q < live.size(); ++q) {
            const std::size_t j = live[q];
            const Done &d = done[sample[j]];
            if (d.out.size() <= step || d.out[step] != next[q])
                bad[j] = true;
            seqs[j].push_back(next[q]);
        }
    }
    for (std::size_t j = 0; j < sample.size(); ++j)
        if (bad[j] || done[sample[j]].out.size() != done[sample[j]].req.max_new) {
            ++r.failed;
            fail(r, "generated tokens differ from greedy forwardFull "
                    "(request " + std::to_string(sample[j]) + ")");
        }
    if (a.trace) {
        Traffic probe(a.seed, 2, 0, shape);
        std::vector<std::vector<int>> prompts;
        for (int i = 0; i < 4; ++i)
            prompts.push_back(probe.next().tokens);
        const Tensor x = ref->forwardFull(prompts);
        const Tensor y = traced->forwardFull(prompts);
        if (x.size() != y.size() || !sameBits(x.data(), y.data(), x.size()))
            fail(r, "traced generator differs from buildGenerator");
    }

    const Served sv =
        endToEnd(r, done, w, [](const Done &d) { return d.out.size(); });
    std::vector<double> ttft, itl;
    double ttft_sum = 0;
    for (const Done &d : done) {
        if (!d.ok)
            continue;
        ttft.push_back(msOf(d.token_times.front() - d.submit));
        ttft_sum += ttft.back();
        for (std::size_t k = 1; k < d.token_times.size(); ++k)
            itl.push_back(msOf(d.token_times[k] - d.token_times[k - 1]));
    }
    runtimeLayers(r, w, sv.requests, sv.tokens);
    double step_ms_p50 = 0;
    if (a.trace) {
        step_ms_p50 = traceLayers(r, tracer, w, sv.requests, sv.tokens,
                                  ttft_sum, true, cfg.d_hid, a.spans);
        const double req = static_cast<double>(s1.requests - s0.requests);
        const double prefills =
            static_cast<double>(s1.prefill_batches - s0.prefill_batches);
        const double steps = static_cast<double>(s1.steps - s0.steps);
        r.layers["serve.avg_batch"] = prefills > 0 ? req / prefills : 0;
        r.layers["serve.timeout_flush_share"] = 0;
        r.layers["serve.avg_live"] =
            steps > 0 ? static_cast<double>(s1.decode_tokens -
                                            s0.decode_tokens) /
                            steps
                      : 0;
        r.layers["serve.prefills_per_req"] = req > 0 ? prefills / req : 0;
    }
    r.stamp = stampJson(
        a, "fabnet_abfly_causal fp32 D256 h8 L2 max_seq96",
        generationConfigJson(gcfg), w, pool, streams, done,
        ", \"ttft_p50_ms\": " + num(perfbench::percentile(ttft, 50)) +
            ", \"itl_p50_ms\": " + num(perfbench::percentile(itl, 50)) +
            ", \"itl_p99_ms\": " + num(perfbench::percentile(itl, 99)) +
            (a.trace ? ", \"step_ms_p50\": " + num(step_ms_p50) : "") +
            ", \"checked\": " + std::to_string(sample.size()));
    return r;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument("missing value for " + k);
            return argv[++i];
        };
        if (k == "--workload")
            a.workload = value();
        else if (k == "--seed")
            a.seed = std::stoull(value());
        else if (k == "--seconds")
            a.seconds = std::stod(value());
        else if (k == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                throw std::invalid_argument("--trace takes 0 or 1");
            a.trace = v == "1";
        }
        else if (k == "--setup-only")
            a.setup_only = true;
        else if (k == "--spans")
            a.spans = value();
        else
            throw std::invalid_argument("unknown argument " + k);
    }
    if (!(a.seconds > 0 && a.seconds <= 600))
        throw std::invalid_argument("--seconds must be in (0, 600]");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args a = parseArgs(argc, argv);
        Result r;
        if (a.workload == "classify_short")
            r = classifyShort(a);
        else if (a.workload == "decode_stream")
            r = decodeStream(a);
        else if (a.workload == "long_context")
            r = longContext(a);
        else
            throw std::invalid_argument("unknown workload '" + a.workload +
                                        "'");
        if (a.setup_only) {
            std::printf("{\"setup_s\": %s}\n", num(r.setup_s).c_str());
            return 0;
        }
        std::printf("{\"stamp\": %s}\n", r.stamp.c_str());
        std::string problems = "[";
        for (const auto &p : r.problems)
            problems += (problems.size() > 1 ? ", " : "") + quote(p);
        problems += "]";
        std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                    "\"setup_s\": %s, \"e2e\": %s, \"layers\": %s, "
                    "\"problems\": %s}\n",
                    r.correct && r.failed == 0 ? "true" : "false",
                    r.attempted, r.failed, num(r.setup_s).c_str(),
                    metricsJson(r.e2e).c_str(),
                    metricsJson(r.layers).c_str(), problems.c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
