/**
 * @file stats.h
 * The benchmark's own arithmetic: percentiles under the ten-beyond
 * rule, span self time, the per-invocation conservation check and the
 * queue-wait aggregation. Kept free of the library so selftest.cpp can
 * pin every formula on fixed synthetic inputs.
 */
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Nanoseconds on the steady clock. */
using Ns = std::int64_t;

/** A percentile is reported only with this many samples beyond it. */
inline constexpr std::size_t kMinBeyond = 10;

/** 1-based nearest rank of percentile @p pct over @p n samples:
 *  ceil(pct * n / 100), in integers so no rounding can move it. */
inline std::size_t
nearestRank(std::size_t n, unsigned pct)
{
    return (static_cast<std::size_t>(pct) * n + 99) / 100;
}

/** Samples strictly beyond the nearest-rank percentile. */
inline std::size_t
samplesBeyond(std::size_t n, unsigned pct)
{
    return n - nearestRank(n, pct);
}

/**
 * Nearest-rank percentile @p pct (1..99) of @p values. Throws when
 * fewer than kMinBeyond samples lie beyond it: a tail the sample
 * cannot support is an error, never a silently noisy number.
 */
inline double
percentile(std::vector<double> values, unsigned pct)
{
    if (pct == 0 || pct >= 100)
        throw std::invalid_argument("percentile: pct must be in 1..99");
    const std::size_t n = values.size();
    if (n == 0 || samplesBeyond(n, pct) < kMinBeyond)
        throw std::runtime_error(
            "percentile: p" + std::to_string(pct) + " of " +
            std::to_string(n) + " samples has fewer than " +
            std::to_string(kMinBeyond) + " samples beyond it");
    const std::size_t k = nearestRank(n, pct) - 1;
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(k),
                     values.end());
    return values[k];
}

/** One timed region. Children close before their parent. */
struct Span
{
    std::int32_t path = -1;       ///< index into the tracer's path table
    std::int32_t parent = -1;     ///< enclosing span, -1 at top level
    std::int32_t invocation = -1; ///< model invocation it belongs to
    std::int32_t rows = 0;        ///< valid activation rows it saw
    std::int32_t seqs = 0;        ///< sequences (requests) it saw
    double pairs = 0;             ///< attention (query, key) pairs
    Ns start = 0, end = 0;
};

/** Length of the union of @p iv clipped to [lo, hi). */
inline Ns
coveredWithin(std::vector<std::pair<Ns, Ns>> iv, Ns lo, Ns hi)
{
    for (auto &p : iv) {
        p.first = std::max(p.first, lo);
        p.second = std::min(p.second, hi);
    }
    std::sort(iv.begin(), iv.end());
    Ns total = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto &p : iv) {
        if (p.second <= p.first)
            continue;
        if (open && p.first <= cur_hi) {
            cur_hi = std::max(cur_hi, p.second);
            continue;
        }
        if (open)
            total += cur_hi - cur_lo;
        cur_lo = p.first;
        cur_hi = p.second;
        open = true;
    }
    if (open)
        total += cur_hi - cur_lo;
    return total;
}

/** Self time of every span: its duration minus the part of its
 *  interval that its children cover. */
inline std::vector<Ns>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<Ns, Ns>>> kids(spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            kids.at(static_cast<std::size_t>(s.parent))
                .emplace_back(s.start, s.end);
    std::vector<Ns> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = (spans[i].end - spans[i].start) -
                  coveredWithin(kids[i], spans[i].start, spans[i].end);
    return self;
}

/** Time accounting of one model invocation. */
struct InvocationTime
{
    Ns window = 0;    ///< first top-level span start to last end
    Ns uncovered = 0; ///< window time outside every top-level span
    Ns self_sum = 0;  ///< self time of all the invocation's spans
    /** Conservation residual: self times plus the uncovered remainder
     *  minus the wall time. Zero for a well-formed span tree. */
    Ns residual() const { return self_sum + uncovered - window; }
};

/**
 * Per-invocation accounting of @p spans (with their @p self times),
 * indexed by Span::invocation; @p n_invocations bounds the ids.
 */
inline std::vector<InvocationTime>
invocationTimes(const std::vector<Span> &spans, const std::vector<Ns> &self,
                std::size_t n_invocations)
{
    std::vector<InvocationTime> out(n_invocations);
    std::vector<Ns> lo(n_invocations, 0), hi(n_invocations, 0);
    std::vector<bool> seen(n_invocations, false);
    std::vector<std::vector<std::pair<Ns, Ns>>> top(n_invocations);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.invocation < 0)
            continue;
        const auto v = static_cast<std::size_t>(s.invocation);
        out.at(v).self_sum += self[i];
        if (s.parent >= 0)
            continue;
        top[v].emplace_back(s.start, s.end);
        lo[v] = seen[v] ? std::min(lo[v], s.start) : s.start;
        hi[v] = seen[v] ? std::max(hi[v], s.end) : s.end;
        seen[v] = true;
    }
    for (std::size_t v = 0; v < n_invocations; ++v) {
        out[v].window = hi[v] - lo[v];
        out[v].uncovered =
            out[v].window - coveredWithin(top[v], lo[v], hi[v]);
    }
    return out;
}

/** Requests one invocation served and its encoder time. */
struct InvocationLoad
{
    std::size_t requests = 0;
    Ns encoder = 0;
};

/**
 * Mean time a request spent outside the encoder of the invocation that
 * served it: (sum of latencies - sum over invocations of requests x
 * encoder time) / requests, in ms.
 */
inline double
waitMeanMs(double latency_sum_ms, std::size_t n_requests,
           const std::vector<InvocationLoad> &invocations)
{
    if (n_requests == 0)
        throw std::invalid_argument("waitMeanMs: no requests");
    double served_ms = 0;
    for (const auto &inv : invocations)
        served_ms += static_cast<double>(inv.requests) *
                     static_cast<double>(inv.encoder) / 1e6;
    return (latency_sum_ms - served_ms) / static_cast<double>(n_requests);
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
