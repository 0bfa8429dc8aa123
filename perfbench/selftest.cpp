/**
 * @file selftest.cpp
 * Pins the benchmark's own arithmetic (stats.h) on fixed synthetic
 * inputs: percentiles under the ten-beyond rule, the serve.wait_ms_mean
 * aggregation, and self time / conservation with nested children.
 * Exits non-zero on the first mismatch; run.py runs it before every
 * measurement.
 */
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        std::fprintf(stderr, "selftest: FAILED %s\n", what.c_str());
        ++failures;
    }
}

bool
throws(const std::vector<double> &v, unsigned pct)
{
    try {
        perfbench::percentile(v, pct);
    } catch (const std::runtime_error &) {
        return true;
    }
    return false;
}

void
percentiles()
{
    using perfbench::percentile;
    std::vector<double> v;
    for (int i = 100; i >= 1; --i) // reversed: the input is unsorted
        v.push_back(i);
    expect(percentile(v, 50) == 50, "p50 of 1..100 is 50");
    expect(percentile(v, 90) == 90, "p90 of 1..100 is 90 (10 beyond)");
    expect(throws(v, 99), "p99 of 100 samples has 1 beyond: refused");
    expect(throws(v, 91), "p91 of 100 samples has 9 beyond: refused");

    std::vector<double> w(v.begin(), v.begin() + 20); // 100..81
    expect(percentile(w, 50) == 90, "p50 of 81..100 is 90 (10 beyond)");
    w.pop_back();
    expect(throws(w, 50), "p50 of 19 samples has 9 beyond: refused");

    std::vector<double> big(1000);
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<double>(i + 1);
    expect(percentile(big, 99) == 990, "p99 of 1..1000 is 990");
    big.pop_back();
    expect(throws(big, 99), "p99 of 999 samples has 9 beyond: refused");
    expect(perfbench::samplesBeyond(100, 90) == 10, "beyond(100, p90)");
    expect(perfbench::nearestRank(3, 50) == 2, "rank(3, p50) rounds up");
}

void
waitMean()
{
    // Three requests with latencies 10, 12, 20 ms; invocation A served
    // two of them in 4 ms of encoder time, invocation B one in 5 ms:
    // (42 - 2*4 - 1*5) / 3.
    const std::vector<perfbench::InvocationLoad> inv = {{2, 4000000},
                                                        {1, 5000000}};
    const double got = perfbench::waitMeanMs(42.0, 3, inv);
    expect(std::fabs(got - 29.0 / 3.0) < 1e-12, "wait mean (42-8-5)/3");
}

perfbench::Span
span(int parent, int inv, perfbench::Ns start, perfbench::Ns end)
{
    perfbench::Span s;
    s.parent = parent;
    s.invocation = inv;
    s.start = start;
    s.end = end;
    return s;
}

void
selfTime()
{
    // Invocation 0: root [0,100) with children A [10,40) and B [50,60);
    // A has a child [20,30). A second top-level span [120,130) leaves
    // [100,120) uncovered. Invocation 1 holds one lone span.
    const std::vector<perfbench::Span> spans = {
        span(-1, 0, 0, 100), span(0, 0, 10, 40), span(1, 0, 20, 30),
        span(0, 0, 50, 60),  span(-1, 0, 120, 130), span(-1, 1, 200, 207)};
    const auto self = perfbench::selfTimes(spans);
    const std::vector<perfbench::Ns> want = {60, 20, 10, 10, 10, 7};
    expect(self == want, "self times of a nested tree");
    const auto it = perfbench::invocationTimes(spans, self, 2);
    expect(it[0].window == 130 && it[0].uncovered == 20 &&
               it[0].self_sum == 110 && it[0].residual() == 0,
           "invocation 0 conserves 130 ns");
    expect(it[1].window == 7 && it[1].uncovered == 0 &&
               it[1].residual() == 0,
           "invocation 1 conserves 7 ns");

    // Overlapping siblings are covered once in the parent's self time
    // but counted twice in their own: conservation catches it.
    const std::vector<perfbench::Span> bad = {
        span(-1, 0, 0, 100), span(0, 0, 10, 40), span(0, 0, 30, 50)};
    const auto bself = perfbench::selfTimes(bad);
    expect(bself[0] == 60, "overlapping children cover their union");
    const auto bit = perfbench::invocationTimes(bad, bself, 1);
    expect(bit[0].residual() == 10, "overlap shows as residual 10 ns");

    // A child sticking out of its parent is clipped to it.
    expect(perfbench::coveredWithin({{90, 110}, {-5, 5}}, 0, 100) == 15,
           "coverage clips to the parent interval");
}

} // namespace

int
main()
{
    percentiles();
    waitMean();
    selfTime();
    if (failures == 0)
        std::printf("selftest: ok\n");
    return failures == 0 ? 0 : 1;
}
