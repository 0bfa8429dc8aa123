/**
 * @file kernels.cpp
 * google-benchmark microbenchmarks of the numeric kernels underneath
 * the reproduction: FFT, butterfly apply (vs dense matmul), the 2-D
 * Fourier mixer, attention, the GELU / softmax rows, and the
 * functional hardware datapath.
 * These support the latency claims with wall-clock numbers on the
 * host CPU.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "butterfly/butterfly.h"
#include "butterfly/fft.h"
#include "butterfly/qbutterfly.h"
#include "nn/attention.h"
#include "nn/dense.h"
#include "runtime/isa.h"
#include "runtime/kernels.h"
#include "runtime/parallel.h"
#include "sim/datapath.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "tensor/rng.h"

using namespace fabnet;

// ---------------------------------------------------------------------
// Engine-vs-seed pairs: every *Reference case is the seed scalar
// kernel, the matching case without suffix is the parallel/blocked
// engine path (thread count from FABNET_NUM_THREADS). The speedup
// acceptance gate of the execution-engine PR reads these pairs from
// BENCH_kernels.json.
// ---------------------------------------------------------------------

static void
BM_MatmulReference(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(n);
    Tensor a = rng.normalTensor({n, n});
    Tensor b = rng.normalTensor({n, n});
    for (auto _ : state) {
        Tensor c = ops::reference::matmul(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetComplexityN(static_cast<long>(n));
}
BENCHMARK(BM_MatmulReference)->Arg(128)->Arg(512)->Complexity();

static void
BM_MatmulParallel(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(n);
    Tensor a = rng.normalTensor({n, n});
    Tensor b = rng.normalTensor({n, n});
    for (auto _ : state) {
        Tensor c = ops::matmul(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetComplexityN(static_cast<long>(n));
    state.counters["pool_threads"] =
        static_cast<double>(runtime::numThreads());
}
BENCHMARK(BM_MatmulParallel)->Arg(128)->Arg(512)->Complexity();

// fp32-vs-quantized pairs: BM_MatmulParallel is the fp32 side; the
// int8/fp16 cases run the END-TO-END dynamic op (quantise activations
// + panel + dequantise) on the same shapes, so the recorded ratio is
// the honest deployable speedup, not just the inner loop's.

static void
BM_MatmulInt8(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(n);
    Tensor a = rng.normalTensor({n, n});
    Tensor b = rng.normalTensor({n, n});
    for (auto _ : state) {
        Tensor c = ops::matmulInt8(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetComplexityN(static_cast<long>(n));
    state.counters["pool_threads"] =
        static_cast<double>(runtime::numThreads());
}
BENCHMARK(BM_MatmulInt8)->Arg(128)->Arg(512)->Complexity();

static void
BM_MatmulF16(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(n);
    Tensor a = rng.normalTensor({n, n});
    Tensor b = rng.normalTensor({n, n});
    for (auto _ : state) {
        Tensor c = ops::matmulF16(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    state.counters["pool_threads"] =
        static_cast<double>(runtime::numThreads());
}
BENCHMARK(BM_MatmulF16)->Arg(512);

static void
BM_MatmulTransposedReference(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(n);
    Tensor a = rng.normalTensor({n, n});
    Tensor b = rng.normalTensor({n, n});
    for (auto _ : state) {
        Tensor c = ops::reference::matmulTransposed(a, b);
        benchmark::DoNotOptimize(c.data());
    }
}
BENCHMARK(BM_MatmulTransposedReference)->Arg(512);

static void
BM_MatmulTransposedParallel(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(n);
    Tensor a = rng.normalTensor({n, n});
    Tensor b = rng.normalTensor({n, n});
    for (auto _ : state) {
        Tensor c = ops::matmulTransposed(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    state.counters["pool_threads"] =
        static_cast<double>(runtime::numThreads());
}
BENCHMARK(BM_MatmulTransposedParallel)->Arg(512);

static void
BM_ButterflyBatchReference(benchmark::State &state)
{
    const std::size_t rows = static_cast<std::size_t>(state.range(0));
    const std::size_t n = static_cast<std::size_t>(state.range(1));
    ButterflyMatrix m(n);
    Rng rng(n);
    m.initRandomRotation(rng);
    Tensor x = rng.normalTensor({rows, n});
    for (auto _ : state) {
        Tensor y = m.applyBatchReference(x);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_ButterflyBatchReference)
    ->Args({64, 512})
    ->Args({256, 512});

static void
BM_ButterflyBatchStageMajor(benchmark::State &state)
{
    const std::size_t rows = static_cast<std::size_t>(state.range(0));
    const std::size_t n = static_cast<std::size_t>(state.range(1));
    ButterflyMatrix m(n);
    Rng rng(n);
    m.initRandomRotation(rng);
    Tensor x = rng.normalTensor({rows, n});
    for (auto _ : state) {
        Tensor y = m.applyBatch(x);
        benchmark::DoNotOptimize(y.data());
    }
    state.counters["pool_threads"] =
        static_cast<double>(runtime::numThreads());
}
// {4, 256} is a decode step's projection and {30, 256} a classify
// call's (served rows are rarely a multiple of the 16-row block).
BENCHMARK(BM_ButterflyBatchStageMajor)
    ->Args({4, 256})
    ->Args({30, 256})
    ->Args({64, 512})
    ->Args({256, 512});

static void
BM_ButterflyBatchInt8(benchmark::State &state)
{
    const std::size_t rows = static_cast<std::size_t>(state.range(0));
    const std::size_t n = static_cast<std::size_t>(state.range(1));
    ButterflyMatrix m(n);
    Rng rng(n);
    m.initRandomRotation(rng);
    QuantizedButterflyMatrix qm(m, QuantKind::Int8);
    Tensor x = rng.normalTensor({rows, n});
    for (auto _ : state) {
        Tensor y = qm.applyBatch(x);
        benchmark::DoNotOptimize(y.data());
    }
    state.counters["pool_threads"] =
        static_cast<double>(runtime::numThreads());
}
BENCHMARK(BM_ButterflyBatchInt8)
    ->Args({4, 256})
    ->Args({30, 256})
    ->Args({64, 512});

static void
BM_ButterflyBatchF16(benchmark::State &state)
{
    const std::size_t rows = static_cast<std::size_t>(state.range(0));
    const std::size_t n = static_cast<std::size_t>(state.range(1));
    ButterflyMatrix m(n);
    Rng rng(n);
    m.initRandomRotation(rng);
    QuantizedButterflyMatrix qm(m, QuantKind::Fp16);
    Tensor x = rng.normalTensor({rows, n});
    for (auto _ : state) {
        Tensor y = qm.applyBatch(x);
        benchmark::DoNotOptimize(y.data());
    }
    state.counters["pool_threads"] =
        static_cast<double>(runtime::numThreads());
}
BENCHMARK(BM_ButterflyBatchF16)
    ->Args({4, 256})
    ->Args({30, 256})
    ->Args({64, 512});

static void
BM_ButterflyLinearBatch(benchmark::State &state)
{
    const std::size_t rows = static_cast<std::size_t>(state.range(0));
    ButterflyLinear lin(512, 512);
    Rng rng(1);
    lin.initRandomRotation(rng);
    Tensor x = rng.normalTensor({rows, 512});
    for (auto _ : state) {
        Tensor y = lin.applyBatch(x);
        benchmark::DoNotOptimize(y.data());
    }
    state.counters["pool_threads"] =
        static_cast<double>(runtime::numThreads());
}
BENCHMARK(BM_ButterflyLinearBatch)->Arg(64);

/**
 * The served FFN butterfly linears per precision: 256 -> 1024 (four
 * 256-point cores) and 1024 -> 256 (one 10-stage core, truncated), at
 * one row, a decode step (4 rows) and a classify call (30 rows).
 * kind: 0 = fp32, 1 = int8, 2 = fp16.
 */
static void
BM_ButterflyLinearBatchServed(benchmark::State &state)
{
    const std::size_t rows = static_cast<std::size_t>(state.range(0));
    const std::size_t in = static_cast<std::size_t>(state.range(1));
    const std::size_t out = static_cast<std::size_t>(state.range(2));
    const int kind = static_cast<int>(state.range(3));
    ButterflyLinear lin(in, out);
    Rng rng(1);
    lin.initRandomRotation(rng);
    std::unique_ptr<QuantizedButterflyLinear> qlin;
    if (kind != 0)
        qlin = std::make_unique<QuantizedButterflyLinear>(
            lin, kind == 1 ? QuantKind::Int8 : QuantKind::Fp16);
    Tensor x = rng.normalTensor({rows, in});
    for (auto _ : state) {
        Tensor y = qlin ? qlin->applyBatch(x) : lin.applyBatch(x);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetLabel(kind == 0 ? "fp32" : kind == 1 ? "int8" : "fp16");
    state.counters["pool_threads"] =
        static_cast<double>(runtime::numThreads());
}
BENCHMARK(BM_ButterflyLinearBatchServed)
    ->ArgNames({"rows", "in", "out", "kind"})
    ->ArgsProduct({{1, 4, 30}, {256}, {1024}, {0, 1, 2}})
    ->ArgsProduct({{1, 4, 30}, {1024}, {256}, {0, 1, 2}});

// The transcendental row kernels (runtime::geluRow / softmaxRow) on
// the dispatched table; FABNET_ISA=scalar|avx2 times the other tables.

static void
BM_GeluRow(benchmark::State &state)
{
    const std::size_t rows = static_cast<std::size_t>(state.range(0));
    const std::size_t cols = static_cast<std::size_t>(state.range(1));
    Rng rng(3);
    const Tensor x = rng.normalTensor({rows, cols});
    Tensor y(x.shape());
    for (auto _ : state) {
        runtime::geluRow(x.data(), y.data(), x.size());
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(runtime::isa());
}
BENCHMARK(BM_GeluRow)
    ->ArgNames({"rows", "cols"})
    ->Args({1, 1024})
    ->Args({4, 1024})
    ->Args({31, 1024})
    ->Args({2048, 128});

static void
BM_SoftmaxRow(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(4);
    const Tensor scores = rng.normalTensor({n});
    std::vector<float> row(n);
    for (auto _ : state) {
        // In place, so each iteration restarts from the same scores
        // (the copy is part of the timed work).
        std::copy(scores.data(), scores.data() + n, row.begin());
        runtime::softmaxRow(row.data(), n, 0.125f);
        benchmark::DoNotOptimize(row.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(runtime::isa());
}
BENCHMARK(BM_SoftmaxRow)->Arg(32)->Arg(2048);

static void
BM_AttentionForwardReference(benchmark::State &state)
{
    const std::size_t seq = static_cast<std::size_t>(state.range(0));
    const std::size_t d = 64;
    Rng rng(5);
    nn::MultiHeadAttention mha(
        d, 2, std::make_unique<nn::Dense>(d, d, rng),
        std::make_unique<nn::Dense>(d, d, rng),
        std::make_unique<nn::Dense>(d, d, rng),
        std::make_unique<nn::Dense>(d, d, rng));
    Tensor x = rng.normalTensor({1, seq, d});
    for (auto _ : state) {
        Tensor y = mha.forwardReference(x);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_AttentionForwardReference)->Arg(128)->Arg(512);

static void
BM_FftInPlace(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(n);
    std::vector<Complex> base(n);
    for (auto &c : base)
        c = Complex(rng.normal(), rng.normal());
    for (auto _ : state) {
        auto data = base;
        fftInPlace(data);
        benchmark::DoNotOptimize(data.data());
    }
    state.SetComplexityN(static_cast<long>(n));
}
BENCHMARK(BM_FftInPlace)->RangeMultiplier(4)->Range(64, 4096)->Complexity();

static void
BM_ButterflyApply(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    ButterflyMatrix m(n);
    Rng rng(n);
    m.initRandomRotation(rng);
    std::vector<float> x(n), y(n);
    for (auto &v : x)
        v = rng.normal();
    for (auto _ : state) {
        m.applyRows(x.data(), y.data(), 1);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetComplexityN(static_cast<long>(n));
}
BENCHMARK(BM_ButterflyApply)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Complexity();

static void
BM_DenseMatVec(benchmark::State &state)
{
    // The O(n^2) map the butterfly replaces.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(n);
    Tensor w = rng.normalTensor({n, n});
    Tensor x = rng.normalTensor({1, n});
    for (auto _ : state) {
        Tensor y = ops::matmulTransposed(x, w);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetComplexityN(static_cast<long>(n));
}
BENCHMARK(BM_DenseMatVec)
    ->RangeMultiplier(4)
    ->Range(64, 4096)
    ->Complexity();

static void
BM_FourierMix2D(benchmark::State &state)
{
    const std::size_t seq = static_cast<std::size_t>(state.range(0));
    Rng rng(3);
    Tensor x = rng.normalTensor({1, seq, 64});
    for (auto _ : state) {
        Tensor y = fourierMix2D(x);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_FourierMix2D)->RangeMultiplier(2)->Range(64, 1024);

static void
BM_AttentionForward(benchmark::State &state)
{
    const std::size_t seq = static_cast<std::size_t>(state.range(0));
    const std::size_t d = 64;
    Rng rng(5);
    nn::MultiHeadAttention mha(
        d, 2, std::make_unique<nn::Dense>(d, d, rng),
        std::make_unique<nn::Dense>(d, d, rng),
        std::make_unique<nn::Dense>(d, d, rng),
        std::make_unique<nn::Dense>(d, d, rng));
    Tensor x = rng.normalTensor({1, seq, d});
    for (auto _ : state) {
        Tensor y = mha.forward(x);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_AttentionForward)->RangeMultiplier(2)->Range(32, 512);

/** Approximate attention at long context: args are {seq, kind, k}
 *  with kind 0=dense, 1=topk, 2=butterfly. Same weights/input per seq
 *  (fixed seed), so the dense rows are the exact anchor the sparse
 *  rows' time is read against - the kernel-side of the
 *  accuracy-vs-speed frontier in BENCH_serving.json. Dense is
 *  quadratic in seq; topk stays quadratic in scoring but caps the
 *  softmax+AV work at k rows; butterfly is O(seq log seq) end to end
 *  (never materialises the seq x seq score matrix). */
static void
BM_AttentionForwardSparse(benchmark::State &state)
{
    const std::size_t seq = static_cast<std::size_t>(state.range(0));
    const int kind = static_cast<int>(state.range(1));
    const std::size_t k = static_cast<std::size_t>(state.range(2));
    const std::size_t d = 64;
    Rng rng(5);
    nn::MultiHeadAttention mha(
        d, 2, std::make_unique<nn::Dense>(d, d, rng),
        std::make_unique<nn::Dense>(d, d, rng),
        std::make_unique<nn::Dense>(d, d, rng),
        std::make_unique<nn::Dense>(d, d, rng));
    nn::SparseAttentionConfig sparse;
    sparse.kind = kind == 1   ? nn::SparseKind::TopK
                  : kind == 2 ? nn::SparseKind::Butterfly
                              : nn::SparseKind::Dense;
    sparse.k = kind == 1 ? k : 0;
    mha.setSparse(sparse);
    Tensor x = rng.normalTensor({1, seq, d});
    for (auto _ : state) {
        Tensor y = mha.forward(x);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetLabel(sparse.describe());
}
BENCHMARK(BM_AttentionForwardSparse)
    ->Args({256, 0, 0})
    ->Args({256, 1, 32})
    ->Args({256, 2, 0})
    ->Args({1024, 0, 0})
    ->Args({1024, 1, 32})
    ->Args({1024, 2, 0})
    ->Args({4096, 0, 0})
    ->Args({4096, 1, 32})
    ->Args({4096, 2, 0});

static void
BM_FunctionalEngineButterfly(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    ButterflyMatrix m(n);
    Rng rng(n);
    m.initRandomRotation(rng);
    std::vector<float> x(n);
    for (auto &v : x)
        v = rng.normal();
    sim::FunctionalButterflyEngine engine(4);
    for (auto _ : state) {
        auto y = engine.runButterflyLinear(m, x);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_FunctionalEngineButterfly)
    ->RangeMultiplier(4)
    ->Range(64, 1024);

static void
BM_HalfRoundTrip(benchmark::State &state)
{
    Rng rng(1);
    std::vector<float> xs(4096);
    for (auto &v : xs)
        v = rng.normal();
    for (auto _ : state) {
        float acc = 0.0f;
        for (float v : xs)
            acc += roundToHalf(v);
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_HalfRoundTrip);

// Custom main instead of BENCHMARK_MAIN(): the JSON context must carry
// the execution identity a reader needs to compare runs across
// machines - which dispatch level actually ran (runtime::isa()), the
// host CPU signature, and whether the build specialised for the build
// box (-march=native; docs/BENCHMARKS.md requires this to be stamped).
int
main(int argc, char **argv)
{
    benchmark::AddCustomContext("isa", runtime::isa());
    benchmark::AddCustomContext("cpu_signature", runtime::cpuSignature());
#ifdef FABNET_BUILT_NATIVE
    benchmark::AddCustomContext("march_native", "true");
#else
    benchmark::AddCustomContext("march_native", "false");
#endif

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
