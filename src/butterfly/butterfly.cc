#include "butterfly/butterfly.h"

#include <cmath>
#include <cstring>
#include <numbers>
#include <stdexcept>

#include "runtime/kernels.h"
#include "runtime/parallel.h"
#include "runtime/reduce.h"
#include "runtime/workspace.h"

namespace fabnet {

namespace {

/**
 * Rows per stage-major block and parallel grain of the batched paths.
 * Inside a block the activations are kept TRANSPOSED ([n, block])
 * so every butterfly pair op is a contiguous vector over rows with
 * broadcast weights - one fused multiply-add stream instead of the
 * stride-2^s scalar gather of the per-row path. 16 rows = one AVX-512
 * vector per op while still giving 4+ tasks at a 64-row batch. The
 * sweep itself lives in the runtime dispatch table (bfly_stage,
 * runtime/kernels_impl.h) so the vectorised body is compiled per ISA
 * level and selected at startup. Every block is exactly
 * kBflyBlockRows lanes wide: a tail of fewer rows is zero-padded by
 * the load kernel, and the stages sweep all lanes at the one width.
 */
constexpr std::size_t kBatchRows = runtime::kBflyBlockRows;

/** Workspace tags (see runtime/workspace.h): the matrix kernels and
 *  ButterflyLinear's padding buffers are live at the same time, so
 *  they need disjoint per-thread scratch. */
struct MatrixWs;
struct LinearWs;
/** Per-thread padded-gradient buffer of the batched backward. */
struct LinearGradWs;

/** Parallel grain of the owner-parallel weight-gradient sweep:
 *  (stage, pair) blocks this wide per task. */
constexpr std::size_t kWeightGradGrain = 64;

} // namespace

ButterflyMatrix::ButterflyMatrix(std::size_t n)
    : n_(n), stages_(log2Exact(n)), weights_(stages_ * (n / 2) * 4, 0.0f)
{
    if (n < 2)
        throw std::invalid_argument("ButterflyMatrix: size must be >= 2");
    initIdentity();
}

void
ButterflyMatrix::initIdentity()
{
    for (std::size_t s = 0; s < stages_; ++s) {
        for (std::size_t p = 0; p < n_ / 2; ++p) {
            float *w = &weights_[weightIndex(s, p)];
            w[0] = 1.0f;
            w[1] = 0.0f;
            w[2] = 0.0f;
            w[3] = 1.0f;
        }
    }
}

void
ButterflyMatrix::initRandomRotation(Rng &rng)
{
    for (std::size_t s = 0; s < stages_; ++s) {
        for (std::size_t p = 0; p < n_ / 2; ++p) {
            const float theta = rng.uniform(
                0.0f, 2.0f * static_cast<float>(std::numbers::pi));
            float *w = &weights_[weightIndex(s, p)];
            w[0] = std::cos(theta);
            w[1] = -std::sin(theta);
            w[2] = std::sin(theta);
            w[3] = std::cos(theta);
        }
    }
}

void
ButterflyMatrix::initNormal(Rng &rng, float stddev)
{
    for (float &w : weights_)
        w = rng.normal(stddev);
}

void
ButterflyMatrix::pairIndices(std::size_t s, std::size_t p, std::size_t &i1,
                             std::size_t &i2)
{
    const std::size_t h = std::size_t{1} << s; // stride of this stage
    const std::size_t block = p / h;
    const std::size_t j = p % h;
    i1 = block * 2 * h + j;
    i2 = i1 + h;
}

void
ButterflyMatrix::applyRows(const float *in, float *out, std::size_t rows,
                           float *cache, std::size_t cache_stride) const
{
    // Stage-major over a transposed block: activations live as
    // [n, kBatchRows] so pair (i1, i2) of every stage reads/writes
    // contiguous lane vectors with the four weights broadcast.
    // Butterfly outputs have no accumulation chain (y = w0*x1 + w1*x2
    // is a single expression) and lanes never interact, so the
    // reordering, vectorisation and zero padding lanes are bitwise
    // identical to the scalar per-row applyReference().
    float *buf = runtime::threadWorkspace<MatrixWs>(kBatchRows * n_);
    const runtime::KernelTable &kt = runtime::kernels();
    for (std::size_t r0 = 0; r0 < rows; r0 += kBatchRows) {
        const std::size_t nb = std::min(kBatchRows, rows - r0);
        // Transposed load with contiguous stores (the strided side is
        // the cheaper gather-load side), via the dispatch table so it
        // vectorises at the same ISA level as the stages; lanes nb..15
        // are zero-filled.
        kt.bfly_transpose_in(in + r0 * n_, buf, n_, nb, n_);
        // The training forward stores every stage's input block (and
        // finally the output block) back to row-major cache rows.
        float *c = cache ? cache + r0 * cache_stride : nullptr;
        // Pair p = block*h + j touches i1 = block*2h + j; the sweep
        // walks (block, j) in order so the weight pointer advances
        // sequentially with no div/mod. The sweep body is the
        // ISA-dispatched bfly_stage kernel.
        for (std::size_t s = 0; s < stages_; ++s) {
            if (c)
                kt.bfly_transpose_out(buf, c + s * n_, n_, nb,
                                      cache_stride);
            const float *wp = &weights_[s * (n_ / 2) * 4];
            const std::size_t h = std::size_t{1} << s;
            kt.bfly_stage(buf, wp, n_, h);
        }
        if (c)
            kt.bfly_transpose_out(buf, c + stages_ * n_, n_, nb,
                                  cache_stride);
        kt.bfly_transpose_out(buf, out + r0 * n_, n_, nb, n_);
    }
}

void
ButterflyMatrix::forwardWithCache(const float *in, float *cache) const
{
    applyRows(in, cache + stages_ * n_, 1, cache, (stages_ + 1) * n_);
}

void
ButterflyMatrix::backward(const float *cache, const float *grad_out,
                          float *grad_in,
                          std::vector<float> &grad_weights) const
{
    if (grad_weights.size() != weights_.size())
        throw std::invalid_argument("backward: grad_weights size mismatch");

    std::vector<float> g(grad_out, grad_out + n_);
    std::vector<float> gprev(n_);
    for (std::size_t si = stages_; si-- > 0;) {
        const float *x = cache + si * n_; // inputs of stage si
        const float *ws = &weights_[si * (n_ / 2) * 4];
        float *gw = &grad_weights[si * (n_ / 2) * 4];
        for (std::size_t p = 0; p < n_ / 2; ++p) {
            std::size_t i1, i2;
            pairIndices(si, p, i1, i2);
            const float g1 = g[i1], g2 = g[i2];
            const float x1 = x[i1], x2 = x[i2];
            const float *w = ws + p * 4;
            gprev[i1] = runtime::madd(w[0], g1, w[2] * g2);
            gprev[i2] = runtime::madd(w[1], g1, w[3] * g2);
            gw[p * 4 + 0] = runtime::madd(g1, x1, gw[p * 4 + 0]);
            gw[p * 4 + 1] = runtime::madd(g1, x2, gw[p * 4 + 1]);
            gw[p * 4 + 2] = runtime::madd(g2, x1, gw[p * 4 + 2]);
            gw[p * 4 + 3] = runtime::madd(g2, x2, gw[p * 4 + 3]);
        }
        std::swap(g, gprev);
    }
    std::memcpy(grad_in, g.data(), n_ * sizeof(float));
}

void
ButterflyMatrix::backwardRecord(float *gcache) const
{
    // Same per-pair expressions as backward(), with the g/gprev swap
    // replaced by writing each stage level in place: pairs partition
    // the indices, so every level element is written exactly once and
    // the recorded levels equal backward()'s intermediate g vectors
    // bit for bit.
    for (std::size_t si = stages_; si-- > 0;) {
        const float *ws = &weights_[si * (n_ / 2) * 4];
        const float *g = gcache + (si + 1) * n_;
        float *gprev = gcache + si * n_;
        for (std::size_t p = 0; p < n_ / 2; ++p) {
            std::size_t i1, i2;
            pairIndices(si, p, i1, i2);
            const float g1 = g[i1], g2 = g[i2];
            const float *w = ws + p * 4;
            gprev[i1] = runtime::madd(w[0], g1, w[2] * g2);
            gprev[i2] = runtime::madd(w[1], g1, w[3] * g2);
        }
    }
}

void
ButterflyMatrix::accumulateWeightGradRows(
    const float *caches, const float *gcaches, std::size_t rows,
    std::size_t cache_stride, std::size_t gcache_stride,
    std::vector<float> &grad_weights) const
{
    if (grad_weights.size() != weights_.size())
        throw std::invalid_argument(
            "accumulateWeightGradRows: grad_weights size mismatch");

    const std::size_t half = n_ / 2;
    // Owner-parallel (runtime/reduce.h): task owns the flat (stage,
    // pair) range [f0, f1) of grad_weights outright; rows stay outer
    // so each row's cache/trajectory is streamed once per task and
    // every weight element accumulates its rows in ascending order -
    // the reference backward()'s exact chain. The grain scales with
    // the pool (ownerGrain): the chunk count multiplies how often the
    // trajectories are re-streamed, so a serial pool gets one chunk.
    runtime::parallelFor(
        0, stages_ * half,
        runtime::ownerGrain(stages_ * half, kWeightGradGrain),
        [&](std::size_t f0, std::size_t f1) {
            for (std::size_t r = 0; r < rows; ++r) {
                const float *cache = caches + r * cache_stride;
                const float *gcache = gcaches + r * gcache_stride;
                // Walk the range stage segment by stage segment so
                // the pair indices are pure shifts/masks (h = 2^s),
                // not a div/mod per weight block.
                std::size_t f = f0;
                while (f < f1) {
                    const std::size_t s = f / half;
                    const std::size_t p0 = f - s * half;
                    const std::size_t pend =
                        std::min(half, p0 + (f1 - f));
                    const std::size_t h = std::size_t{1} << s;
                    const float *x = cache + s * n_;
                    const float *g = gcache + (s + 1) * n_;
                    float *gws = &grad_weights[s * half * 4];
                    for (std::size_t p = p0; p < pend; ++p) {
                        const std::size_t i1 =
                            ((p >> s) << (s + 1)) + (p & (h - 1));
                        const std::size_t i2 = i1 + h;
                        const float g1 = g[i1], g2 = g[i2];
                        const float x1 = x[i1], x2 = x[i2];
                        float *gw = gws + p * 4;
                        gw[0] = runtime::madd(g1, x1, gw[0]);
                        gw[1] = runtime::madd(g1, x2, gw[1]);
                        gw[2] = runtime::madd(g2, x1, gw[2]);
                        gw[3] = runtime::madd(g2, x2, gw[3]);
                    }
                    f += pend - p0;
                }
            }
        });
}

Tensor
ButterflyMatrix::applyBatch(const Tensor &x) const
{
    if (x.rank() != 2 || x.dim(1) != n_)
        throw std::invalid_argument("applyBatch: [rows, n] required");
    const std::size_t rows = x.dim(0);
    Tensor y = Tensor::zeros(rows, n_);
    const float *px = x.data();
    float *py = y.data();
    runtime::parallelFor(0, rows, kBatchRows,
                         [&](std::size_t r0, std::size_t r1) {
                             applyRows(px + r0 * n_, py + r0 * n_,
                                       r1 - r0);
                         });
    return y;
}

void
ButterflyMatrix::applyReference(const float *in, float *out) const
{
    // The seed kernel: two heap allocations and scalar stage/pair
    // loops per call.
    std::vector<float> buf(in, in + n_);
    std::vector<float> next(n_);
    float *cur = buf.data();
    float *nxt = next.data();
    for (std::size_t s = 0; s < stages_; ++s) {
        const float *ws = &weights_[s * (n_ / 2) * 4];
        for (std::size_t p = 0; p < n_ / 2; ++p) {
            std::size_t i1, i2;
            pairIndices(s, p, i1, i2);
            const float x1 = cur[i1], x2 = cur[i2];
            const float *w = ws + p * 4;
            nxt[i1] = runtime::madd(w[0], x1, w[1] * x2);
            nxt[i2] = runtime::madd(w[2], x1, w[3] * x2);
        }
        std::swap(cur, nxt);
    }
    std::memcpy(out, cur, n_ * sizeof(float));
}

Tensor
ButterflyMatrix::applyBatchReference(const Tensor &x) const
{
    if (x.rank() != 2 || x.dim(1) != n_)
        throw std::invalid_argument(
            "applyBatchReference: [rows, n] required");
    Tensor y = Tensor::zeros(x.dim(0), n_);
    for (std::size_t r = 0; r < x.dim(0); ++r)
        applyReference(x.data() + r * n_, y.data() + r * n_);
    return y;
}

Tensor
ButterflyMatrix::toDense() const
{
    Tensor dense = Tensor::zeros(n_, n_);
    std::vector<float> e(n_, 0.0f), col(n_);
    for (std::size_t j = 0; j < n_; ++j) {
        e[j] = 1.0f;
        applyReference(e.data(), col.data());
        e[j] = 0.0f;
        for (std::size_t i = 0; i < n_; ++i)
            dense.at(i, j) = col[i];
    }
    return dense;
}

ButterflyLinear::ButterflyLinear(std::size_t in_features,
                                 std::size_t out_features)
    : in_(in_features), out_(out_features),
      core_n_(nextPowerOfTwo(in_features)), bias_(out_features, 0.0f)
{
    if (in_ == 0 || out_ == 0)
        throw std::invalid_argument("ButterflyLinear: zero-sized layer");
    if (core_n_ < 2)
        core_n_ = 2;
    const std::size_t copies = (out_ + core_n_ - 1) / core_n_;
    cores_.reserve(copies);
    for (std::size_t i = 0; i < copies; ++i)
        cores_.emplace_back(core_n_);
}

void
ButterflyLinear::initRandomRotation(Rng &rng)
{
    for (auto &c : cores_)
        c.initRandomRotation(rng);
    std::fill(bias_.begin(), bias_.end(), 0.0f);
}

void
ButterflyLinear::applyToRows(const float *in, float *out, std::size_t rows,
                             float *cache) const
{
    // Stage-major blocks of kBatchRows rows: pad each block into the
    // per-thread scratch, run every core over it, add bias on the
    // truncated copy-out. One applyBatch task == one <= kBatchRows
    // block here, so results are bitwise identical to applyBatch (and
    // to the per-row applyBatchReference) regardless of how callers
    // chunk rows.
    const std::size_t cache_stride = cacheSize();
    const std::size_t per_core = (cores_[0].numStages() + 1) * core_n_;
    for (std::size_t b0 = 0; b0 < rows; b0 += kBatchRows) {
        const std::size_t nb = std::min(kBatchRows, rows - b0);
        float *scratch =
            runtime::threadWorkspace<LinearWs>(2 * kBatchRows * core_n_);
        float *padded = scratch;
        float *core_out = scratch + nb * core_n_;
        std::fill(padded, padded + nb * core_n_, 0.0f);
        for (std::size_t r = 0; r < nb; ++r)
            std::memcpy(padded + r * core_n_, in + (b0 + r) * in_,
                        in_ * sizeof(float));
        // cacheSize() layout per row: the padded input, then each
        // core's stage trajectory.
        float *bc = cache ? cache + b0 * cache_stride : nullptr;
        if (bc)
            for (std::size_t r = 0; r < nb; ++r)
                std::memcpy(bc + r * cache_stride, padded + r * core_n_,
                            core_n_ * sizeof(float));
        for (std::size_t c = 0; c < cores_.size(); ++c) {
            cores_[c].applyRows(padded, core_out, nb,
                                bc ? bc + core_n_ + c * per_core : nullptr,
                                cache_stride);
            const std::size_t base = c * core_n_;
            const std::size_t take = std::min(core_n_, out_ - base);
            for (std::size_t r = 0; r < nb; ++r) {
                const float *src = core_out + r * core_n_;
                float *dst = out + (b0 + r) * out_ + base;
                for (std::size_t j = 0; j < take; ++j)
                    dst[j] = src[j] + bias_[base + j];
            }
        }
    }
}

Tensor
ButterflyLinear::applyBatch(const Tensor &x) const
{
    if (x.rank() != 2 || x.dim(1) != in_)
        throw std::invalid_argument("applyBatch: [rows, in] required");
    const std::size_t rows = x.dim(0);
    Tensor y = Tensor::zeros(rows, out_);
    const float *px = x.data();
    float *py = y.data();
    runtime::parallelFor(0, rows, kBatchRows,
                         [&](std::size_t r0, std::size_t r1) {
                             applyToRows(px + r0 * in_, py + r0 * out_,
                                         r1 - r0);
                         });
    return y;
}

Tensor
ButterflyLinear::applyBatchReference(const Tensor &x) const
{
    if (x.rank() != 2 || x.dim(1) != in_)
        throw std::invalid_argument(
            "applyBatchReference: [rows, in] required");
    Tensor y = Tensor::zeros(x.dim(0), out_);
    // Seed path: per-row apply with fresh heap buffers per call.
    for (std::size_t r = 0; r < x.dim(0); ++r) {
        std::vector<float> padded(core_n_, 0.0f);
        std::memcpy(padded.data(), x.data() + r * in_,
                    in_ * sizeof(float));
        std::vector<float> core_out(core_n_);
        float *out = y.data() + r * out_;
        for (std::size_t c = 0; c < cores_.size(); ++c) {
            cores_[c].applyReference(padded.data(), core_out.data());
            const std::size_t base = c * core_n_;
            const std::size_t take = std::min(core_n_, out_ - base);
            for (std::size_t j = 0; j < take; ++j)
                out[base + j] = core_out[j] + bias_[base + j];
        }
    }
    return y;
}

std::size_t
ButterflyLinear::numParams() const
{
    std::size_t n = bias_.size();
    for (const auto &c : cores_)
        n += c.numWeights();
    return n;
}

std::size_t
ButterflyLinear::cacheSize() const
{
    // Each core records (stages + 1) * core_n_ activations; the padded
    // input is shared, so cache it once more at the front.
    const std::size_t per_core =
        (cores_[0].numStages() + 1) * core_n_;
    return core_n_ + cores_.size() * per_core;
}

void
ButterflyLinear::forwardWithCache(const float *in, float *out,
                                  float *cache) const
{
    applyToRows(in, out, 1, cache);
}

void
ButterflyLinear::backward(const float *cache, const float *grad_out,
                          float *grad_in,
                          std::vector<std::vector<float>> &grad_cores,
                          std::vector<float> &grad_bias) const
{
    if (grad_cores.size() != cores_.size())
        throw std::invalid_argument("backward: grad_cores count mismatch");
    if (grad_bias.size() != out_)
        throw std::invalid_argument("backward: grad_bias size mismatch");

    const std::size_t per_core = (cores_[0].numStages() + 1) * core_n_;
    std::vector<float> g_padded(core_n_, 0.0f);
    std::vector<float> g_core_out(core_n_);
    std::vector<float> g_core_in(core_n_);

    for (std::size_t c = 0; c < cores_.size(); ++c) {
        const std::size_t base = c * core_n_;
        const std::size_t take = std::min(core_n_, out_ - base);
        std::fill(g_core_out.begin(), g_core_out.end(), 0.0f);
        for (std::size_t j = 0; j < take; ++j) {
            g_core_out[j] = grad_out[base + j];
            grad_bias[base + j] += grad_out[base + j];
        }
        const float *core_cache = cache + core_n_ + c * per_core;
        cores_[c].backward(core_cache, g_core_out.data(),
                           g_core_in.data(), grad_cores[c]);
        for (std::size_t j = 0; j < core_n_; ++j)
            g_padded[j] += g_core_in[j];
    }
    std::memcpy(grad_in, g_padded.data(), in_ * sizeof(float));
}

std::size_t
ButterflyLinear::gradCacheSize() const
{
    // One full gradient trajectory per core (backwardRecord layout).
    return cores_.size() * (cores_[0].numStages() + 1) * core_n_;
}

void
ButterflyLinear::backwardBatch(const float *caches, float *gcaches,
                               const float *grad_out, float *grad_in,
                               std::size_t rows,
                               std::vector<std::vector<float>> &grad_cores,
                               std::vector<float> &grad_bias) const
{
    if (grad_cores.size() != cores_.size())
        throw std::invalid_argument(
            "backwardBatch: grad_cores count mismatch");
    if (grad_bias.size() != out_)
        throw std::invalid_argument(
            "backwardBatch: grad_bias size mismatch");

    const std::size_t stages = cores_[0].numStages();
    const std::size_t per_core = (stages + 1) * core_n_;
    const std::size_t cache_stride = cacheSize();
    const std::size_t gcache_stride = gradCacheSize();

    // Pass 1 - row-parallel: record each row's per-core gradient
    // trajectory and write its dL/dx row. All writes are disjoint per
    // row; the padded-gradient accumulator is a per-thread workspace.
    runtime::parallelFor(0, rows, 4, [&](std::size_t r0, std::size_t r1) {
        float *g_padded = runtime::threadWorkspace<LinearGradWs>(core_n_);
        for (std::size_t r = r0; r < r1; ++r) {
            const float *gout = grad_out + r * out_;
            float *gc_row = gcaches + r * gcache_stride;
            std::fill(g_padded, g_padded + core_n_, 0.0f);
            for (std::size_t c = 0; c < cores_.size(); ++c) {
                float *core_g = gc_row + c * per_core;
                float *glast = core_g + stages * core_n_;
                const std::size_t base = c * core_n_;
                const std::size_t take = std::min(core_n_, out_ - base);
                std::fill(glast, glast + core_n_, 0.0f);
                for (std::size_t j = 0; j < take; ++j)
                    glast[j] = gout[base + j];
                cores_[c].backwardRecord(core_g);
                for (std::size_t j = 0; j < core_n_; ++j)
                    g_padded[j] += core_g[j];
            }
            std::memcpy(grad_in + r * in_, g_padded,
                        in_ * sizeof(float));
        }
    });

    // Pass 2 - owner-parallel bias accumulation: task owns the output
    // range [j0, j1) of grad_bias, rows accumulate in ascending order
    // (the reference chain).
    runtime::parallelFor(0, out_, runtime::ownerGrain(out_, 16),
                         [&](std::size_t j0, std::size_t j1) {
        for (std::size_t r = 0; r < rows; ++r) {
            const float *gout = grad_out + r * out_;
            for (std::size_t j = j0; j < j1; ++j)
                grad_bias[j] += gout[j];
        }
    });

    // Pass 3 - per core, owner-parallel weight-gradient accumulation
    // over (stage, pair) blocks.
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        cores_[c].accumulateWeightGradRows(
            caches + core_n_ + c * per_core, gcaches + c * per_core,
            rows, cache_stride, gcache_stride, grad_cores[c]);
    }
}

FftAsButterfly::FftAsButterfly(std::size_t n)
    : n_(n), stages_(log2Exact(n))
{
}

Complex
FftAsButterfly::twiddle(std::size_t s, std::size_t p) const
{
    const std::size_t h = std::size_t{1} << s;
    const std::size_t j = p % h; // position within the half-block
    const double ang = -2.0 * std::numbers::pi * static_cast<double>(j) /
                       static_cast<double>(2 * h);
    return Complex(static_cast<float>(std::cos(ang)),
                   static_cast<float>(std::sin(ang)));
}

std::vector<Complex>
FftAsButterfly::apply(const std::vector<Complex> &in) const
{
    if (in.size() != n_)
        throw std::invalid_argument("FftAsButterfly: size mismatch");
    const std::size_t bits = stages_;
    std::vector<Complex> cur(n_);
    for (std::size_t i = 0; i < n_; ++i)
        cur[bitReverse(i, bits)] = in[i];

    std::vector<Complex> nxt(n_);
    for (std::size_t s = 0; s < stages_; ++s) {
        for (std::size_t p = 0; p < n_ / 2; ++p) {
            std::size_t i1, i2;
            ButterflyMatrix::pairIndices(s, p, i1, i2);
            const Complex w = twiddle(s, p);
            // Butterfly block (w1,w2,w3,w4) = (1, w, 1, -w).
            const Complex x1 = cur[i1], x2 = cur[i2];
            nxt[i1] = x1 + w * x2;
            nxt[i2] = x1 - w * x2;
        }
        std::swap(cur, nxt);
    }
    return cur;
}

} // namespace fabnet
