#include "nn/dense.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "runtime/kernels.h"
#include "runtime/parallel.h"
#include "runtime/reduce.h"
#include "runtime/workspace.h"

namespace fabnet {
namespace nn {

namespace {

/** Workspace tag for Dense::backward's [out, in] copies of W and
 *  dL/dW. */
struct DenseBwdWs;

/** Workspace tags for QuantizedDense's per-call activation scratch. */
struct QDenseAqWs;    ///< int8 activations
struct QDenseScaleWs; ///< per-row activation scales
struct QDenseAhWs;    ///< fp16-rounded activation floats

/** Rows when the last dim is treated as features. */
std::size_t
rowCount(const Tensor &x)
{
    return x.size() / x.shape().back();
}

/**
 * The inference body of both butterfly linears: @p op's stage-major
 * kernel over every row of @p x into @p y, in chunks of
 * runtime::kBflyBlockRows rows (one full 16-lane block each, as in
 * ButterflyDense::forward). The kernel is row-independent, so which
 * rows - of one sequence or of two - share a block never changes a
 * row's bits.
 */
template <class Op>
void
applyRowBlocks(const Tensor &x, Tensor &y, const Op &op)
{
    const float *px = x.data();
    float *py = y.data();
    runtime::parallelFor(0, rowCount(x), runtime::kBflyBlockRows,
                         [&](std::size_t r0, std::size_t r1) {
        op.applyToRows(px + r0 * op.inFeatures(),
                       py + r0 * op.outFeatures(), r1 - r0);
    });
}

} // namespace

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng &rng)
    : in_(in_features), out_(out_features), w_(in_ * out_), b_(out_, 0.0f)
{
    // Kaiming-style init keeps activations stable for ReLU/GELU nets.
    // Drawn in W's [out, in] order, so a seed gives the same weights
    // whatever the storage layout.
    const float stddev = std::sqrt(2.0f / static_cast<float>(in_));
    for (std::size_t o = 0; o < out_; ++o)
        for (std::size_t i = 0; i < in_; ++i)
            w_[i * out_ + o] = rng.normal(stddev);
}

Tensor
Dense::forward(const Tensor &x)
{
    if (x.shape().back() != in_)
        throw std::invalid_argument("Dense::forward: feature mismatch");
    cached_input_ = x;
    return Dense::forwardRows(x, allRows(x));
}

Tensor
Dense::forwardRows(const Tensor &x, const nn::RowSet &)
{
    if (x.shape().back() != in_)
        throw std::invalid_argument(
            "Dense::forwardRows: feature mismatch");

    std::vector<std::size_t> out_shape = x.shape();
    out_shape.back() = out_;
    Tensor y(out_shape);

    // y = x W^T + b: w_ already holds W^T [in, out], the GEMM's B
    // operand, so the panel runs straight off it over the rows with
    // the bias folded into the accumulator init. Each output is one
    // chain - bias, then i-ascending madd - so a row's bits depend
    // neither on the chunks nor on which rows share its tile.
    const float *px = x.data();
    float *py = y.data();
    runtime::parallelFor(0, rowCount(x), runtime::kGemmRowGrain,
                         [&](std::size_t r0, std::size_t r1) {
        runtime::gemmRowsIKJ(px, w_.data(), py, r0, r1, in_, out_,
                             b_.data());
    });
    return y;
}

Tensor
Dense::backward(const Tensor &grad_out)
{
    const Tensor &x = cached_input_;
    const std::size_t rows = rowCount(x);
    if (grad_out.shape().back() != out_ || rowCount(grad_out) != rows)
        throw std::invalid_argument("Dense::backward: shape mismatch");

    sizeGrad(gw_, w_.size());
    sizeGrad(gb_, b_.size());
    Tensor gx(x.shape());
    const float *pg = grad_out.data();
    const float *px = x.data();
    float *pgx = gx.data();

    // Both sweeps below stream one output feature's row of W (or of
    // dL/dW) contiguously, so they run on [out, in] copies: an
    // O(in*out) transpose each way against O(rows*in*out) arithmetic.
    float *w_oi = runtime::threadWorkspace<DenseBwdWs>(2 * in_ * out_);
    float *gw_oi = w_oi + in_ * out_;
    runtime::transposeInto(w_oi, w_.data(), in_, out_);
    runtime::transposeInto(gw_oi, gw_.data(), in_, out_);

    // dL/dx: rows are independent and each row's o-loop runs in the
    // reference's ascending order, so row-parallelism is free.
    runtime::parallelFor(0, rows, 8, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
            const float *gr = pg + r * out_;
            float *gxr = pgx + r * in_;
            for (std::size_t o = 0; o < out_; ++o) {
                const float g = gr[o];
                if (g == 0.0f)
                    continue;
                const float *wr = w_oi + o * in_;
                for (std::size_t i = 0; i < in_; ++i)
                    gxr[i] = runtime::madd(g, wr[i], gxr[i]);
            }
        }
    });

    // dL/dW, dL/db: owner-parallel over output features (see
    // runtime/reduce.h) - each task owns the feature range [o0, o1)
    // of gw_/gb_ outright and accumulates the rows in the reference's
    // ascending order, so every gradient element keeps its exact
    // serial chain. Rows stay outer so x is streamed row-major once
    // per task.
    runtime::parallelFor(0, out_, runtime::ownerGrain(out_, 8),
                         [&](std::size_t o0, std::size_t o1) {
        for (std::size_t r = 0; r < rows; ++r) {
            const float *gr = pg + r * out_;
            const float *xr = px + r * in_;
            for (std::size_t o = o0; o < o1; ++o) {
                const float g = gr[o];
                if (g == 0.0f)
                    continue;
                gb_[o] += g;
                float *gwr = gw_oi + o * in_;
                for (std::size_t i = 0; i < in_; ++i)
                    gwr[i] = runtime::madd(g, xr[i], gwr[i]);
            }
        }
    });
    runtime::transposeInto(gw_.data(), gw_oi, out_, in_);
    return gx;
}

Tensor
Dense::backwardReference(const Tensor &grad_out)
{
    const Tensor &x = cached_input_;
    const std::size_t rows = rowCount(x);
    if (grad_out.shape().back() != out_ || rowCount(grad_out) != rows)
        throw std::invalid_argument("Dense::backward: shape mismatch");

    sizeGrad(gw_, w_.size());
    sizeGrad(gb_, b_.size());
    Tensor gx(x.shape());
    const float *pg = grad_out.data();
    const float *px = x.data();
    float *pgx = gx.data();

    for (std::size_t r = 0; r < rows; ++r) {
        const float *gr = pg + r * out_;
        const float *xr = px + r * in_;
        float *gxr = pgx + r * in_;
        for (std::size_t o = 0; o < out_; ++o) {
            const float g = gr[o];
            if (g == 0.0f)
                continue;
            gb_[o] += g;
            for (std::size_t i = 0; i < in_; ++i) {
                float &gw = gw_[i * out_ + o];
                gw = runtime::madd(g, xr[i], gw);
                gxr[i] = runtime::madd(g, w_[i * out_ + o], gxr[i]);
            }
        }
    }
    return gx;
}

void
Dense::collectParams(std::vector<ParamRef> &out)
{
    out.push_back({&w_, &gw_});
    out.push_back({&b_, &gb_});
}

std::unique_ptr<Layer>
Dense::quantizedReplacement(QuantKind kind) const
{
    return std::make_unique<QuantizedDense>(*this, kind);
}

QuantizedDense::QuantizedDense(const Dense &dense, QuantKind kind)
    : in_(dense.inFeatures()), out_(dense.outFeatures()), kind_(kind)
{
    const std::vector<float> &w = dense.weight(); // W^T [in, out]
    if (kind_ == QuantKind::Fp16) {
        // Round through binary16 and hold the widened [in, out] panel:
        // the GEMM consumes fp16-representable fp32 values, so building
        // the panel once at construction beats both per-call rebuilds
        // and retaining the raw binary16 bits nothing reads.
        wt_h_ = w;
        runtime::roundRowToHalf(wt_h_.data(), wt_h_.size());
        bias_h_.resize(out_);
        for (std::size_t o = 0; o < out_; ++o)
            bias_h_[o] = roundToHalf(dense.bias()[o]);
        return;
    }
    // int8: quantise each output feature (a column of [in, out]; its
    // max is exact in any order) and pack pairs once - the panel
    // consumes it with zero per-call weight prep.
    bias_ = dense.bias();
    std::vector<float> max_abs(out_, 0.0f);
    for (std::size_t i = 0; i < in_; ++i)
        for (std::size_t o = 0; o < out_; ++o)
            max_abs[o] = std::max(max_abs[o], std::fabs(w[i * out_ + o]));
    wscale_.resize(out_);
    std::vector<float> inv(out_);
    for (std::size_t o = 0; o < out_; ++o) {
        wscale_[o] = runtime::int8Scale(max_abs[o]);
        inv[o] = 1.0f / wscale_[o];
    }
    std::vector<std::int8_t> wq(w.size());
    for (std::size_t i = 0; i < in_; ++i)
        runtime::quantizeInt8RowPerCol(w.data() + i * out_,
                                       wq.data() + i * out_, out_,
                                       inv.data());
    bp_.resize(((in_ + 1) / 2) * out_ * 2);
    runtime::packInt8PairsB(wq.data(), bp_.data(), in_, out_);
}

Tensor
QuantizedDense::forward(const Tensor &x)
{
    if (x.shape().back() != in_)
        throw std::invalid_argument(
            "QuantizedDense::forward: feature mismatch");
    return forwardRows(x, allRows(x));
}

Tensor
QuantizedDense::forwardRows(const Tensor &x, const nn::RowSet &)
{
    if (x.shape().back() != in_)
        throw std::invalid_argument(
            "QuantizedDense::forwardRows: feature mismatch");
    const std::size_t n = rowCount(x);

    std::vector<std::size_t> out_shape = x.shape();
    out_shape.back() = out_;
    Tensor y(out_shape);
    const float *px = x.data();
    float *py = y.data();

    if (kind_ == QuantKind::Fp16) {
        // Round each chunk's rows through binary16 (elementwise, so
        // per-chunk rounding equals the full-buffer pass bit for bit).
        float *ah = runtime::threadWorkspace<QDenseAhWs>(n * in_);
        const float *wt = wt_h_.data();
        const float *pb = bias_h_.data();
        runtime::parallelFor(0, n, runtime::kGemmRowGrain,
                             [&](std::size_t r0, std::size_t r1) {
            std::memcpy(ah + r0 * in_, px + r0 * in_,
                        (r1 - r0) * in_ * sizeof(float));
            runtime::roundRowToHalf(ah + r0 * in_, (r1 - r0) * in_);
            runtime::gemmRowsF16(ah, wt, py, r0, r1, in_, out_, pb);
        });
        return y;
    }

    std::int8_t *aq =
        runtime::threadWorkspaceAs<QDenseAqWs, std::int8_t>(n * in_);
    float *sa = runtime::threadWorkspace<QDenseScaleWs>(n);
    const std::int16_t *bp = bp_.data();
    const float *sb = wscale_.data();
    const float *pb = bias_.data();
    // Activation quantisation is per row (dynamic scale), so fusing it
    // with the GEMM sweep over the same chunks is exact.
    runtime::parallelFor(0, n, runtime::kGemmRowGrain,
                         [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
            const float *row = px + r * in_;
            sa[r] = runtime::int8Scale(runtime::maxAbsRow(row, in_));
            runtime::quantizeInt8Row(row, aq + r * in_, in_, sa[r]);
        }
        runtime::gemmRowsInt8(aq, bp, py, r0, r1, in_, out_, sa, sb,
                              pb);
    });
    return y;
}

Tensor
QuantizedDense::backward(const Tensor &)
{
    throw std::logic_error("QuantizedDense is inference-only");
}

ButterflyDense::ButterflyDense(std::size_t in_features,
                               std::size_t out_features, Rng &rng)
    : op_(in_features, out_features)
{
    op_.initRandomRotation(rng);
    grad_cores_.resize(op_.numCores()); // each sized on first use
}

void
ButterflyDense::sizeGrads()
{
    for (std::size_t c = 0; c < op_.numCores(); ++c)
        sizeGrad(grad_cores_[c], op_.core(c).numWeights());
    sizeGrad(grad_bias_, op_.bias().size());
}

Tensor
ButterflyDense::forward(const Tensor &x)
{
    if (x.shape().back() != op_.inFeatures())
        throw std::invalid_argument(
            "ButterflyDense::forward: feature mismatch");
    in_shape_ = x.shape();
    rows_ = x.size() / op_.inFeatures();

    std::vector<std::size_t> out_shape = x.shape();
    out_shape.back() = op_.outFeatures();
    Tensor y(out_shape);

    // The forwardRows kernel over every row, recording each row's
    // activation cache on the way; chunks write disjoint cache and
    // output rows. Every cache float is overwritten.
    const std::size_t cache_per_row = op_.cacheSize();
    caches_.resize(rows_ * cache_per_row);
    const float *px = x.data();
    float *py = y.data();
    float *pc = caches_.data();
    runtime::parallelFor(0, rows_, runtime::kBflyBlockRows,
                         [&](std::size_t r0, std::size_t r1) {
        op_.applyToRows(px + r0 * op_.inFeatures(),
                        py + r0 * op_.outFeatures(), r1 - r0,
                        pc + r0 * cache_per_row);
    });
    return y;
}

Tensor
ButterflyDense::forwardRows(const Tensor &x, const nn::RowSet &)
{
    if (x.shape().back() != op_.inFeatures())
        throw std::invalid_argument(
            "ButterflyDense::forwardRows: feature mismatch");
    std::vector<std::size_t> out_shape = x.shape();
    out_shape.back() = op_.outFeatures();
    Tensor y(out_shape);

    // forward()'s kernel over the same row blocks, without the
    // activation caches (rows * cacheSize() floats per call).
    applyRowBlocks(x, y, op_);
    return y;
}

Tensor
ButterflyDense::backward(const Tensor &grad_out)
{
    if (grad_out.shape().back() != op_.outFeatures() ||
        grad_out.size() / op_.outFeatures() != rows_)
        throw std::invalid_argument(
            "ButterflyDense::backward: shape mismatch");

    sizeGrads();
    Tensor gx(in_shape_);
    // Trajectory scratch is a member so the steady state allocates
    // nothing; fully overwritten by backwardBatch's pass 1.
    gcaches_.resize(rows_ * op_.gradCacheSize());
    op_.backwardBatch(caches_.data(), gcaches_.data(), grad_out.data(),
                      gx.data(), rows_, grad_cores_, grad_bias_);
    return gx;
}

Tensor
ButterflyDense::backwardReference(const Tensor &grad_out)
{
    if (grad_out.shape().back() != op_.outFeatures() ||
        grad_out.size() / op_.outFeatures() != rows_)
        throw std::invalid_argument(
            "ButterflyDense::backward: shape mismatch");

    sizeGrads();
    Tensor gx(in_shape_);
    const std::size_t cache_per_row = op_.cacheSize();
    for (std::size_t r = 0; r < rows_; ++r) {
        op_.backward(caches_.data() + r * cache_per_row,
                     grad_out.data() + r * op_.outFeatures(),
                     gx.data() + r * op_.inFeatures(), grad_cores_,
                     grad_bias_);
    }
    return gx;
}

void
ButterflyDense::collectParams(std::vector<ParamRef> &out)
{
    for (std::size_t c = 0; c < op_.numCores(); ++c)
        out.push_back({&op_.core(c).weights(), &grad_cores_[c]});
    out.push_back({&op_.bias(), &grad_bias_});
}

std::unique_ptr<Layer>
ButterflyDense::quantizedReplacement(QuantKind kind) const
{
    return std::make_unique<QuantizedButterflyDense>(*this, kind);
}

QuantizedButterflyDense::QuantizedButterflyDense(
    const ButterflyDense &dense, QuantKind kind)
    : op_(dense.op(), kind)
{
}

Tensor
QuantizedButterflyDense::forward(const Tensor &x)
{
    if (x.shape().back() != op_.inFeatures())
        throw std::invalid_argument(
            "QuantizedButterflyDense::forward: feature mismatch");
    return forwardRows(x, allRows(x));
}

Tensor
QuantizedButterflyDense::forwardRows(const Tensor &x, const nn::RowSet &)
{
    if (x.shape().back() != op_.inFeatures())
        throw std::invalid_argument(
            "QuantizedButterflyDense::forwardRows: feature mismatch");
    std::vector<std::size_t> out_shape = x.shape();
    out_shape.back() = op_.outFeatures();
    Tensor y(out_shape);
    applyRowBlocks(x, y, op_);
    return y;
}

Tensor
QuantizedButterflyDense::backward(const Tensor &)
{
    throw std::logic_error(
        "QuantizedButterflyDense is inference-only");
}

} // namespace nn
} // namespace fabnet
