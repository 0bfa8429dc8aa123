#include "nn/dense.h"

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

/** Workspace tag for the per-call W^T copy in Dense::forwardRows. */
struct DenseWtWs;

/** Workspace tag for the butterfly layers' packed-gather buffers. */
struct BflyPackWs;

/**
 * Packed-gather ragged apply for the butterfly linears (shared by the
 * fp32 and quantized layers): gather the valid rows into a contiguous
 * buffer, run the stage-major kernel over full 16-row blocks, scatter
 * back. Spans of a ragged batch are at most one sequence long (4-32
 * rows on serving traffic); run in place, each span would end in its
 * own zero-padded 16-lane block, paying for lanes that hold no row.
 * The O(rows*(in+out)) copies are cheap next to the O(rows*n*log n)
 * butterfly arithmetic, so packing (at most one padded block per
 * kernel call) benches faster than in-place spans here - the opposite
 * trade from the GEMM layers, whose 4-row tiles barely fragment (see
 * docs/ARCHITECTURE.md "Ragged batch execution"). Bitwise identity is
 * unaffected: the kernel is row-independent, so block composition
 * never changes a row's bits.
 *
 * @p apply_rows runs op.applyToRows-style over the packed buffer.
 */
template <class ApplyRows>
void
packedGatherApply(const Tensor &x, Tensor &y, const nn::RowSet &rows,
                  std::size_t in_f, std::size_t out_f,
                  const ApplyRows &apply_rows)
{
    const float *px = x.data();
    float *py = y.data();
    const std::size_t total = rows.totalRows();
    if (!rows.hasPadding()) {
        // Dense batch: the packed space IS the row space.
        runtime::parallelFor(0, total, 16,
                             [&](std::size_t r0, std::size_t r1) {
                                 apply_rows(px + r0 * in_f,
                                            py + r0 * out_f, r1 - r0);
                             });
        return;
    }
    float *buf =
        runtime::threadWorkspace<BflyPackWs>(total * (in_f + out_f));
    float *pin = buf;
    float *pout = buf + total * in_f;
    nn::forEachRowSpanPacked(
        rows, 64,
        [&](std::size_t r0, std::size_t r1, std::size_t p0) {
            std::memcpy(pin + p0 * in_f, px + r0 * in_f,
                        (r1 - r0) * in_f * sizeof(float));
        });
    runtime::parallelFor(0, total, 16,
                         [&](std::size_t r0, std::size_t r1) {
                             apply_rows(pin + r0 * in_f,
                                        pout + r0 * out_f, r1 - r0);
                         });
    nn::forEachRowSpanPacked(
        rows, 64,
        [&](std::size_t r0, std::size_t r1, std::size_t p0) {
            std::memcpy(py + r0 * out_f, pout + p0 * out_f,
                        (r1 - r0) * out_f * sizeof(float));
        });
}

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

} // namespace

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng &rng)
    : in_(in_features), out_(out_features), w_(in_ * out_), b_(out_, 0.0f),
      gw_(in_ * out_, 0.0f), gb_(out_, 0.0f)
{
    // Kaiming-style init keeps activations stable for ReLU/GELU nets.
    const float stddev = std::sqrt(2.0f / static_cast<float>(in_));
    for (float &v : w_)
        v = rng.normal(stddev);
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
Dense::forwardRows(const Tensor &x, const nn::RowSet &rows)
{
    if (x.shape().back() != in_)
        throw std::invalid_argument(
            "Dense::forwardRows: feature mismatch");

    std::vector<std::size_t> out_shape = x.shape();
    out_shape.back() = out_;
    Tensor y(out_shape); // zero-init: padded rows stay 0

    const float *px = x.data();
    const float *pb = b_.data();
    float *py = y.data();
    if (rows.totalRows() < runtime::kGemmTileM) {
        // Too few rows to amortise a W^T copy (e.g. single-token
        // inference): direct dot products, same k-order chain per
        // output as the tiled path, so results are bitwise equal.
        rows.forEachSpan(0, rows.totalRows(),
                         [&](std::size_t r0, std::size_t r1) {
            for (std::size_t r = r0; r < r1; ++r) {
                const float *xr = px + r * in_;
                float *yr = py + r * out_;
                for (std::size_t o = 0; o < out_; ++o) {
                    const float *wr = &w_[o * in_];
                    float acc = pb[o];
                    for (std::size_t i = 0; i < in_; ++i)
                        acc = runtime::madd(wr[i], xr[i], acc);
                    yr[o] = acc;
                }
            }
        });
        return y;
    }
    // y = x W^T + b: transpose W once per call (pure data movement),
    // then run the register-tiled panel over the valid row spans with
    // the bias folded into the accumulator init - same fp order per
    // output as the original scalar loop, so each row's bits do not
    // depend on the spans. The transpose recurs per call because the
    // optimizer mutates w_ in place through ParamRef, so the layer has
    // no signal that weights are unchanged; at rows >= kGemmTileM the
    // O(in*out) copy is a small fraction of the O(rows*in*out) GEMM it
    // enables.
    float *wt = runtime::threadWorkspace<DenseWtWs>(in_ * out_);
    runtime::transposeInto(wt, w_.data(), out_, in_);
    const float *pw = wt;
    nn::forEachRowSpan(rows, runtime::kGemmRowGrain,
                       [&](std::size_t r0, std::size_t r1) {
        runtime::gemmRowsIKJ(px, pw, py, r0, r1, in_, out_, pb);
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

    Tensor gx(x.shape());
    const float *pg = grad_out.data();
    const float *px = x.data();
    float *pgx = gx.data();

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
                const float *wr = &w_[o * in_];
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
                float *gwr = &gw_[o * in_];
                for (std::size_t i = 0; i < in_; ++i)
                    gwr[i] = runtime::madd(g, xr[i], gwr[i]);
            }
        }
    });
    return gx;
}

Tensor
Dense::backwardReference(const Tensor &grad_out)
{
    const Tensor &x = cached_input_;
    const std::size_t rows = rowCount(x);
    if (grad_out.shape().back() != out_ || rowCount(grad_out) != rows)
        throw std::invalid_argument("Dense::backward: shape mismatch");

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
            float *gwr = &gw_[o * in_];
            const float *wr = &w_[o * in_];
            for (std::size_t i = 0; i < in_; ++i) {
                gwr[i] = runtime::madd(g, xr[i], gwr[i]);
                gxr[i] = runtime::madd(g, wr[i], gxr[i]);
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
    const std::vector<float> &w = dense.weight(); // [out, in]
    if (kind_ == QuantKind::Fp16) {
        // Round through binary16 and hold one shared widened [in, out]
        // panel: the GEMM consumes fp16-representable fp32 values, so
        // building the panel once at construction beats both per-call
        // rebuilds and retaining the raw binary16 bits nothing reads.
        std::vector<std::uint16_t> w16(w.size());
        runtime::floatToHalfBitsRow(w.data(), w16.data(), w.size());
        wt_h_.resize(w.size());
        for (std::size_t o = 0; o < out_; ++o)
            for (std::size_t i = 0; i < in_; ++i)
                wt_h_[i * out_ + o] = halfBitsToFloat(w16[o * in_ + i]);
        bias_h_.resize(out_);
        for (std::size_t o = 0; o < out_; ++o)
            bias_h_[o] = roundToHalf(dense.bias()[o]);
        return;
    }
    // int8: quantise each output feature's row, transpose to [in, out]
    // and pack pairs once - the panel consumes it with zero per-call
    // weight prep (the fp32 layer re-transposes every forward).
    bias_ = dense.bias();
    wscale_.resize(out_);
    std::vector<std::int8_t> wq(w.size());
    for (std::size_t o = 0; o < out_; ++o) {
        const float *row = w.data() + o * in_;
        wscale_[o] =
            runtime::int8Scale(runtime::maxAbsRow(row, in_));
        runtime::quantizeInt8Row(row, wq.data() + o * in_, in_,
                                 wscale_[o]);
    }
    std::vector<std::int8_t> wqt(w.size());
    runtime::transposeInto(wqt.data(), wq.data(), out_, in_);
    bp_.resize(((in_ + 1) / 2) * out_ * 2);
    runtime::packInt8PairsB(wqt.data(), bp_.data(), in_, out_);
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
QuantizedDense::forwardRows(const Tensor &x, const nn::RowSet &rows)
{
    if (x.shape().back() != in_)
        throw std::invalid_argument(
            "QuantizedDense::forwardRows: feature mismatch");
    const std::size_t padded_rows = rowCount(x);

    std::vector<std::size_t> out_shape = x.shape();
    out_shape.back() = out_;
    Tensor y(out_shape); // zero-init: padded rows stay 0
    const float *px = x.data();
    float *py = y.data();

    if (kind_ == QuantKind::Fp16) {
        // Round only the valid rows through binary16 (elementwise, so
        // per-span rounding equals the full-buffer pass bit for bit);
        // padded scratch rows are never read by the span GEMM.
        float *ah =
            runtime::threadWorkspace<QDenseAhWs>(padded_rows * in_);
        const float *wt = wt_h_.data();
        const float *pb = bias_h_.data();
        nn::forEachRowSpan(rows, runtime::kGemmRowGrain,
                           [&](std::size_t r0, std::size_t r1) {
            std::memcpy(ah + r0 * in_, px + r0 * in_,
                        (r1 - r0) * in_ * sizeof(float));
            runtime::roundRowToHalf(ah + r0 * in_, (r1 - r0) * in_);
            runtime::gemmRowsF16(ah, wt, py, r0, r1, in_, out_, pb);
        });
        return y;
    }

    std::int8_t *aq = runtime::threadWorkspaceAs<QDenseAqWs, std::int8_t>(
        padded_rows * in_);
    float *sa = runtime::threadWorkspace<QDenseScaleWs>(padded_rows);
    const std::int16_t *bp = bp_.data();
    const float *sb = wscale_.data();
    const float *pb = bias_.data();
    // Activation quantisation is per row (dynamic scale), so fusing it
    // with the GEMM sweep over the same spans is exact.
    nn::forEachRowSpan(rows, runtime::kGemmRowGrain,
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
    : op_(in_features, out_features), grad_bias_(out_features, 0.0f)
{
    op_.initRandomRotation(rng);
    grad_cores_.resize(op_.numCores());
    for (std::size_t c = 0; c < op_.numCores(); ++c)
        grad_cores_[c].assign(op_.core(c).numWeights(), 0.0f);
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
ButterflyDense::forwardRows(const Tensor &x, const nn::RowSet &rows)
{
    if (x.shape().back() != op_.inFeatures())
        throw std::invalid_argument(
            "ButterflyDense::forwardRows: feature mismatch");
    std::vector<std::size_t> out_shape = x.shape();
    out_shape.back() = op_.outFeatures();
    Tensor y(out_shape); // zero-init: padded rows stay 0

    // Inference-only: no activation caches (forward() fills
    // rows * cacheSize() floats per call for backward()).
    packedGatherApply(x, y, rows, op_.inFeatures(), op_.outFeatures(),
                      [&](const float *in, float *out,
                          std::size_t n) {
                          op_.applyToRows(in, out, n);
                      });
    return y;
}

Tensor
ButterflyDense::backward(const Tensor &grad_out)
{
    if (grad_out.shape().back() != op_.outFeatures() ||
        grad_out.size() / op_.outFeatures() != rows_)
        throw std::invalid_argument(
            "ButterflyDense::backward: shape mismatch");

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
QuantizedButterflyDense::forwardRows(const Tensor &x,
                                     const nn::RowSet &rows)
{
    if (x.shape().back() != op_.inFeatures())
        throw std::invalid_argument(
            "QuantizedButterflyDense::forwardRows: feature mismatch");
    std::vector<std::size_t> out_shape = x.shape();
    out_shape.back() = op_.outFeatures();
    Tensor y(out_shape); // zero-init: padded rows stay 0

    packedGatherApply(x, y, rows, op_.inFeatures(), op_.outFeatures(),
                      [&](const float *in, float *out,
                          std::size_t n) {
                          op_.applyToRows(in, out, n);
                      });
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
