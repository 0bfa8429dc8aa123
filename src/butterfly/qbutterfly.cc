#include "butterfly/qbutterfly.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "runtime/kernels.h"
#include "runtime/parallel.h"
#include "runtime/workspace.h"

namespace fabnet {

namespace {

/** Rows per stage-major block and parallel grain (see butterfly.cc).
 *  The dispatch table's one block width: a tail of fewer rows is
 *  zero-padded by the load kernels, never swept at a narrower width. */
constexpr std::size_t kQBatchRows = runtime::kBflyBlockRows;

/** Workspace tags; distinct element types get distinct storage. */
struct QMatI8Ws;    ///< int8 activations
struct QMatI16Ws;   ///< int16 stage outputs (stage-major block)
struct QMatScaleWs; ///< per-row scales
struct QMatF16Ws;   ///< fp16-representable float activations
struct QLinWs;      ///< ButterflyLinear padding / core output floats

/** Bias epilogue of the per-element reference path. */
inline float
biasEpilogue(QuantKind kind, float v, float b)
{
    return kind == QuantKind::Fp16 ? roundToHalf(v + b) : v + b;
}

/** biasEpilogue over one @p n-element span: the adds, then (Fp16) one
 *  dispatched binary16 row round - F16C's RNE round is roundToHalf's
 *  (tests/quantize_golden_test.cpp), so the bits are the same. */
inline void
biasEpilogueRow(QuantKind kind, const float *v, const float *b, float *dst,
                std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        dst[j] = v[j] + b[j];
    if (kind == QuantKind::Fp16)
        runtime::roundRowToHalf(dst, n);
}

} // namespace

QuantizedButterflyMatrix::QuantizedButterflyMatrix(
    const ButterflyMatrix &m, QuantKind kind)
    : n_(m.size()), stages_(m.numStages()), kind_(kind)
{
    const std::vector<float> &w = m.weights();
    if (kind_ == QuantKind::Fp16) {
        wh_.resize(w.size());
        for (std::size_t i = 0; i < w.size(); ++i)
            wh_[i] = roundToHalf(w[i]);
        return;
    }
    wq_.resize(w.size());
    wscale_.resize(stages_);
    const std::size_t per_stage = (n_ / 2) * 4;
    for (std::size_t s = 0; s < stages_; ++s) {
        const float *ws = w.data() + s * per_stage;
        wscale_[s] =
            runtime::int8Scale(runtime::maxAbsRow(ws, per_stage));
        runtime::quantizeInt8Row(ws, wq_.data() + s * per_stage,
                                 per_stage, wscale_[s]);
    }
}

// --------------------------------------------------------- int8 rows

namespace {

/**
 * int8 stages over one row held in @p q (int8[n]) with scratch
 * @p y (int32[n]); returns the final activation scale. The float
 * expressions here are THE contract - the batched path below runs the
 * same ones per row.
 */
float
int8StagesRow(const std::int8_t *wq, const float *wscale, std::size_t n,
              std::size_t stages, float scale, std::int8_t *q,
              std::int32_t *y)
{
    for (std::size_t s = 0; s < stages; ++s) {
        const std::int8_t *ws = wq + s * (n / 2) * 4;
        const std::size_t h = std::size_t{1} << s;
        const std::int8_t *wp = ws;
        for (std::size_t base = 0; base < n; base += 2 * h) {
            for (std::size_t j = 0; j < h; ++j, wp += 4) {
                const std::size_t i1 = base + j;
                const std::size_t i2 = i1 + h;
                const std::int32_t x1 = q[i1], x2 = q[i2];
                y[i1] = wp[0] * x1 + wp[1] * x2;
                y[i2] = wp[2] * x1 + wp[3] * x2;
            }
        }
        std::int32_t m = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const std::int32_t a = y[i] < 0 ? -y[i] : y[i];
            if (a > m)
                m = a;
        }
        if (m == 0) {
            std::memset(q, 0, n);
            continue; // scale unchanged; row is exactly zero now
        }
        const float f = static_cast<float>(runtime::kInt8Max) /
                        static_cast<float>(m);
        for (std::size_t i = 0; i < n; ++i)
            q[i] = runtime::requantInt8(y[i], f);
        scale = runtime::int8StageScale(scale, wscale[s], m);
    }
    return scale;
}

} // namespace

void
QuantizedButterflyMatrix::applyReference(const float *in,
                                         float *out) const
{
    if (kind_ == QuantKind::Fp16) {
        std::vector<float> buf(n_);
        for (std::size_t i = 0; i < n_; ++i)
            buf[i] = roundToHalf(in[i]);
        for (std::size_t s = 0; s < stages_; ++s) {
            const float *ws = wh_.data() + s * (n_ / 2) * 4;
            for (std::size_t p = 0; p < n_ / 2; ++p) {
                std::size_t i1, i2;
                ButterflyMatrix::pairIndices(s, p, i1, i2);
                const float x1 = buf[i1], x2 = buf[i2];
                const float *w = ws + p * 4;
                // In-place is safe: a pair only touches its own lanes.
                buf[i1] = runtime::f16PairOut(w[0], x1, w[1], x2);
                buf[i2] = runtime::f16PairOut(w[2], x1, w[3], x2);
            }
        }
        std::memcpy(out, buf.data(), n_ * sizeof(float));
        return;
    }

    const float m_in = runtime::maxAbsRow(in, n_);
    if (m_in == 0.0f) {
        std::memset(out, 0, n_ * sizeof(float));
        return;
    }
    float scale = runtime::int8Scale(m_in);
    std::vector<std::int8_t> q(n_);
    std::vector<std::int32_t> y(n_);
    runtime::quantizeInt8Row(in, q.data(), n_, scale);
    scale = int8StagesRow(wq_.data(), wscale_.data(), n_, stages_, scale,
                          q.data(), y.data());
    for (std::size_t i = 0; i < n_; ++i)
        out[i] = static_cast<float>(q[i]) * scale;
}

void
QuantizedButterflyMatrix::applyRows(const float *in, float *out,
                                    std::size_t rows) const
{
    for (std::size_t r0 = 0; r0 < rows; r0 += kQBatchRows) {
        const std::size_t nb = std::min(kQBatchRows, rows - r0);
        if (kind_ == QuantKind::Fp16) {
            // Transposed [n, 16] block, operands rounded on load; each
            // pair op is the same f16PairOut expression as the scalar
            // path, so results match it bitwise. The stage sweep is the
            // ISA-dispatched qbfly_f16_stage kernel.
            float *buf =
                runtime::threadWorkspace<QMatF16Ws>(n_ * kQBatchRows);
            const runtime::KernelTable &kt = runtime::kernels();
            kt.qbfly_f16_transpose_in(in + r0 * n_, buf, n_, nb, n_);
            for (std::size_t s = 0; s < stages_; ++s) {
                const float *wp = wh_.data() + s * (n_ / 2) * 4;
                const std::size_t h = std::size_t{1} << s;
                kt.qbfly_f16_stage(buf, wp, n_, h);
            }
            kt.bfly_transpose_out(buf, out + r0 * n_, n_, nb, n_);
            continue;
        }

        // int8: transposed int8 block + int16 stage buffer + per-lane
        // scales. Integer stage ops are exact in any order; the float
        // quantise/requantise expressions run per row exactly as in
        // int8StagesRow, and padding lanes stay zero with scale 0. The
        // stage multiply and the requantisation are the ISA-dispatched
        // qbfly_i8_stage / qbfly_i8_requant kernels.
        std::int8_t *q = runtime::threadWorkspaceAs<QMatI8Ws,
                                                    std::int8_t>(
            n_ * kQBatchRows);
        std::int16_t *y = runtime::threadWorkspaceAs<QMatI16Ws,
                                                     std::int16_t>(
            n_ * kQBatchRows);
        float *scale = runtime::threadWorkspace<QMatScaleWs>(kQBatchRows);

        const runtime::KernelTable &kt = runtime::kernels();
        kt.qbfly_i8_quant_in(in + r0 * n_, q, scale, n_, nb, n_);
        for (std::size_t s = 0; s < stages_; ++s) {
            const std::int8_t *w = wq_.data() + s * (n_ / 2) * 4;
            const std::size_t h = std::size_t{1} << s;
            kt.qbfly_i8_stage(q, y, w, n_, h);
            kt.qbfly_i8_requant(y, q, scale, wscale_[s], n_);
        }
        kt.qbfly_i8_dequant_out(q, scale, out + r0 * n_, n_, nb, n_);
    }
}

Tensor
QuantizedButterflyMatrix::applyBatch(const Tensor &x) const
{
    if (x.rank() != 2 || x.dim(1) != n_)
        throw std::invalid_argument(
            "QuantizedButterflyMatrix::applyBatch: [rows, n] required");
    const std::size_t rows = x.dim(0);
    Tensor y = Tensor::zeros(rows, n_);
    const float *px = x.data();
    float *py = y.data();
    runtime::parallelFor(0, rows, kQBatchRows,
                         [&](std::size_t r0, std::size_t r1) {
                             applyRows(px + r0 * n_, py + r0 * n_,
                                       r1 - r0);
                         });
    return y;
}

Tensor
QuantizedButterflyMatrix::applyBatchReference(const Tensor &x) const
{
    if (x.rank() != 2 || x.dim(1) != n_)
        throw std::invalid_argument(
            "QuantizedButterflyMatrix::applyBatchReference: [rows, n] "
            "required");
    Tensor y = Tensor::zeros(x.dim(0), n_);
    for (std::size_t r = 0; r < x.dim(0); ++r)
        applyReference(x.data() + r * n_, y.data() + r * n_);
    return y;
}

// ------------------------------------------- QuantizedButterflyLinear

QuantizedButterflyLinear::QuantizedButterflyLinear(
    const ButterflyLinear &lin, QuantKind kind)
    : in_(lin.inFeatures()), out_(lin.outFeatures()),
      core_n_(lin.coreSize()), kind_(kind), bias_(lin.bias())
{
    cores_.reserve(lin.numCores());
    for (std::size_t c = 0; c < lin.numCores(); ++c)
        cores_.emplace_back(lin.core(c), kind);
    if (kind_ == QuantKind::Fp16)
        for (float &b : bias_)
            b = roundToHalf(b);
}

void
QuantizedButterflyLinear::applyToRows(const float *in, float *out,
                                      std::size_t rows) const
{
    // Mirrors ButterflyLinear::applyToRows: stage-major blocks of
    // kQBatchRows padded rows, per-core sweeps, quantized bias
    // epilogue on the truncated copy-out. Exactly equal to
    // applyBatchReference() for any chunking (the int8 path is
    // integer-exact, the fp16 path shares its rounding points).
    for (std::size_t b0 = 0; b0 < rows; b0 += kQBatchRows) {
        const std::size_t nb = std::min(kQBatchRows, rows - b0);
        float *scratch =
            runtime::threadWorkspace<QLinWs>(2 * kQBatchRows * core_n_);
        float *padded = scratch;
        float *core_out = scratch + nb * core_n_;
        std::fill(padded, padded + nb * core_n_, 0.0f);
        for (std::size_t r = 0; r < nb; ++r)
            std::memcpy(padded + r * core_n_, in + (b0 + r) * in_,
                        in_ * sizeof(float));
        for (std::size_t c = 0; c < cores_.size(); ++c) {
            cores_[c].applyRows(padded, core_out, nb);
            const std::size_t base = c * core_n_;
            const std::size_t take = std::min(core_n_, out_ - base);
            for (std::size_t r = 0; r < nb; ++r)
                biasEpilogueRow(kind_, core_out + r * core_n_,
                                bias_.data() + base,
                                out + (b0 + r) * out_ + base, take);
        }
    }
}

Tensor
QuantizedButterflyLinear::applyBatch(const Tensor &x) const
{
    if (x.rank() != 2 || x.dim(1) != in_)
        throw std::invalid_argument(
            "QuantizedButterflyLinear::applyBatch: [rows, in] required");
    const std::size_t rows = x.dim(0);
    Tensor y = Tensor::zeros(rows, out_);
    const float *px = x.data();
    float *py = y.data();
    runtime::parallelFor(0, rows, kQBatchRows,
                         [&](std::size_t r0, std::size_t r1) {
                             applyToRows(px + r0 * in_, py + r0 * out_,
                                         r1 - r0);
                         });
    return y;
}

Tensor
QuantizedButterflyLinear::applyBatchReference(const Tensor &x) const
{
    if (x.rank() != 2 || x.dim(1) != in_)
        throw std::invalid_argument(
            "QuantizedButterflyLinear::applyBatchReference: [rows, in] "
            "required");
    Tensor y = Tensor::zeros(x.dim(0), out_);
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
                out[base + j] = biasEpilogue(kind_, core_out[j],
                                             bias_[base + j]);
        }
    }
    return y;
}

} // namespace fabnet
