#include "nn/basic_layers.h"

#include <cmath>
#include <stdexcept>

#include "butterfly/fft.h"
#include "runtime/kernels.h"
#include "runtime/parallel.h"
#include "runtime/reduce.h"

namespace fabnet {
namespace nn {

LayerNorm::LayerNorm(std::size_t dim, float eps)
    : dim_(dim), eps_(eps), gamma_(dim, 1.0f), beta_(dim, 0.0f)
{
}

template <bool kCache>
Tensor
LayerNorm::normRows(const Tensor &x)
{
    if (x.shape().back() != dim_)
        throw std::invalid_argument("LayerNorm: dim mismatch");
    const std::size_t n = x.size() / dim_;
    Tensor y(x.shape());
    if constexpr (kCache) {
        // Every row overwrites its cache entries, so the caches are
        // reused across calls of one shape.
        if (cached_xhat_.shape() != x.shape())
            cached_xhat_ = Tensor(x.shape());
        inv_std_.resize(n);
    }
    const float *px = x.data();
    float *py = y.data();
    float *pxh = cached_xhat_.data();
    // Rows are independent, so the sweep parallelises; each row's
    // mean/var/affine sweep keeps one fixed j-order chain.
    runtime::parallelFor(0, n, 16, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
            const float *xr = px + r * dim_;
            float mean = 0.0f;
            for (std::size_t j = 0; j < dim_; ++j)
                mean += xr[j];
            mean /= static_cast<float>(dim_);
            float var = 0.0f;
            for (std::size_t j = 0; j < dim_; ++j) {
                const float c = xr[j] - mean;
                var += c * c;
            }
            var /= static_cast<float>(dim_);
            const float inv = 1.0f / std::sqrt(var + eps_);
            if constexpr (kCache)
                inv_std_[r] = inv;
            for (std::size_t j = 0; j < dim_; ++j) {
                const float xh = (xr[j] - mean) * inv;
                if constexpr (kCache)
                    pxh[r * dim_ + j] = xh;
                py[r * dim_ + j] = gamma_[j] * xh + beta_[j];
            }
        }
    });
    return y;
}

Tensor
LayerNorm::forward(const Tensor &x)
{
    return normRows<true>(x);
}

Tensor
LayerNorm::forwardRows(const Tensor &x, const RowSet &)
{
    return normRows<false>(x);
}

Tensor
LayerNorm::backward(const Tensor &grad_out)
{
    sizeGrad(ggamma_, dim_);
    sizeGrad(gbeta_, dim_);
    const std::size_t rows = grad_out.size() / dim_;
    Tensor gx(grad_out.shape());
    const float *pg = grad_out.data();
    const float *pxh = cached_xhat_.data();
    float *pgx = gx.data();
    const float inv_d = 1.0f / static_cast<float>(dim_);

    // dL/dx: rows are independent; each row's two j-sweeps run in the
    // reference's order (the per-row sums are ascending-j chains).
    runtime::parallelFor(0, rows, 4, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
            const float *gr = pg + r * dim_;
            const float *xh = pxh + r * dim_;
            float sum_gxh = 0.0f, sum_gxh_xh = 0.0f;
            for (std::size_t j = 0; j < dim_; ++j) {
                const float gxh = gamma_[j] * gr[j];
                sum_gxh += gxh;
                sum_gxh_xh = runtime::madd(gxh, xh[j], sum_gxh_xh);
            }
            const float inv = inv_std_[r];
            for (std::size_t j = 0; j < dim_; ++j) {
                const float gxh = gamma_[j] * gr[j];
                pgx[r * dim_ + j] =
                    inv * (gxh - inv_d * sum_gxh -
                           xh[j] * inv_d * sum_gxh_xh);
            }
        }
    });

    // dL/dgamma, dL/dbeta: owner-parallel over columns (see
    // runtime/reduce.h) - each task owns the column range [j0, j1)
    // and accumulates the rows in ascending order, the reference's
    // exact chain per element.
    runtime::parallelFor(0, dim_, runtime::ownerGrain(dim_, 16),
                         [&](std::size_t j0, std::size_t j1) {
        for (std::size_t r = 0; r < rows; ++r) {
            const float *gr = pg + r * dim_;
            const float *xh = pxh + r * dim_;
            for (std::size_t j = j0; j < j1; ++j) {
                ggamma_[j] = runtime::madd(gr[j], xh[j], ggamma_[j]);
                gbeta_[j] += gr[j];
            }
        }
    });
    return gx;
}

Tensor
LayerNorm::backwardReference(const Tensor &grad_out)
{
    sizeGrad(ggamma_, dim_);
    sizeGrad(gbeta_, dim_);
    const std::size_t rows = grad_out.size() / dim_;
    Tensor gx(grad_out.shape());
    const float *pg = grad_out.data();
    const float *pxh = cached_xhat_.data();
    float *pgx = gx.data();
    const float inv_d = 1.0f / static_cast<float>(dim_);

    for (std::size_t r = 0; r < rows; ++r) {
        const float *gr = pg + r * dim_;
        const float *xh = pxh + r * dim_;
        // dL/dxhat_j = gamma_j * g_j; the projection terms remove the
        // mean and the component along xhat.
        float sum_gxh = 0.0f, sum_gxh_xh = 0.0f;
        for (std::size_t j = 0; j < dim_; ++j) {
            const float gxh = gamma_[j] * gr[j];
            sum_gxh += gxh;
            sum_gxh_xh = runtime::madd(gxh, xh[j], sum_gxh_xh);
            ggamma_[j] = runtime::madd(gr[j], xh[j], ggamma_[j]);
            gbeta_[j] += gr[j];
        }
        const float inv = inv_std_[r];
        for (std::size_t j = 0; j < dim_; ++j) {
            const float gxh = gamma_[j] * gr[j];
            pgx[r * dim_ + j] =
                inv * (gxh - inv_d * sum_gxh - xh[j] * inv_d * sum_gxh_xh);
        }
    }
    return gx;
}

void
LayerNorm::collectParams(std::vector<ParamRef> &out)
{
    out.push_back({&gamma_, &ggamma_});
    out.push_back({&beta_, &gbeta_});
}

Tensor
Gelu::forward(const Tensor &x)
{
    cached_input_ = x;
    return Gelu::forwardRows(x, allRows(x));
}

Tensor
Gelu::forwardRows(const Tensor &x, const RowSet &)
{
    const std::size_t d = x.shape().back();
    Tensor y(x.shape());
    const float *px = x.data();
    float *py = y.data();
    runtime::parallelFor(0, x.size() / d, 16,
                         [&](std::size_t r0, std::size_t r1) {
        runtime::geluRow(px + r0 * d, py + r0 * d, (r1 - r0) * d);
    });
    return y;
}

Tensor
Gelu::backward(const Tensor &grad_out)
{
    Tensor gx = grad_out;
    const float *px = cached_input_.data();
    float *pg = gx.data();
    // Elementwise, no cross-element reduction: chunked parallelism is
    // trivially bitwise identical to the serial loop.
    runtime::parallelFor(0, gx.size(), 1 << 13,
                         [&](std::size_t i0, std::size_t i1) {
                             for (std::size_t i = i0; i < i1; ++i)
                                 pg[i] *= runtime::geluGradPinned(px[i]);
                         });
    return gx;
}

FourierMix::FourierMix(std::size_t d_model) : d_(d_model)
{
    if (!isPowerOfTwo(d_))
        throw std::invalid_argument(
            "FourierMix: hidden size must be a power of two");
}

Tensor
FourierMix::forward(const Tensor &x)
{
    return fourierMix2D(x);
}

Tensor
FourierMix::forwardRows(const Tensor &x, const RowSet &rows)
{
    checkPackedRows(x, rows, d_, "FourierMix::forwardRows");
    if (rows.totalRows() != rows.batch() * rows.seq())
        throw std::invalid_argument(
            "FourierMix::forwardRows: the padding-free set required");
    return fourierMix2D(x.reshaped({rows.batch(), rows.seq(), d_}))
        .reshaped(x.shape());
}

Tensor
FourierMix::backward(const Tensor &grad_out)
{
    return fourierMix2DAdjoint(grad_out);
}

bool
FourierMix::runsLength(std::size_t seq) const
{
    return isPowerOfTwo(seq);
}

} // namespace nn
} // namespace fabnet
