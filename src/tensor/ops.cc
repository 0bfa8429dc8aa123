#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "runtime/kernels.h"
#include "runtime/parallel.h"
#include "runtime/reduce.h"
#include "runtime/workspace.h"

namespace fabnet {
namespace ops {

namespace {

void
requireRank2(const Tensor &t, const char *what)
{
    if (t.rank() != 2)
        throw std::invalid_argument(std::string(what) +
                                    ": rank-2 tensor required, got " +
                                    t.shapeString());
}

void
requireSameShape(const Tensor &a, const Tensor &b, const char *what)
{
    if (a.shape() != b.shape())
        throw std::invalid_argument(std::string(what) + ": shape mismatch " +
                                    a.shapeString() + " vs " +
                                    b.shapeString());
}

/** Workspace tag for matmulTransposed's per-call B^T copy. */
struct MatmulTWs;

/** Workspace tags for the quantised GEMM entry points. */
struct MatmulI8Ws;  ///< int8 operands (A then B, one int8 buffer)
struct MatmulI8PWs; ///< packed int16 B pairs
struct MatmulI8SWs; ///< per-row/per-column scales (floats)
struct MatmulF16Ws; ///< fp16-rounded operand copies

void
checkMatmulShapes(const Tensor &a, const Tensor &b, const char *what)
{
    requireRank2(a, what);
    requireRank2(b, what);
    if (b.dim(0) != a.dim(1))
        throw std::invalid_argument(std::string(what) +
                                    ": inner dimension mismatch");
}

/**
 * Quantise GEMM operands the one canonical way: A per row, B per
 * column, scales from the row/column max-abs through
 * runtime::int8Scale. Both the panel path and the scalar reference
 * quantise through this helper, so their int8 operands are identical
 * by construction.
 */
void
quantizeGemmOperandsInt8(const Tensor &a, const Tensor &b,
                         std::int8_t *aq, std::int8_t *bq, float *sa,
                         float *sb)
{
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    const float *pa = a.data();
    const float *pb = b.data();
    for (std::size_t i = 0; i < m; ++i) {
        sa[i] = runtime::int8Scale(runtime::maxAbsRow(pa + i * k, k));
        runtime::quantizeInt8Row(pa + i * k, aq + i * k, k, sa[i]);
    }
    for (std::size_t j = 0; j < n; ++j)
        sb[j] = 0.0f;
    for (std::size_t kk = 0; kk < k; ++kk) {
        const float *brow = pb + kk * n;
        for (std::size_t j = 0; j < n; ++j)
            sb[j] = std::max(sb[j], std::fabs(brow[j]));
    }
    for (std::size_t j = 0; j < n; ++j)
        sb[j] = runtime::int8Scale(sb[j]);
    // Row-major sweep with per-column inverse scales keeps the writes
    // contiguous (a column-major loop is ~4x slower at 512^2).
    std::vector<float> inv(n);
    for (std::size_t j = 0; j < n; ++j)
        inv[j] = 1.0f / sb[j];
    for (std::size_t kk = 0; kk < k; ++kk)
        runtime::quantizeInt8RowPerCol(pb + kk * n, bq + kk * n, n,
                                       inv.data());
}

} // namespace

namespace reference {

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    requireRank2(a, "matmul");
    requireRank2(b, "matmul");
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    if (b.dim(0) != k)
        throw std::invalid_argument("matmul: inner dimension mismatch");

    Tensor c = Tensor::zeros(m, n);
    const float *pa = a.data();
    const float *pb = b.data();
    float *pc = c.data();
    // i-k-j loop order keeps the inner loop contiguous for both B and C.
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float av = pa[i * k + kk];
            const float *brow = pb + kk * n;
            float *crow = pc + i * n;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] = runtime::madd(av, brow[j], crow[j]);
        }
    }
    return c;
}

Tensor
matmulTransposed(const Tensor &a, const Tensor &b)
{
    requireRank2(a, "matmulTransposed");
    requireRank2(b, "matmulTransposed");
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
    if (b.dim(1) != k)
        throw std::invalid_argument("matmulTransposed: dimension mismatch");

    Tensor c = Tensor::zeros(m, n);
    const float *pa = a.data();
    const float *pb = b.data();
    float *pc = c.data();
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const float *arow = pa + i * k;
            const float *brow = pb + j * k;
            float acc = 0.0f;
            for (std::size_t kk = 0; kk < k; ++kk)
                acc = runtime::madd(arow[kk], brow[kk], acc);
            pc[i * n + j] = acc;
        }
    }
    return c;
}

Tensor
matmulGradA(const Tensor &grad_c, const Tensor &b)
{
    // dL/dA = gC * B^T is exactly the A*B^T dot-product kernel with
    // gC as the left operand; delegate so the seed chain order lives
    // in one place.
    return matmulTransposed(grad_c, b);
}

Tensor
matmulGradB(const Tensor &a, const Tensor &grad_c)
{
    requireRank2(a, "matmulGradB");
    requireRank2(grad_c, "matmulGradB");
    const std::size_t m = a.dim(0), k = a.dim(1), n = grad_c.dim(1);
    if (grad_c.dim(0) != m)
        throw std::invalid_argument("matmulGradB: row count mismatch");

    Tensor c = Tensor::zeros(k, n);
    const float *pa = a.data();
    const float *pg = grad_c.data();
    float *pc = c.data();
    // dB[i][j] = sum_r A[r][i] * gC[r][j], r strictly ascending.
    for (std::size_t i = 0; i < k; ++i) {
        float *crow = pc + i * n;
        for (std::size_t r = 0; r < m; ++r) {
            const float av = pa[r * k + i];
            const float *grow = pg + r * n;
            for (std::size_t j = 0; j < n; ++j)
                crow[j] = runtime::madd(av, grow[j], crow[j]);
        }
    }
    return c;
}

Tensor
matmulInt8(const Tensor &a, const Tensor &b)
{
    checkMatmulShapes(a, b, "matmulInt8");
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);

    std::vector<std::int8_t> aq(m * k), bq(k * n);
    std::vector<float> sa(m), sb(n);
    quantizeGemmOperandsInt8(a, b, aq.data(), bq.data(), sa.data(),
                             sb.data());

    Tensor c = Tensor::zeros(m, n);
    float *pc = c.data();
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            std::int32_t acc = 0;
            for (std::size_t kk = 0; kk < k; ++kk)
                acc += static_cast<std::int32_t>(aq[i * k + kk]) *
                       static_cast<std::int32_t>(bq[kk * n + j]);
            pc[i * n + j] = runtime::dequantInt8(acc, sa[i], sb[j]);
        }
    }
    return c;
}

Tensor
matmulF16(const Tensor &a, const Tensor &b)
{
    checkMatmulShapes(a, b, "matmulF16");
    Tensor ar = a;
    Tensor br = b;
    runtime::roundRowToHalf(ar.data(), ar.size());
    runtime::roundRowToHalf(br.data(), br.size());
    Tensor c = matmul(ar, br); // scalar seed ikj chain
    const std::size_t n = c.dim(1);
    for (std::size_t r = 0; r < c.dim(0); ++r)
        runtime::roundRowToHalf(c.data() + r * n, n);
    return c;
}

} // namespace reference

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    requireRank2(a, "matmul");
    requireRank2(b, "matmul");
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    if (b.dim(0) != k)
        throw std::invalid_argument("matmul: inner dimension mismatch");

    Tensor c = Tensor::zeros(m, n);
    const float *pa = a.data();
    const float *pb = b.data();
    float *pc = c.data();
    runtime::parallelFor(0, m, runtime::kGemmRowGrain,
                         [&](std::size_t r0, std::size_t r1) {
                             runtime::gemmRowsIKJ(pa, pb, pc, r0, r1, k, n);
                         });
    return c;
}

Tensor
matmulTransposed(const Tensor &a, const Tensor &b)
{
    requireRank2(a, "matmulTransposed");
    requireRank2(b, "matmulTransposed");
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
    if (b.dim(1) != k)
        throw std::invalid_argument("matmulTransposed: dimension mismatch");

    Tensor c = Tensor::zeros(m, n);
    const float *pa = a.data();
    float *pc = c.data();
    // Physically transpose B once (pure data movement, no arithmetic)
    // so the register-tiled panel kernel runs on contiguous columns;
    // per-output accumulation order is unchanged, so results stay
    // bitwise identical to the scalar dot-product reference.
    float *bt = runtime::threadWorkspace<MatmulTWs>(k * n);
    runtime::transposeInto(bt, b.data(), n, k);
    runtime::parallelFor(0, m, runtime::kGemmRowGrain,
                         [&](std::size_t r0, std::size_t r1) {
                             runtime::gemmRowsIKJ(pa, bt, pc, r0, r1, k, n);
                         });
    return c;
}

Tensor
matmulGradA(const Tensor &grad_c, const Tensor &b)
{
    // Same delegation as the reference: gC [m,n] * (B [k,n])^T is the
    // A*B^T panel with matching shapes and the identical ascending-n
    // per-element chain.
    return matmulTransposed(grad_c, b);
}

Tensor
matmulGradB(const Tensor &a, const Tensor &grad_c)
{
    requireRank2(a, "matmulGradB");
    requireRank2(grad_c, "matmulGradB");
    const std::size_t m = a.dim(0), k = a.dim(1), n = grad_c.dim(1);
    if (grad_c.dim(0) != m)
        throw std::invalid_argument("matmulGradB: row count mismatch");

    Tensor c = Tensor::zeros(k, n);
    const float *pa = a.data();
    const float *pg = grad_c.data();
    float *pc = c.data();
    // Owner-parallel over dB rows (runtime/reduce.h): each task owns
    // the disjoint row range [i0, i1) of dL/dB and accumulates the m
    // contributions in the reference's ascending-r order, walking gC
    // row-major per r so the inner loop stays contiguous.
    runtime::parallelFor(0, k,
                         runtime::ownerGrain(k, runtime::kGemmRowGrain),
                         [&](std::size_t i0, std::size_t i1) {
        for (std::size_t r = 0; r < m; ++r) {
            const float *arow = pa + r * k;
            const float *grow = pg + r * n;
            for (std::size_t i = i0; i < i1; ++i) {
                const float av = arow[i];
                float *crow = pc + i * n;
                for (std::size_t j = 0; j < n; ++j)
                    crow[j] = runtime::madd(av, grow[j], crow[j]);
            }
        }
    });
    return c;
}

Tensor
matmulInt8(const Tensor &a, const Tensor &b)
{
    checkMatmulShapes(a, b, "matmulInt8");
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);

    std::int8_t *q8 = runtime::threadWorkspaceAs<MatmulI8Ws, std::int8_t>(
        m * k + k * n);
    std::int8_t *aq = q8;
    std::int8_t *bq = q8 + m * k;
    float *scales =
        runtime::threadWorkspace<MatmulI8SWs>(m + n);
    float *sa = scales;
    float *sb = scales + m;
    quantizeGemmOperandsInt8(a, b, aq, bq, sa, sb);

    std::int16_t *bp =
        runtime::threadWorkspaceAs<MatmulI8PWs, std::int16_t>(
            ((k + 1) / 2) * n * 2);
    runtime::packInt8PairsB(bq, bp, k, n);

    Tensor c = Tensor::zeros(m, n);
    float *pc = c.data();
    runtime::parallelFor(0, m, runtime::kGemmRowGrain,
                         [&](std::size_t r0, std::size_t r1) {
                             runtime::gemmRowsInt8(aq, bp, pc, r0, r1,
                                                   k, n, sa, sb);
                         });
    return c;
}

Tensor
matmulF16(const Tensor &a, const Tensor &b)
{
    checkMatmulShapes(a, b, "matmulF16");
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);

    float *rounded =
        runtime::threadWorkspace<MatmulF16Ws>(m * k + k * n);
    float *aw = rounded;
    float *bw = rounded + m * k;
    std::memcpy(aw, a.data(), m * k * sizeof(float));
    std::memcpy(bw, b.data(), k * n * sizeof(float));
    runtime::roundRowToHalf(aw, m * k);
    runtime::roundRowToHalf(bw, k * n);

    Tensor c = Tensor::zeros(m, n);
    float *pc = c.data();
    runtime::parallelFor(0, m, runtime::kGemmRowGrain,
                         [&](std::size_t r0, std::size_t r1) {
                             runtime::gemmRowsF16(aw, bw, pc, r0, r1, k, n);
                         });
    return c;
}

Tensor
transpose(const Tensor &a)
{
    requireRank2(a, "transpose");
    const std::size_t m = a.dim(0), n = a.dim(1);
    Tensor t = Tensor::zeros(n, m);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j)
            t.at(j, i) = a.at(i, j);
    return t;
}

Tensor
add(const Tensor &a, const Tensor &b)
{
    requireSameShape(a, b, "add");
    Tensor c = a;
    float *pc = c.data();
    const float *pb = b.data();
    for (std::size_t i = 0; i < c.size(); ++i)
        pc[i] += pb[i];
    return c;
}

Tensor
sub(const Tensor &a, const Tensor &b)
{
    requireSameShape(a, b, "sub");
    Tensor c = a;
    float *pc = c.data();
    const float *pb = b.data();
    for (std::size_t i = 0; i < c.size(); ++i)
        pc[i] -= pb[i];
    return c;
}

Tensor
mul(const Tensor &a, const Tensor &b)
{
    requireSameShape(a, b, "mul");
    Tensor c = a;
    float *pc = c.data();
    const float *pb = b.data();
    for (std::size_t i = 0; i < c.size(); ++i)
        pc[i] *= pb[i];
    return c;
}

Tensor
scale(const Tensor &a, float s)
{
    Tensor c = a;
    for (float &v : c.raw())
        v *= s;
    return c;
}

Tensor
softmaxLastDim(const Tensor &a)
{
    if (a.rank() < 2)
        throw std::invalid_argument("softmaxLastDim: rank >= 2 required");
    const std::size_t d = a.shape().back();
    const std::size_t rows = a.size() / d;
    Tensor out = a;
    float *p = out.data();
    // Scale 1.0f is exact, so this is the attention softmax chain.
    runtime::parallelFor(0, rows, 16, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r)
            runtime::softmaxRow(p + r * d, d, 1.0f);
    });
    return out;
}

Tensor
layerNormLastDim(const Tensor &a, const std::vector<float> &gamma,
                 const std::vector<float> &beta, float eps)
{
    const std::size_t d = a.shape().back();
    if (gamma.size() != d || beta.size() != d)
        throw std::invalid_argument("layerNormLastDim: affine size mismatch");
    const std::size_t rows = a.size() / d;
    Tensor out = a;
    float *p = out.data();
    const float *pg = gamma.data();
    const float *pb = beta.data();
    runtime::parallelFor(0, rows, 16, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t r = r0; r < r1; ++r) {
            float *row = p + r * d;
            float mean = 0.0f;
            for (std::size_t j = 0; j < d; ++j)
                mean += row[j];
            mean /= static_cast<float>(d);
            float var = 0.0f;
            for (std::size_t j = 0; j < d; ++j) {
                const float c = row[j] - mean;
                var += c * c;
            }
            var /= static_cast<float>(d);
            const float inv_std = 1.0f / std::sqrt(var + eps);
            for (std::size_t j = 0; j < d; ++j)
                row[j] = (row[j] - mean) * inv_std * pg[j] + pb[j];
        }
    });
    return out;
}

Tensor
relu(const Tensor &a)
{
    Tensor c = a;
    for (float &v : c.raw())
        v = std::max(v, 0.0f);
    return c;
}

Tensor
gelu(const Tensor &a)
{
    Tensor c = a;
    runtime::geluRow(c.data(), c.data(), c.size());
    return c;
}

double
sum(const Tensor &a)
{
    double s = 0.0;
    for (float v : a.raw())
        s += v;
    return s;
}

double
mean(const Tensor &a)
{
    return a.size() ? sum(a) / static_cast<double>(a.size()) : 0.0;
}

float
maxAbs(const Tensor &a)
{
    float m = 0.0f;
    for (float v : a.raw())
        m = std::max(m, std::fabs(v));
    return m;
}

float
maxAbsDiff(const Tensor &a, const Tensor &b)
{
    requireSameShape(a, b, "maxAbsDiff");
    float m = 0.0f;
    const float *pa = a.data();
    const float *pb = b.data();
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::fabs(pa[i] - pb[i]));
    return m;
}

bool
allClose(const Tensor &a, const Tensor &b, float tol)
{
    if (a.shape() != b.shape())
        return false;
    return maxAbsDiff(a, b) <= tol;
}

} // namespace ops
} // namespace fabnet
