#include "nn/attention.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "runtime/kernels.h"
#include "runtime/parallel.h"
#include "runtime/workspace.h"

namespace fabnet {
namespace nn {

MultiHeadAttention::MultiHeadAttention(std::size_t d_model,
                                       std::size_t heads,
                                       std::unique_ptr<Layer> proj_q,
                                       std::unique_ptr<Layer> proj_k,
                                       std::unique_ptr<Layer> proj_v,
                                       std::unique_ptr<Layer> proj_o,
                                       bool causal)
    : d_model_(d_model), heads_(heads), causal_(causal),
      proj_q_(std::move(proj_q)), proj_k_(std::move(proj_k)),
      proj_v_(std::move(proj_v)), proj_o_(std::move(proj_o))
{
    if (d_model_ % heads_ != 0)
        throw std::invalid_argument(
            "MultiHeadAttention: d_model must be divisible by heads");
}

namespace {

/**
 * Head-slice helpers: activations are stored [b, t, d] with head h
 * occupying columns [h*dh, (h+1)*dh). These accessors avoid a
 * physical [b, h, t, dh] reshape.
 */
inline const float *
rowPtr(const Tensor &x, std::size_t b, std::size_t t_idx)
{
    return x.data() + (b * x.dim(1) + t_idx) * x.dim(2);
}

inline float *
rowPtr(Tensor &x, std::size_t b, std::size_t t_idx)
{
    return x.data() + (b * x.dim(1) + t_idx) * x.dim(2);
}

/** Workspace tag for one (batch, head) task's panels and scratch. */
struct AttnWs;
/** Workspace tag for the backward pass's gathered/accumulator panels. */
struct AttnGradWs;
/** Workspace tag for the sparse paths' selected-index scratch. */
struct AttnSelWs;

/**
 * Query rows per block of the attention core: one score GEMM per
 * block, and one context GEMM when the block's rows share a visible
 * count. A fixed constant rather than an option: the row count only
 * partitions work, so it cannot change a bit, and at t = 2048 (d = 64,
 * 2 heads, AVX-512 Xeon) blocks of 4 to 64 rows ran within 15% of each
 * other, 32 and 64 at the fast end.
 */
constexpr std::size_t kQueryBlock = 32;

/**
 * One (batch, head) task's operands, carved from the calling thread's
 * workspace by headPanels(): gathered query/context rows, K^T and V
 * over the task's real keys, the score block, and - approximate kinds
 * only - the selection scratch.
 */
struct HeadPanels
{
    std::size_t valid = 0; ///< real keys (K/V rows gathered)
    std::size_t dh = 0;    ///< head width
    float *qh = nullptr;   ///< query rows, [qrows, dh]
    float *ch = nullptr;   ///< context rows, [qrows, dh]
    float *kht = nullptr;  ///< K^T, [dh, valid] (row stride valid)
    float *vh = nullptr;   ///< V, [valid, dh]
    float *sblk = nullptr; ///< score block, [block rows, valid]
    float *prow = nullptr; ///< selected probabilities, [valid]
    float *vsel = nullptr; ///< gathered selected V rows, [valid, dh]
    std::uint32_t *sel = nullptr;  ///< selected key indices, [valid]
    std::uint32_t *cand = nullptr; ///< butterfly candidates, [valid]
};

/**
 * Carve a task's panels for @p qrows gathered query rows, @p valid real
 * keys and a score block of @p block_rows rows.
 */
HeadPanels
headPanels(std::size_t qrows, std::size_t valid, std::size_t dh,
           std::size_t block_rows, bool approx)
{
    HeadPanels p;
    p.valid = valid;
    p.dh = dh;
    const std::size_t floats = 2 * qrows * dh + 2 * valid * dh +
                               block_rows * valid +
                               (approx ? valid * (dh + 1) : 0);
    p.qh = runtime::threadWorkspace<AttnWs>(floats);
    p.ch = p.qh + qrows * dh;
    p.kht = p.ch + qrows * dh;
    p.vh = p.kht + valid * dh;
    p.sblk = p.vh + valid * dh;
    if (approx) {
        p.prow = p.sblk + block_rows * valid;
        p.vsel = p.prow + valid;
        p.sel = runtime::threadWorkspaceAs<AttnSelWs, std::uint32_t>(
            2 * valid);
        p.cand = p.sel + valid;
    }
    return p;
}

/**
 * Approximate attention for query @p i: select keys, softmax over the
 * selected set only, context over the gathered selected V rows.
 * Selection is deterministic (nn/sparse_attention.h) and the selected
 * set is processed in ascending key order through softmaxRow and one
 * gemmRowsIKJ row call, so TopK with k >= visible reproduces the dense
 * bits and every kind is bitwise run-to-run deterministic. Selection
 * depends only on i and the real prefix, so the ragged/unpadded/decode
 * parity argument carries over unchanged.
 *
 * @param i        query position (key index space, < visible)
 * @param visible  number of visible keys (causal prefix or valid len)
 * @param qi       query head slice, [dh]
 * @param srow     TopK: the query's full score row from the block
 *                 score GEMM; butterfly kinds: candidate-score
 *                 scratch. [>= visible]
 * @param ci       context output row, [dh] (overwritten)
 * @param arow     optional dense attn_ cache row (zero-initialised):
 *                 selected probabilities land at their key positions
 */
void
sparseAttendRow(const SparseAttentionConfig &sparse, const HeadPanels &p,
                std::size_t i, std::size_t visible, float scale,
                const float *qi, float *srow, float *ci, float *arow)
{
    const std::size_t dh = p.dh;
    float *prow = p.prow;
    std::uint32_t *sel = p.sel;
    std::size_t m = 0;
    if (sparse.kind == SparseKind::TopK) {
        // Exact scores, pruned after (the A^3 approximation).
        m = selectTopK(srow, visible, sparse.k, sel);
        for (std::size_t s = 0; s < m; ++s)
            prow[s] = srow[sel[s]];
    } else {
        // Butterfly kinds: scores ONLY at the O(log t) candidate
        // positions - the full score row is never materialised. Each
        // score's reduction runs the same ascending-c madd chain as
        // the score GEMM, so a shared position carries the same bits.
        std::uint32_t *cand = p.cand;
        const std::size_t nc = butterflyCandidates(i, visible, cand);
        for (std::size_t s = 0; s < nc; ++s) {
            const float *krow = p.kht + cand[s];
            float acc = 0.0f;
            for (std::size_t c = 0; c < dh; ++c)
                acc = runtime::madd(qi[c], krow[c * p.valid], acc);
            srow[s] = acc;
        }
        if (sparse.kind == SparseKind::ButterflyTopK && sparse.k < nc) {
            m = selectTopK(srow, nc, sparse.k, sel);
            for (std::size_t s = 0; s < m; ++s) {
                prow[s] = srow[sel[s]];
                sel[s] = cand[sel[s]];
            }
        } else {
            m = nc;
            for (std::size_t s = 0; s < m; ++s) {
                prow[s] = srow[s];
                sel[s] = cand[s];
            }
        }
    }
    runtime::softmaxRow(prow, m, scale);
    // Training cache: probabilities at their original key positions;
    // unselected keys stay exactly zero, which backward() skips -
    // straight-through selection, no new backward code.
    if (arow)
        for (std::size_t s = 0; s < m; ++s)
            arow[sel[s]] = prow[s];
    // Context over the gathered selected V rows, through the same row
    // kernel as the dense path (identity selection -> identical call).
    for (std::size_t s = 0; s < m; ++s)
        std::memcpy(p.vsel + s * dh, p.vh + sel[s] * dh,
                    dh * sizeof(float));
    runtime::gemmRowsIKJ(prow, p.vsel, ci, 0, 1, m, dh);
}

/**
 * Attention for query rows [i0, i0 + rows) of one (batch, head) task,
 * rows <= the panels' score-block rows. The one core behind every
 * forward entry point: forwardImpl walks a task's queries in blocks of
 * kQueryBlock, and forwardStep is a one-row block (query L - 1 over
 * the L cached keys).
 *
 * Dense and TopK score the whole block with one GEMM over the real
 * keys, [rows x dh] * [dh x valid]; causal rows ignore the columns past
 * their visible prefix. Dense then runs softmaxRow per row and one
 * context GEMM, [rows x valid] * [valid x dh], when every row sees all
 * valid keys - or one row call each when the visible counts differ
 * (causal). The block's row count cannot change a bit: every register
 * tile of the fp32 GEMM keeps one k-ascending madd chain from zero per
 * output, which is exactly the chain of a per-key dot product and of a
 * one-row context call.
 *
 * @param qb  query rows i0.., [rows, dh]
 * @param cb  context rows i0.., [rows, dh] (overwritten)
 * @param ab  attn_ row of query i0 (training cache, zero-initialised,
 *            rows @p ab_stride apart) or null
 */
void
attendBlock(const HeadPanels &p, const SparseAttentionConfig &sparse,
            bool causal, float scale, std::size_t i0, std::size_t rows,
            const float *qb, float *cb, float *ab, std::size_t ab_stride)
{
    const std::size_t valid = p.valid;
    const std::size_t dh = p.dh;
    const auto visibleOf = [&](std::size_t i) {
        return causal ? std::min(i + 1, valid) : valid;
    };
    if (sparse.kind == SparseKind::Dense ||
        sparse.kind == SparseKind::TopK)
        runtime::gemmRowsIKJ(qb, p.kht, p.sblk, 0, rows, dh, valid);
    if (!sparse.dense()) {
        for (std::size_t r = 0; r < rows; ++r)
            sparseAttendRow(sparse, p, i0 + r, visibleOf(i0 + r), scale,
                            qb + r * dh, p.sblk + r * valid, cb + r * dh,
                            ab ? ab + r * ab_stride : nullptr);
        return;
    }
    for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t visible = visibleOf(i0 + r);
        float *srow = p.sblk + r * valid;
        runtime::softmaxRow(srow, visible, scale);
        // (the attn_ masked tail stays at the tensor's zero init)
        if (ab)
            std::memcpy(ab + r * ab_stride, srow,
                        visible * sizeof(float));
    }
    // Visible counts only grow with i, so the first row seeing every
    // valid key means they all do.
    if (visibleOf(i0) == valid) {
        runtime::gemmRowsIKJ(p.sblk, p.vh, cb, 0, rows, valid, dh);
        return;
    }
    for (std::size_t r = 0; r < rows; ++r)
        runtime::gemmRowsIKJ(p.sblk + r * valid, p.vh, cb + r * dh, 0, 1,
                             visibleOf(i0 + r), dh);
}

} // namespace

void
MultiHeadAttention::setSparse(const SparseAttentionConfig &sparse)
{
    sparse.validate();
    sparse_ = sparse;
}

Tensor
MultiHeadAttention::forward(const Tensor &x)
{
    if (x.rank() != 3 || x.dim(2) != d_model_)
        throw std::invalid_argument("MultiHeadAttention: [b,t,d] required");
    // A padding-free batch is its own packed form: sequence b starts at
    // row b * t of the [b, t, d] tensor.
    return forwardImpl(x, nn::RowSet(x.dim(0), x.dim(1)), nullptr, true);
}

Tensor
MultiHeadAttention::forwardImpl(const Tensor &x, const nn::RowSet &rows,
                                StepState *step, bool train)
{
    const std::size_t batch = rows.batch();
    const std::size_t t = rows.seq();
    const std::size_t d = d_model_;
    const std::size_t dh = headDim();
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

    // The training forward fills the q_/k_/v_/attn_ caches; inference
    // keeps its projections in locals (no peak-batch tensors retained
    // between requests) and normalises each softmax row in thread
    // scratch instead of materialising the O(b * heads * t^2) attn_
    // tensor.
    Tensor ql, kl, vl;
    if (train) {
        b_ = batch;
        t_ = t;
        q_ = proj_q_->forward(x);
        k_ = proj_k_->forward(x);
        v_ = proj_v_->forward(x);
        // attn_ rows: (b * heads + h) * t  + i  over keys j.
        attn_ = Tensor::zeros(batch, heads_ * t, t);
    } else {
        ql = proj_q_->forwardRows(x, rows);
        kl = proj_k_->forwardRows(x, rows);
        vl = proj_v_->forwardRows(x, rows);
    }
    const Tensor &q = train ? q_ : ql;
    const Tensor &k = train ? k_ : kl;
    const Tensor &v = train ? v_ : vl;

    // Cached calls append each sequence's projected K/V rows before
    // attending, so the keys below include this call's own rows (the
    // `visible = i + 1` of the causal full forward).
    if (step) {
        for (std::size_t b = 0; b < batch; ++b) {
            KVCache &c = *step->caches[b];
            const std::size_t n = rows.len(b) * d;
            const float *kr = k.data() + rows.start(b) * d;
            const float *vr = v.data() + rows.start(b) * d;
            c.k.insert(c.k.end(), kr, kr + n);
            c.v.insert(c.v.end(), vr, vr + n);
            c.len += rows.len(b);
        }
    }

    Tensor ctx(x.shape());
    const bool approx = !sparse_.dense();

    // One task per (batch, head): gather that head's K/V slices into
    // contiguous panels, then run its queries through attendBlock in
    // blocks of kQueryBlock rows. Each task writes disjoint attn_ rows
    // and a disjoint ctx slice, so the parallel loop is deterministic
    // at any thread count.
    runtime::parallelFor(0, batch * heads_, 1, [&](std::size_t task0,
                                                   std::size_t task1) {
        for (std::size_t task = task0; task < task1; ++task) {
            const std::size_t b = task / heads_;
            const std::size_t h = task % heads_;
            const std::size_t off = h * dh;
            // A task reads its own sequence's rows only, so each query
            // row runs the exact op sequence of an unpadded run. The
            // keys are the sequence's own rows, or its whole cache, in
            // which this call's rows are the last `active` positions.
            const std::size_t active = rows.len(b);
            const std::size_t row0 = rows.start(b);
            const KVCache *c = step ? step->caches[b] : nullptr;
            const std::size_t valid = c ? c->len : active;
            const float *kb = c ? c->k.data() : k.data() + row0 * d;
            const float *vb = c ? c->v.data() : v.data() + row0 * d;
            const std::size_t pos0 = valid - active;
            // qh/ch hold one query block at a time: gathered just
            // before attendBlock, scattered right after.
            const std::size_t qrows = std::min(kQueryBlock, active);
            const HeadPanels p = headPanels(qrows, valid, dh, qrows, approx);
            // K is gathered transposed ([dh, valid]): the B operand of
            // the score GEMM.
            for (std::size_t j = 0; j < valid; ++j) {
                std::memcpy(p.vh + j * dh, vb + j * d + off,
                            dh * sizeof(float));
                const float *krow = kb + j * d + off;
                for (std::size_t cc = 0; cc < dh; ++cc)
                    p.kht[cc * valid + j] = krow[cc];
            }

            for (std::size_t i0 = 0; i0 < active; i0 += kQueryBlock) {
                const std::size_t nrows = std::min(kQueryBlock, active - i0);
                const std::size_t r0 = row0 + i0;
                for (std::size_t r = 0; r < nrows; ++r)
                    std::memcpy(p.qh + r * dh, q.data() + (r0 + r) * d + off,
                                dh * sizeof(float));
                float *ab = train ? attn_.data() +
                                        (b * heads_ * t + h * t + i0) * t
                                  : nullptr;
                attendBlock(p, sparse_, causal_, scale, pos0 + i0, nrows,
                            p.qh, p.ch, ab, t);
                for (std::size_t r = 0; r < nrows; ++r)
                    std::memcpy(ctx.data() + (r0 + r) * d + off,
                                p.ch + r * dh, dh * sizeof(float));
            }
        }
    });
    return train ? proj_o_->forward(ctx) : proj_o_->forwardRows(ctx, rows);
}

Tensor
MultiHeadAttention::forwardRows(const Tensor &x, const nn::RowSet &rows)
{
    checkPackedRows(x, rows, d_model_, "MultiHeadAttention::forwardRows");
    return forwardImpl(x, rows, nullptr, false);
}

Tensor
MultiHeadAttention::forwardPrefill(const Tensor &x, const nn::RowSet &rows,
                                   StepState &step)
{
    checkPackedRows(x, rows, d_model_,
                    "MultiHeadAttention::forwardPrefill");
    if (!causal_)
        throw std::logic_error(
            "MultiHeadAttention::forwardPrefill: causal attention "
            "required (the cached prefix must be the visible set)");
    if (step.caches.size() != rows.batch())
        throw std::invalid_argument(
            "MultiHeadAttention::forwardPrefill: cache count != batch");
    for (const KVCache *c : step.caches)
        if (c->len != 0)
            throw std::logic_error(
                "MultiHeadAttention::forwardPrefill: cache not empty");
    return forwardImpl(x, rows, &step, false);
}

Tensor
MultiHeadAttention::forwardStep(const Tensor &x, StepState &step)
{
    if (x.rank() != 2 || x.dim(1) != d_model_)
        throw std::invalid_argument(
            "MultiHeadAttention::forwardStep: [n, d] step required");
    if (!causal_)
        throw std::logic_error(
            "MultiHeadAttention::forwardStep: causal attention required "
            "(the cached prefix must be the visible set)");
    if (step.caches.size() != x.dim(0))
        throw std::invalid_argument(
            "MultiHeadAttention::forwardStep: cache count != step rows");
    // The step is a one-row ragged batch: each row's K/V is appended
    // to its cache and the row attends as query L - 1 over the L
    // cached keys - a one-row block of the same attendBlock, whose
    // per-output chains do not depend on the block's row count.
    return forwardImpl(x, nn::RowSet(x.dim(0), 1), &step, false);
}

Tensor
MultiHeadAttention::forwardReference(const Tensor &x)
{
    if (x.rank() != 3 || x.dim(2) != d_model_)
        throw std::invalid_argument("MultiHeadAttention: [b,t,d] required");
    b_ = x.dim(0);
    t_ = x.dim(1);
    const std::size_t dh = headDim();
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

    q_ = proj_q_->forward(x);
    k_ = proj_k_->forward(x);
    v_ = proj_v_->forward(x);

    attn_ = Tensor::zeros(b_, heads_ * t_, t_);
    Tensor ctx = Tensor::zeros(b_, t_, d_model_);

    for (std::size_t b = 0; b < b_; ++b) {
        for (std::size_t h = 0; h < heads_; ++h) {
            const std::size_t off = h * dh;
            for (std::size_t i = 0; i < t_; ++i) {
                const float *qi = rowPtr(q_, b, i) + off;
                // Scores against every visible key (all of them, or
                // only the prefix when causal), softmax-normalised.
                const std::size_t visible = causal_ ? i + 1 : t_;
                float *arow =
                    attn_.data() + (b * heads_ * t_ + h * t_ + i) * t_;
                for (std::size_t j = 0; j < visible; ++j) {
                    const float *kj = rowPtr(k_, b, j) + off;
                    float s = 0.0f;
                    for (std::size_t c = 0; c < dh; ++c)
                        s = runtime::madd(qi[c], kj[c], s);
                    arow[j] = s;
                }
                // (masked future positions stay at the zero init)
                runtime::softmaxRow(arow, visible, scale);
                // Context: weighted sum of visible value head-slices.
                float *ci = rowPtr(ctx, b, i) + off;
                for (std::size_t j = 0; j < visible; ++j) {
                    const float a = arow[j];
                    const float *vj = rowPtr(v_, b, j) + off;
                    for (std::size_t c = 0; c < dh; ++c)
                        ci[c] = runtime::madd(a, vj[c], ci[c]);
                }
            }
        }
    }
    return proj_o_->forward(ctx);
}

Tensor
MultiHeadAttention::backward(const Tensor &grad_out)
{
    const std::size_t dh = headDim();
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

    Tensor g_ctx = proj_o_->backward(grad_out);

    Tensor gq = Tensor::zeros(b_, t_, d_model_);
    Tensor gk = Tensor::zeros(b_, t_, d_model_);
    Tensor gv = Tensor::zeros(b_, t_, d_model_);

    // One task per (batch, head), mirroring the forward: gather the
    // head's Q/K/V and dL/dcontext slices into contiguous panels, run
    // the seed per-head loops (identical per-element expressions and
    // ascending-i accumulation chains), collect dL/dq, dL/dk and
    // dL/dv in per-thread panels and copy them to the task's disjoint
    // head slice. No gradient element is ever touched by two tasks,
    // so no cross-thread reduction is needed (runtime/reduce.h) and
    // the result is bitwise identical to backwardReference at any
    // thread count.
    runtime::parallelFor(0, b_ * heads_, 1, [&](std::size_t task0,
                                                std::size_t task1) {
        for (std::size_t task = task0; task < task1; ++task) {
            const std::size_t b = task / heads_;
            const std::size_t h = task % heads_;
            const std::size_t off = h * dh;

            float *scratch = runtime::threadWorkspace<AttnGradWs>(
                t_ * (7 * dh + 2));
            float *qh = scratch;
            float *kh = qh + t_ * dh;
            float *vh = kh + t_ * dh;
            float *gch = vh + t_ * dh;
            float *lgq = gch + t_ * dh; // dL/dq panel, [t, dh]
            float *lgk = lgq + t_ * dh;
            float *lgv = lgk + t_ * dh;
            float *ga = lgv + t_ * dh; // dL/dattn for one query row
            float *gs = ga + t_;       // dL/dscore (pre-softmax)

            for (std::size_t t_idx = 0; t_idx < t_; ++t_idx) {
                std::memcpy(qh + t_idx * dh,
                            rowPtr(q_, b, t_idx) + off,
                            dh * sizeof(float));
                std::memcpy(kh + t_idx * dh,
                            rowPtr(k_, b, t_idx) + off,
                            dh * sizeof(float));
                std::memcpy(vh + t_idx * dh,
                            rowPtr(v_, b, t_idx) + off,
                            dh * sizeof(float));
                std::memcpy(gch + t_idx * dh,
                            rowPtr(g_ctx, b, t_idx) + off,
                            dh * sizeof(float));
            }
            std::fill(lgq, lgq + 3 * t_ * dh, 0.0f);

            for (std::size_t i = 0; i < t_; ++i) {
                const float *gci = gch + i * dh;
                const float *arow =
                    attn_.data() + (b * heads_ * t_ + h * t_ + i) * t_;
                // dL/da_ij = g_ctx_i . v_j ; also accumulate dL/dv_j.
                for (std::size_t j = 0; j < t_; ++j) {
                    const float *vj = vh + j * dh;
                    float acc = 0.0f;
                    for (std::size_t c = 0; c < dh; ++c)
                        acc = runtime::madd(gci[c], vj[c], acc);
                    ga[j] = acc;
                    float *gvj = lgv + j * dh;
                    const float a = arow[j];
                    for (std::size_t c = 0; c < dh; ++c)
                        gvj[c] = runtime::madd(a, gci[c], gvj[c]);
                }
                // Softmax backward: gs_j = a_j * (ga_j - sum_k ga_k a_k).
                float dot = 0.0f;
                for (std::size_t j = 0; j < t_; ++j)
                    dot = runtime::madd(ga[j], arow[j], dot);
                for (std::size_t j = 0; j < t_; ++j)
                    gs[j] = arow[j] * (ga[j] - dot);
                // Score backward into q_i and k_j.
                const float *qi = qh + i * dh;
                float *gqi = lgq + i * dh;
                for (std::size_t j = 0; j < t_; ++j) {
                    const float g = gs[j] * scale;
                    if (g == 0.0f)
                        continue;
                    const float *kj = kh + j * dh;
                    float *gkj = lgk + j * dh;
                    for (std::size_t c = 0; c < dh; ++c) {
                        gqi[c] = runtime::madd(g, kj[c], gqi[c]);
                        gkj[c] = runtime::madd(g, qi[c], gkj[c]);
                    }
                }
            }

            for (std::size_t t_idx = 0; t_idx < t_; ++t_idx) {
                std::memcpy(rowPtr(gq, b, t_idx) + off,
                            lgq + t_idx * dh, dh * sizeof(float));
                std::memcpy(rowPtr(gk, b, t_idx) + off,
                            lgk + t_idx * dh, dh * sizeof(float));
                std::memcpy(rowPtr(gv, b, t_idx) + off,
                            lgv + t_idx * dh, dh * sizeof(float));
            }
        }
    });

    Tensor gx = proj_q_->backward(gq);
    Tensor gxk = proj_k_->backward(gk);
    Tensor gxv = proj_v_->backward(gv);
    float *p = gx.data();
    const float *pk = gxk.data();
    const float *pv = gxv.data();
    runtime::parallelFor(0, gx.size(), 1 << 14,
                         [&](std::size_t i0, std::size_t i1) {
                             for (std::size_t i = i0; i < i1; ++i)
                                 p[i] += pk[i] + pv[i];
                         });
    return gx;
}

Tensor
MultiHeadAttention::backwardReference(const Tensor &grad_out)
{
    const std::size_t dh = headDim();
    const float scale = 1.0f / std::sqrt(static_cast<float>(dh));

    Tensor g_ctx = proj_o_->backwardReference(grad_out);

    Tensor gq = Tensor::zeros(b_, t_, d_model_);
    Tensor gk = Tensor::zeros(b_, t_, d_model_);
    Tensor gv = Tensor::zeros(b_, t_, d_model_);

    std::vector<float> ga(t_); // dL/dattn for one query row
    std::vector<float> gs(t_); // dL/dscore (pre-softmax)
    for (std::size_t b = 0; b < b_; ++b) {
        for (std::size_t h = 0; h < heads_; ++h) {
            const std::size_t off = h * dh;
            for (std::size_t i = 0; i < t_; ++i) {
                const float *gci = rowPtr(g_ctx, b, i) + off;
                const float *arow =
                    attn_.data() + (b * heads_ * t_ + h * t_ + i) * t_;
                // dL/da_ij = g_ctx_i . v_j ; also accumulate dL/dv_j.
                for (std::size_t j = 0; j < t_; ++j) {
                    const float *vj = rowPtr(v_, b, j) + off;
                    float acc = 0.0f;
                    for (std::size_t c = 0; c < dh; ++c)
                        acc = runtime::madd(gci[c], vj[c], acc);
                    ga[j] = acc;
                    float *gvj = rowPtr(gv, b, j) + off;
                    const float a = arow[j];
                    for (std::size_t c = 0; c < dh; ++c)
                        gvj[c] = runtime::madd(a, gci[c], gvj[c]);
                }
                // Softmax backward: gs_j = a_j * (ga_j - sum_k ga_k a_k).
                float dot = 0.0f;
                for (std::size_t j = 0; j < t_; ++j)
                    dot = runtime::madd(ga[j], arow[j], dot);
                for (std::size_t j = 0; j < t_; ++j)
                    gs[j] = arow[j] * (ga[j] - dot);
                // Score backward into q_i and k_j.
                const float *qi = rowPtr(q_, b, i) + off;
                float *gqi = rowPtr(gq, b, i) + off;
                for (std::size_t j = 0; j < t_; ++j) {
                    const float g = gs[j] * scale;
                    if (g == 0.0f)
                        continue;
                    const float *kj = rowPtr(k_, b, j) + off;
                    float *gkj = rowPtr(gk, b, j) + off;
                    for (std::size_t c = 0; c < dh; ++c) {
                        gqi[c] = runtime::madd(g, kj[c], gqi[c]);
                        gkj[c] = runtime::madd(g, qi[c], gkj[c]);
                    }
                }
            }
        }
    }

    Tensor gx = proj_q_->backwardReference(gq);
    Tensor gxk = proj_k_->backwardReference(gk);
    Tensor gxv = proj_v_->backwardReference(gv);
    float *p = gx.data();
    const float *pk = gxk.data();
    const float *pv = gxv.data();
    for (std::size_t i = 0; i < gx.size(); ++i)
        p[i] += pk[i] + pv[i];
    return gx;
}

void
MultiHeadAttention::collectParams(std::vector<ParamRef> &out)
{
    proj_q_->collectParams(out);
    proj_k_->collectParams(out);
    proj_v_->collectParams(out);
    proj_o_->collectParams(out);
}

std::size_t
MultiHeadAttention::quantizeLinears(QuantKind kind)
{
    return quantizeChildLayer(proj_q_, kind) +
           quantizeChildLayer(proj_k_, kind) +
           quantizeChildLayer(proj_v_, kind) +
           quantizeChildLayer(proj_o_, kind);
}

} // namespace nn
} // namespace fabnet
