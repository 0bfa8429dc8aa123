/**
 * @file sparse_attention.h
 * Approximate-attention configuration and the deterministic selection
 * kernels behind it.
 *
 * Two approximations from the paper's co-design space compose here:
 *
 *  - A^3-style top-k score approximation (Ham et al., PAPERS.md): each
 *    query keeps only the k highest-scoring keys and softmax-normalises
 *    over that set alone, so the context sum shrinks from t to k terms.
 *  - Butterfly sparsity (Multilayer Dataflow paper): query i attends
 *    only to the positions a butterfly network connects it to - itself
 *    plus i ^ 2^s for every stage s (src/sparsity/patterns.h) - an
 *    O(log t) candidate set computed on the fly, so the t x t score
 *    matrix is never materialised.
 *
 * Approximate paths cannot claim bitwise parity with exact attention;
 * what they DO claim (and `ctest -L approx-accuracy` pins) is
 * determinism: selection is a pure function of the scores with a total
 * tie-break order (score descending, index ascending), so the selected
 * set - and with it every downstream bit - is identical run-to-run at
 * any thread count and any batch composition.
 */
#ifndef FABNET_NN_SPARSE_ATTENTION_H
#define FABNET_NN_SPARSE_ATTENTION_H

#include <cstddef>
#include <cstdint>
#include <string>

namespace fabnet {
namespace nn {

/** Which key set each attention query row scores and attends over. */
enum class SparseKind {
    Dense,         ///< exact attention over every visible key
    TopK,          ///< exact scores, keep the top-k keys per query
    Butterfly,     ///< butterfly candidate set only (O(log t) keys)
    ButterflyTopK, ///< top-k among the butterfly candidates
};

/** Short stable name ("dense", "topk", ...) for configs and benches. */
const char *sparseKindName(SparseKind kind);

/**
 * Approximate-attention knobs for MultiHeadAttention::setSparse and
 * ModelConfig::attn_sparse. Default-constructed = exact attention.
 */
struct SparseAttentionConfig
{
    SparseKind kind = SparseKind::Dense;
    /** Keys kept per query row (TopK / ButterflyTopK; ignored for
     *  Dense and plain Butterfly). Clamped to the visible set, so
     *  k >= t degenerates to the kind without the top-k filter -
     *  bitwise, which the approx-accuracy suite pins down. */
    std::size_t k = 0;

    bool dense() const { return kind == SparseKind::Dense; }
    bool selectsTopK() const
    {
        return kind == SparseKind::TopK ||
               kind == SparseKind::ButterflyTopK;
    }

    /** Throws std::invalid_argument on nonsense (top-k with k = 0). */
    void validate() const;

    /** "dense", "topk(k=32)", "butterfly", "butterfly+topk(k=8)". */
    std::string describe() const;
};

/**
 * Deterministic exact top-k selection: writes the indices of the k
 * largest entries of scores[0, n) into @p out in ASCENDING index
 * order and returns how many were selected (min(k, n)). Ties break
 * toward the LOWER index; (score desc, index asc) is a strict total
 * order, so the selected set is unique regardless of the algorithm -
 * run-to-run and implementation-independent determinism.
 *
 * @p out needs capacity n (it doubles as selection scratch). Scores
 * must be finite (NaN would break the comparator's total order).
 */
std::size_t selectTopK(const float *scores, std::size_t n,
                       std::size_t k, std::uint32_t *out);

/**
 * Butterfly candidate set for query @p i over keys [0, n): {i} plus
 * {i ^ 2^s : 2^s < n} intersected with [0, n), written to @p out in
 * ascending order; returns the count (>= 1 for n >= 1). Requires
 * i < n: a query sees its own position. @p out needs capacity
 * butterflyCandidateBound(n).
 */
std::size_t butterflyCandidates(std::size_t i, std::size_t n,
                                std::uint32_t *out);

/** Upper bound on butterflyCandidates' count: 1 + #stages(n). */
std::size_t butterflyCandidateBound(std::size_t n);

} // namespace nn
} // namespace fabnet

#endif // FABNET_NN_SPARSE_ATTENTION_H
