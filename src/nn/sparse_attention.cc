#include "nn/sparse_attention.h"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace fabnet {
namespace nn {

const char *
sparseKindName(SparseKind kind)
{
    switch (kind) {
      case SparseKind::Dense:
        return "dense";
      case SparseKind::TopK:
        return "topk";
      case SparseKind::Butterfly:
        return "butterfly";
      case SparseKind::ButterflyTopK:
        return "butterfly+topk";
    }
    return "?";
}

void
SparseAttentionConfig::validate() const
{
    if (selectsTopK() && k == 0)
        throw std::invalid_argument(
            "SparseAttentionConfig: top-k kinds require k >= 1");
}

std::string
SparseAttentionConfig::describe() const
{
    std::ostringstream os;
    os << sparseKindName(kind);
    if (selectsTopK())
        os << "(k=" << k << ")";
    return os.str();
}

std::size_t
selectTopK(const float *scores, std::size_t n, std::size_t k,
           std::uint32_t *out)
{
    std::iota(out, out + n, std::uint32_t{0});
    if (k >= n)
        return n; // identity selection, already ascending
    // (score desc, index asc) is a strict total order over distinct
    // indices, so the k-element prefix set nth_element establishes is
    // UNIQUE - no library implementation detail can change it.
    std::nth_element(out, out + k, out + n,
                     [scores](std::uint32_t a, std::uint32_t b) {
                         return scores[a] > scores[b] ||
                                (scores[a] == scores[b] && a < b);
                     });
    std::sort(out, out + k);
    return k;
}

std::size_t
butterflyCandidates(std::size_t i, std::size_t n, std::uint32_t *out)
{
    if (n == 0)
        return 0;
    std::size_t m = 0;
    out[m++] = static_cast<std::uint32_t>(i);
    for (std::size_t bit = 1; bit < n; bit <<= 1) {
        const std::size_t j = i ^ bit;
        if (j < n)
            out[m++] = static_cast<std::uint32_t>(j);
    }
    // Single-bit flips are distinct from i and from each other, so no
    // dedup is needed - only the ascending order the core relies on.
    std::sort(out, out + m);
    return m;
}

std::size_t
butterflyCandidateBound(std::size_t n)
{
    std::size_t m = 1;
    for (std::size_t bit = 1; bit < n; bit <<= 1)
        ++m;
    return m;
}

} // namespace nn
} // namespace fabnet
