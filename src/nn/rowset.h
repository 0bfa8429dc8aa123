/**
 * @file rowset.h
 * Ragged-batch descriptor for right-padded inference batches.
 *
 * A served batch is a [batch, seq, d] activation tensor in which
 * sequence b only occupies the first lens[b] of its seq rows; the rest
 * is padding whose outputs nothing downstream reads. RowSet describes
 * that shape ONCE per batch (SequenceClassifier::forwardBatch builds
 * it) so every row-wise layer can iterate the valid rows only - the
 * "skip padded rows" execution mode that reclaims the pad_overhead
 * measured by BENCH_serving.json.
 *
 * ## Representation
 * Right-padding makes each sequence's valid rows one contiguous run
 * [b*seq, b*seq + lens[b]) of the flattened row index space, so the
 * descriptor is a prefix-sum table over lens: packed index p (0 ..
 * totalRows()) maps to a (sequence, offset) pair by binary search, and
 * any packed range decomposes into at most batch contiguous row spans.
 * Layers consume it one of two ways - in place on the spans
 * (forEachSpan: GEMM-backed and row-local layers, whose 4-row tiles
 * barely fragment) or via packed gather/scatter (forEachSpanPacked:
 * the butterfly linears, whose 16-row stage-major blocks fragment
 * badly on short spans) - a per-layer, bench-backed choice documented
 * in docs/ARCHITECTURE.md, "Ragged batch execution".
 *
 * ## Determinism
 * Work is distributed over the PACKED index space (forEachRowSpan), so
 * chunk boundaries never depend on the thread count, and every span
 * kernel in this repo computes each row from that row's inputs with a
 * fixed per-row operation order. Skipping rows therefore cannot change
 * any valid row's bits: ragged execution is bitwise identical to
 * running each sequence alone, unpadded (`ragged-parity`).
 */
#ifndef FABNET_NN_ROWSET_H
#define FABNET_NN_ROWSET_H

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "runtime/parallel.h"

namespace fabnet {
namespace nn {

/** Valid-row descriptor of a right-padded [batch, seq, d] batch. */
class RowSet
{
  public:
    /**
     * @param batch number of sequences
     * @param seq   padded length of every sequence
     * @param lens  real length of each sequence, all in [1, seq]
     */
    RowSet(std::size_t batch, std::size_t seq,
           std::vector<std::size_t> lens)
        : batch_(batch), seq_(seq), lens_(std::move(lens))
    {
        if (lens_.size() != batch_)
            throw std::invalid_argument("RowSet: lens size != batch");
        start_.resize(batch_ + 1);
        start_[0] = 0;
        for (std::size_t b = 0; b < batch_; ++b) {
            if (lens_[b] == 0 || lens_[b] > seq_)
                throw std::invalid_argument(
                    "RowSet: len out of [1, seq]");
            start_[b + 1] = start_[b] + lens_[b];
        }
    }

    /** The padding-free set: all @p seq rows of every sequence valid. */
    RowSet(std::size_t batch, std::size_t seq)
        : RowSet(batch, seq, std::vector<std::size_t>(batch, seq))
    {
    }

    std::size_t batch() const { return batch_; }
    std::size_t seq() const { return seq_; }
    std::size_t len(std::size_t b) const { return lens_[b]; }
    const std::vector<std::size_t> &lens() const { return lens_; }

    /** Number of valid (non-padding) rows across the batch. */
    std::size_t totalRows() const { return start_[batch_]; }

    /** Rows of the padded tensor (valid + padding). */
    std::size_t paddedRows() const { return batch_ * seq_; }

    /** Padding rows a ragged pass skips. */
    std::size_t rowsSkipped() const
    {
        return paddedRows() - totalRows();
    }

    bool hasPadding() const { return totalRows() != paddedRows(); }

    /**
     * Decompose the packed range [p0, p1) into contiguous VALID row
     * spans of the padded tensor and call f(row_begin, row_end) for
     * each (row indices into the flattened [batch*seq] row space).
     * Spans arrive in ascending row order; a padding-free set emits
     * the single span [p0, p1) (packed == actual there).
     */
    template <class F>
    void forEachSpan(std::size_t p0, std::size_t p1, F &&f) const
    {
        if (p0 >= p1)
            return;
        if (!hasPadding()) {
            f(p0, p1);
            return;
        }
        // Sequence containing packed index p0.
        std::size_t b = static_cast<std::size_t>(
                            std::upper_bound(start_.begin(), start_.end(),
                                             p0) -
                            start_.begin()) -
                        1;
        while (p0 < p1) {
            const std::size_t take = std::min(p1, start_[b + 1]) - p0;
            const std::size_t row0 = b * seq_ + (p0 - start_[b]);
            f(row0, row0 + take);
            p0 += take;
            ++b;
        }
    }

    /**
     * forEachSpan variant that also reports each span's position in
     * the packed row space: f(row_begin, row_end, packed_begin). Used
     * by layers that gather valid rows into a contiguous buffer
     * (packed-gather execution, see forwardRows of the butterfly
     * linears) - packed_begin is where the span's rows land.
     */
    template <class F>
    void forEachSpanPacked(std::size_t p0, std::size_t p1, F &&f) const
    {
        if (p0 >= p1)
            return;
        if (!hasPadding()) {
            f(p0, p1, p0);
            return;
        }
        std::size_t b = static_cast<std::size_t>(
                            std::upper_bound(start_.begin(), start_.end(),
                                             p0) -
                            start_.begin()) -
                        1;
        while (p0 < p1) {
            const std::size_t take = std::min(p1, start_[b + 1]) - p0;
            const std::size_t row0 = b * seq_ + (p0 - start_[b]);
            f(row0, row0 + take, p0);
            p0 += take;
            ++b;
        }
    }

  private:
    std::size_t batch_ = 0, seq_ = 0;
    std::vector<std::size_t> lens_;
    std::vector<std::size_t> start_; ///< packed offset of each sequence
};

/**
 * Parallel sweep over the valid rows only: partitions the PACKED row
 * space with runtime::parallelFor (grain = rows per chunk, the same
 * determinism contract) and hands each chunk to @p f as contiguous
 * row spans of the padded tensor. Every kernel invoked through this
 * computes rows independently with a fixed per-row op order, so the
 * result is bitwise identical to the full-tensor sweep at any thread
 * count AND any span decomposition.
 */
template <class F>
inline void
forEachRowSpan(const RowSet &rows, std::size_t grain, F &&f)
{
    runtime::parallelFor(0, rows.totalRows(), grain,
                         [&](std::size_t p0, std::size_t p1) {
                             rows.forEachSpan(p0, p1, f);
                         });
}

/** Parallel packed-aware span sweep: f(row0, row1, packed0). */
template <class F>
inline void
forEachRowSpanPacked(const RowSet &rows, std::size_t grain, F &&f)
{
    runtime::parallelFor(0, rows.totalRows(), grain,
                         [&](std::size_t p0, std::size_t p1) {
                             rows.forEachSpanPacked(p0, p1, f);
                         });
}

} // namespace nn
} // namespace fabnet

#endif // FABNET_NN_ROWSET_H
