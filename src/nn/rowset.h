/**
 * @file rowset.h
 * Ragged-batch descriptor for packed inference batches.
 *
 * A served batch holds sequences of different lengths. Inference
 * activations are PACKED: the valid rows of every sequence, back to
 * back, as one [totalRows(), d] tensor - sequence b occupies rows
 * [start(b), start(b) + len(b)). Embedding::forwardRows packs the
 * right-padded token array once (SequenceClassifier::forwardBatch and
 * CausalGenerator build the RowSet); after that no padded row exists,
 * so row-wise layers (linears, LayerNorm, activations, residuals)
 * simply run over every row of their input and never read the set.
 * Only the layers that mix or select across rows read the sequence
 * boundaries: attention, the pooled head, the generator's last-row
 * gather and FourierMix.
 *
 * ## Determinism
 * Every row-wise kernel in this repo computes each row from that row's
 * inputs with a fixed per-row operation order, and attention runs each
 * sequence's rows over that sequence's keys only. A row's bits
 * therefore depend neither on its neighbours nor on where chunk
 * boundaries fall: ragged execution is bitwise identical to running
 * each sequence alone, unpadded (`ragged-parity`).
 */
#ifndef FABNET_NN_ROWSET_H
#define FABNET_NN_ROWSET_H

#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

namespace fabnet {
namespace nn {

/** Sequence boundaries of a packed batch. */
class RowSet
{
  public:
    /**
     * @param batch number of sequences
     * @param seq   padded length of the batch (the token array's row
     *              stride)
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

    /** First packed row of sequence @p b (the sum of earlier lens). */
    std::size_t start(std::size_t b) const { return start_[b]; }

    /** Rows of the packed tensor: the sum of every len. */
    std::size_t totalRows() const { return start_[batch_]; }

  private:
    std::size_t batch_ = 0, seq_ = 0;
    std::vector<std::size_t> lens_;
    std::vector<std::size_t> start_; ///< packed offset of each sequence
};

} // namespace nn
} // namespace fabnet

#endif // FABNET_NN_ROWSET_H
