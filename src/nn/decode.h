/**
 * @file decode.h
 * Per-sequence incremental decode state for autoregressive generation.
 *
 * A decode step is literally a ragged batch of "one new row per live
 * sequence": the step tensor is [n_live, d], the packed form of
 * RowSet(n_live, 1), and every layer runs its ordinary forwardRows
 * path over it. Only
 * attention mixes across the sequence, and what it needs from the past
 * is exactly its K/V projections of the previous positions - so each
 * live sequence carries one KVCache per attention layer, appended one
 * row per step. Attention's forwardRows, forwardPrefill and
 * forwardStep are one body: with a StepState it appends each
 * sequence's valid K/V rows to its cache, then attends the call's rows
 * over the whole cache (prefill: empty caches; a step: one row).
 *
 * ## Bitwise contract
 * Incremental decode is BITWISE identical to a full causal recompute
 * at every step, any thread count and any batch composition
 * (`ctest -L decode-parity`). The argument is an induction over the
 * ragged-execution guarantees the repo already pins down:
 *  - every non-attention layer computes each row from that row's
 *    inputs with a fixed per-row op order (the ragged-parity suite),
 *    so the step row's activations match the full run's last row;
 *  - causal attention at position i reads only positions <= i, so the
 *    cached K/V rows - captured when those positions were the step
 *    row - are the very values a full recompute would project;
 *  - MultiHeadAttention::forwardStep is forwardRows' body on a
 *    one-row query block (the step row over the whole cached prefix),
 *    and that body's per-element accumulation chains do not depend on
 *    how many rows a block holds.
 * Quantized projections keep the contract: int8 activation
 * quantisation is per-row, fp16 rounding per-element - both
 * row-independent.
 */
#ifndef FABNET_NN_DECODE_H
#define FABNET_NN_DECODE_H

#include <cstddef>
#include <vector>

namespace fabnet {
namespace nn {

/**
 * One attention layer's K/V prefix for one sequence: `len` rows of
 * d_model floats each (all heads contiguous, the [t, d] layout of the
 * projection outputs). Grows by one row per decode step.
 */
struct KVCache
{
    std::vector<float> k, v;
    std::size_t len = 0;

    /** Drop cached rows past @p new_len (step-fault rollback). */
    void truncate(std::size_t new_len, std::size_t d_model)
    {
        if (new_len >= len)
            return;
        k.resize(new_len * d_model);
        v.resize(new_len * d_model);
        len = new_len;
    }
};

/**
 * Per-layer view of the live sequences' decode state, rebuilt by the
 * model for every layer of every step/prefill call:
 *  - caches[b]: the K/V cache of live sequence b FOR THIS LAYER
 *    (attention appends the step row and attends over the whole
 *    prefix; other layers ignore it);
 *  - positions[b]: the absolute position of sequence b's step row
 *    (the embedding adds pos_[positions[b]]).
 * During prefill, positions[b] is the position of sequence b's FIRST
 * prompt row (0 for fresh sequences) and attention appends all
 * rows.len(b) projected rows.
 */
struct StepState
{
    std::vector<KVCache *> caches;
    std::vector<std::size_t> positions;
};

} // namespace nn
} // namespace fabnet

#endif // FABNET_NN_DECODE_H
