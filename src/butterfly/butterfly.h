/**
 * @file butterfly.h
 * Trainable butterfly factor matrices - the paper's central algorithmic
 * primitive.
 *
 * A butterfly matrix W of size N = 2^L is the product of L sparse
 * butterfly factors. Factor s (s = 0 .. L-1, applied in increasing-
 * stride order) pairs elements whose indices differ by 2^s and mixes
 * each pair (x1, x2) with an independent trainable 2x2 block:
 *
 *     y1 = w1*x1 + w2*x2
 *     y2 = w3*x1 + w4*x2
 *
 * This encodes the recursive divide-and-conquer structure of the FFT;
 * indeed with (w1,w2,w3,w4) = (1, w, 1, -w) and complex twiddle w the
 * stages reproduce the radix-2 Cooley-Tukey FFT exactly (after bit
 * reversal) - the property the adaptable hardware engine exploits to
 * run both FFT and butterfly linear layers on one datapath.
 *
 * Applying a butterfly matrix costs O(N log N) multiply-adds and holds
 * 2*N*log2(N) parameters versus O(N^2) for a dense layer.
 */
#ifndef FABNET_BUTTERFLY_BUTTERFLY_H
#define FABNET_BUTTERFLY_BUTTERFLY_H

#include <complex>
#include <cstddef>
#include <vector>

#include "butterfly/fft.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace fabnet {

/**
 * Square trainable butterfly matrix of power-of-two size.
 *
 * Weight layout: stage s holds N/2 pairs; pair p of stage s owns four
 * consecutive floats at weights()[ (s * (N/2) + p) * 4 ].
 */
class ButterflyMatrix
{
  public:
    /** Identity-initialised butterfly of size @p n (power of two). */
    explicit ButterflyMatrix(std::size_t n);

    std::size_t size() const { return n_; }
    std::size_t numStages() const { return stages_; }
    std::size_t numWeights() const { return weights_.size(); }

    std::vector<float> &weights() { return weights_; }
    const std::vector<float> &weights() const { return weights_; }

    /** Initialise every 2x2 block to the identity. */
    void initIdentity();

    /**
     * Initialise every 2x2 block to a random rotation
     * [[cos t, -sin t], [sin t, cos t]]; the full product is then
     * orthogonal, which keeps activations well-scaled at any depth.
     */
    void initRandomRotation(Rng &rng);

    /** Initialise all four weights of every block from N(0, stddev). */
    void initNormal(Rng &rng, float stddev);

    /**
     * Stage-major batched apply: y[r] = W x[r] for @p rows contiguous
     * vectors (@p in and @p out may not alias). Processes all rows of
     * one stage before advancing so the stage's 2N weights stay
     * cache-resident; zero heap allocations in the steady state (one
     * reusable workspace per thread), safe to call concurrently.
     * Bitwise identical to per-row applyReference().
     *
     * With a non-null @p cache the same pass also records the training
     * activations: row r's cache starts at cache + r * cache_stride and
     * receives (numStages()+1) * size() floats - the input of stage s
     * at [s*N, s*N+N) and the output last (the layout backward() and
     * accumulateWeightGradRows() read).
     */
    void applyRows(const float *in, float *out, std::size_t rows,
                   float *cache = nullptr,
                   std::size_t cache_stride = 0) const;

    /** One-row applyRows with its cache: @p cache must hold
     *  (numStages()+1) * size() floats, the output block last. */
    void forwardWithCache(const float *in, float *cache) const;

    /**
     * Backward pass for one vector.
     *
     * @param cache        activations recorded by applyRows
     * @param grad_out     dL/dy, size() floats
     * @param grad_in      output, dL/dx, size() floats
     * @param grad_weights accumulated (+=) dL/dw, numWeights() floats
     */
    void backward(const float *cache, const float *grad_out,
                  float *grad_in, std::vector<float> &grad_weights) const;

    /**
     * Backward for one vector WITHOUT weight-gradient accumulation,
     * recording the whole gradient trajectory instead: @p gcache holds
     * (numStages()+1) * size() floats, level s (gcache[s*N .. s*N+N))
     * being dL/d(input of stage s). The caller fills the top level
     * (numStages()) with dL/dy before the call; on return level 0 is
     * dL/dx and every level is bitwise identical to the corresponding
     * intermediate g vector of backward(). The split lets the batched
     * backward parallelise rows (this, disjoint trajectories) apart
     * from weights (accumulateWeightGradRows, disjoint weight blocks)
     * with no cross-thread gradient reduction - see runtime/reduce.h.
     */
    void backwardRecord(float *gcache) const;

    /**
     * Accumulate (+=) weight gradients for @p rows vectors whose
     * forward caches / gradient trajectories live @p cache_stride /
     * @p gcache_stride floats apart (applyRows cache layout and
     * backwardRecord layout respectively). Owner-parallel over
     * (stage, pair) weight blocks; each element's reduction runs in
     * ascending-row order, so the result is bitwise identical to
     * calling backward() row by row at any thread count.
     */
    void accumulateWeightGradRows(const float *caches,
                                  const float *gcaches, std::size_t rows,
                                  std::size_t cache_stride,
                                  std::size_t gcache_stride,
                                  std::vector<float> &grad_weights) const;

    /**
     * Apply W to every row of a [rows, n] matrix. Row-parallel over
     * the stage-major applyRows kernel; results are bitwise identical
     * at any thread count.
     */
    Tensor applyBatch(const Tensor &x) const;

    /**
     * Seed single-vector apply (two heap allocations per call, scalar
     * stage/pair loops) - the one copy of the seed kernel that every
     * reference/bench baseline and toDense() delegate to.
     */
    void applyReference(const float *in, float *out) const;

    /**
     * Seed per-row scalar batch path (applyReference per row), kept as
     * the parity/bench baseline for the stage-major kernel.
     */
    Tensor applyBatchReference(const Tensor &x) const;

    /** Expand to the equivalent dense [n, n] matrix (for testing). */
    Tensor toDense() const;

    /** Index of the first weight of pair @p p in stage @p s. */
    std::size_t weightIndex(std::size_t s, std::size_t p) const
    {
        return (s * (n_ / 2) + p) * 4;
    }

    /**
     * Pair (i1, i2) touched by pair-index @p p at stage @p s:
     * i2 = i1 + 2^s. Exposed for the hardware model, which schedules
     * exactly these index pairs onto butterfly units.
     */
    static void pairIndices(std::size_t s, std::size_t p, std::size_t &i1,
                            std::size_t &i2);

    /** Multiply-accumulate count of one vector (4 mults per pair). */
    std::size_t flops() const { return stages_ * (n_ / 2) * 8; }

  private:
    std::size_t n_ = 0;
    std::size_t stages_ = 0;
    std::vector<float> weights_;
};

/**
 * Rectangular butterfly linear map built from square butterfly cores,
 * mirroring how FABNet compresses Q/K/V/FFN projections.
 *
 * For out <= next_pow2(in): one core of size next_pow2(in); the input
 * is zero-padded, the output truncated. For out > next_pow2(in):
 * ceil(out / n) independent cores run on the same padded input and
 * their outputs are concatenated then truncated (the FFN expand path,
 * R_ffn cores for an expansion ratio R_ffn).
 */
class ButterflyLinear
{
  public:
    ButterflyLinear(std::size_t in_features, std::size_t out_features);

    std::size_t inFeatures() const { return in_; }
    std::size_t outFeatures() const { return out_; }
    std::size_t coreSize() const { return core_n_; }
    std::size_t numCores() const { return cores_.size(); }

    ButterflyMatrix &core(std::size_t i) { return cores_[i]; }
    const ButterflyMatrix &core(std::size_t i) const { return cores_[i]; }

    std::vector<float> &bias() { return bias_; }
    const std::vector<float> &bias() const { return bias_; }

    /** Orthogonal-ish init of all cores + zero bias. */
    void initRandomRotation(Rng &rng);

    /**
     * Apply to every row of a [rows, in] matrix -> [rows, out].
     * Row-parallel, stage-major per core, zero steady-state heap
     * allocations; bitwise identical to applyBatchReference().
     */
    Tensor applyBatch(const Tensor &x) const;

    /**
     * Serial stage-major apply, y = W x + b, over @p rows contiguous
     * vectors (@p in strided by inFeatures(), @p out by outFeatures())
     * - the body one applyBatch task runs, exposed so callers
     * (nn::ButterflyDense) can sweep row chunks directly. Chunks
     * internally by the stage-major block size; bitwise identical to
     * applyBatchReference() for any @p rows. With a non-null @p cache
     * it also records each row's training activations, cacheSize()
     * floats per row: the zero-padded input, then every core's
     * ButterflyMatrix::applyRows trajectory.
     */
    void applyToRows(const float *in, float *out, std::size_t rows,
                     float *cache = nullptr) const;

    /** Seed per-row batch path kept as parity/bench baseline. */
    Tensor applyBatchReference(const Tensor &x) const;

    /** Trainable parameter count (cores + bias). */
    std::size_t numParams() const;

    /** Floats of training cache per vector (applyToRows' @p cache). */
    std::size_t cacheSize() const;

    /** One-row applyToRows with its cache (cacheSize() floats). */
    void forwardWithCache(const float *in, float *out, float *cache) const;

    /**
     * Backward for one vector; accumulates core-weight grads and bias
     * grads, returns dL/dx in @p grad_in.
     */
    void backward(const float *cache, const float *grad_out,
                  float *grad_in,
                  std::vector<std::vector<float>> &grad_cores,
                  std::vector<float> &grad_bias) const;

    /** Floats of gradient-trajectory scratch per vector
     *  (backwardBatch's @p gcaches row stride). */
    std::size_t gradCacheSize() const;

    /**
     * Batched parallel backward over @p rows vectors, bitwise
     * identical to per-row backward() at any thread count:
     *  1. row-parallel: per-row stage-gradient trajectories
     *     (ButterflyMatrix::backwardRecord into @p gcaches) and
     *     dL/dx rows - disjoint writes;
     *  2. owner-parallel bias accumulation over output elements;
     *  3. per core, owner-parallel weight accumulation over (stage,
     *     pair) blocks (accumulateWeightGradRows);
     * each gradient element's reduction stays in ascending-row order
     * (the reference order), which is what makes the parallel path
     * bitwise exact - see runtime/reduce.h.
     *
     * @param caches   rows * cacheSize() floats from applyToRows
     * @param gcaches  rows * gradCacheSize() floats of scratch
     * @param grad_out rows * outFeatures() floats, dL/dy
     * @param grad_in  rows * inFeatures() floats, receives dL/dx
     */
    void backwardBatch(const float *caches, float *gcaches,
                       const float *grad_out, float *grad_in,
                       std::size_t rows,
                       std::vector<std::vector<float>> &grad_cores,
                       std::vector<float> &grad_bias) const;

  private:
    std::size_t in_ = 0;
    std::size_t out_ = 0;
    std::size_t core_n_ = 0;
    std::vector<ButterflyMatrix> cores_;
    std::vector<float> bias_;
};

/**
 * Complex butterfly stage weights that reproduce the radix-2 DIT FFT,
 * demonstrating the paper's key unification: FFT is a butterfly matrix
 * whose (w1,w2,w3,w4) are (1, w, 1, -w) with twiddle w.
 */
class FftAsButterfly
{
  public:
    explicit FftAsButterfly(std::size_t n);

    std::size_t size() const { return n_; }

    /** Twiddle factor of pair @p p at stage @p s. */
    Complex twiddle(std::size_t s, std::size_t p) const;

    /**
     * Apply the butterfly stages (with the FFT's bit-reversal
     * pre-permutation) to a complex vector; result equals fftInPlace.
     */
    std::vector<Complex> apply(const std::vector<Complex> &in) const;

  private:
    std::size_t n_ = 0;
    std::size_t stages_ = 0;
};

} // namespace fabnet

#endif // FABNET_BUTTERFLY_BUTTERFLY_H
