/**
 * @file serving.h
 * Request-level batched serving front end over the parallel runtime.
 *
 * ServingEngine turns the kernel library into a traffic-serving
 * system: callers submit single token sequences and get a future for
 * that sequence's logits; behind the scenes requests are bucketed by
 * padded length (serve/batcher.h), grouped into batches of up to
 * max_batch, and dispatched through SequenceClassifier::forwardBatch -
 * one model invocation whose row count keeps the PR-1 thread pool
 * (runtime/parallel.h) saturated, amortising weight traffic across
 * requests exactly as the paper's accelerator amortises it across a
 * sequence. forwardBatch executes RAGGED for maskable models: a
 * nn::RowSet descriptor is built per batch and the embedding packs
 * each request's real rows back to back, so no layer computes the
 * padded rows bucketing introduces (ServingStats::rows_skipped counts
 * them; logits unchanged bit for bit - docs/ARCHITECTURE.md "Ragged
 * batch execution").
 *
 * ## Failure model (docs/SERVING.md "Failure model")
 * Every failure is a typed serve::Error (serve/error.h): admission
 * problems throw synchronously, later failures arrive through the
 * future. Requests may carry a Deadline; expired requests are failed
 * BEFORE they reach the model (at admission or when their group is
 * claimed) and results computed past a deadline are discarded with
 * DeadlineExceeded. Admission is bounded (queue depth and token caps)
 * with a configurable shed policy; a model fault poisons only its own
 * row - the group takes one bounded per-row isolation pass and the
 * surviving rows are re-served bitwise identically (the engine's
 * per-row determinism guarantee makes a 1-row re-run exact). A
 * watchdog cancels stuck model invocations (cooperative cancellation
 * between parallelFor grain chunks and encoder blocks), and
 * shutdown(Deadline) drains in-flight work then fails the remainder
 * with ShuttingDown. serve/fault.h injects every one of these paths
 * deterministically (`ctest -L fault`). The mechanism and the request
 * lifecycle are the ReliabilityCore both engines share
 * (serve/reliability.h); this engine adds only its bucketed queue and
 * its dispatcher loop.
 *
 * ## Threading model
 * One dispatcher thread serves the queue, whether the requests came
 * from submit() or serveAll(), and it is the only caller of the model
 * - isolation retries included - because the layer caches make
 * concurrent forward calls on one model unsafe. Intra-batch
 * parallelism comes from the kernels' parallelFor, so the pool - not
 * the request count - sets the concurrency. submit(), serveAll() and
 * flush() are safe from any number of client threads. The engine must
 * be the model's only user while it is alive.
 *
 * ## Determinism
 * For attention-mixer models every served logits row is bitwise
 * identical to forward(request, 1, len) run serially, at any thread
 * count and under any batch composition: no padded row is computed,
 * each request attends over its own keys and pools its own rows, and
 * every kernel is per-row order-preserving (see
 * model/classifier.h::forwardBatch and tests/serving_test.cpp). Fault isolation preserves this: rows
 * re-served by the isolation pass run as 1-row batches at their
 * group's padded length, which the same guarantee makes bitwise equal
 * to their batched result - for Fourier-mixer models too, whose rows
 * depend on the padded length.
 *
 * ## Workspace lifecycle
 * Long-lived serving threads would otherwise retain peak-size kernel
 * scratch forever; the engine installs ServingConfig::
 * workspace_cap_bytes as the runtime's workspace retention cap
 * (runtime/workspace.h) for its lifetime and restores the previous
 * policy on destruction.
 */
#ifndef FABNET_SERVE_SERVING_H
#define FABNET_SERVE_SERVING_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <set>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/classifier.h"
#include "serve/batcher.h"
#include "serve/error.h"
#include "serve/reliability.h"

namespace fabnet {
namespace serve {

/** Batching/flush policy knobs; the robustness knobs (bounded
 *  admission, watchdog, fault plan, workspace cap) are the shared
 *  ReliabilityConfig base (serve/reliability.h). */
struct ServingConfig : ReliabilityConfig
{
    /** Flush a bucket as soon as it holds this many requests. */
    std::size_t max_batch = 8;
    /** Padded lengths are multiples of this (1 = exact-length only). */
    std::size_t bucket_granularity = 16;
    /** Flush a non-full bucket once its oldest request waited this. */
    std::chrono::microseconds max_wait{1000};
    /** Token id used for padding (must be a valid vocab id). */
    int pad_token = 0;
    /**
     * Layers without a masked form (Fourier mixers: FNet / FABNet
     * FBfly blocks) produce served logits that depend on the padded
     * length a request is bucketed at. The constructor rejects such
     * models (queried via SequenceClassifier::supportsMaskedBatch)
     * unless buckets are padding-free (bucket_granularity == 1, where
     * determinism holds anyway) or this flag explicitly forfeits the
     * per-request determinism guarantee. Either way a request whose
     * padded length the model cannot run (a Fourier mixer's FFT runs
     * power-of-two lengths only; SequenceClassifier::runsLength) is
     * refused at admission with Error{InvalidRequest}.
     */
    bool allow_unmasked_mixers = false;
};

/** Counters for observing the batching behaviour; the shared
 *  counters and execution identity are the ReliabilityStats base. */
struct ServingStats : ReliabilityStats
{
    std::size_t batches = 0;         ///< groups dispatched to the model
    std::size_t flushed_full = 0;    ///< batches from a full bucket
    std::size_t flushed_timeout = 0; ///< batches from max_wait expiry
    /** Batches drained for flush(), serveAll() or shutdown. */
    std::size_t flushed_drain = 0;
    std::size_t real_tokens = 0;     ///< sum of request lengths served
    std::size_t padded_tokens = 0;   ///< sum of batch * padded_len
    /** Sum of batch * (longest member's length) per batch: the token
     *  count a max-length-padded (bucket-free) batch would hold. */
    std::size_t tight_tokens = 0;
    /** Padded activation rows ragged execution skipped (padded -
     *  real positions of the batches served; 0 when the model is not
     *  maskable, since forwardBatch then runs every row). */
    std::size_t rows_skipped = 0;
    /** Requests whose deadline passed while their batch was executing
     *  (the computed logits are discarded). */
    std::size_t expired_mid_batch = 0;
    /** Batches flushed early because a queued member's deadline would
     *  have expired inside the normal max_wait window (the dispatcher
     *  re-arms its wait on every arrival, so a near-deadline request
     *  is served instead of sleeping out the full flush timeout).
     *  Subset of `flushed_timeout`. */
    std::size_t urgent_flushes = 0;

    /** Mean requests per model invocation (failed batches included). */
    double avgBatch() const
    {
        return batches
                   ? static_cast<double>(completed + failed) / batches
                   : 0.0;
    }
    /** Fraction of served positions that were padding, measured
     *  against the BUCKET length every row is padded to. */
    double padOverhead() const
    {
        return padded_tokens
                   ? 1.0 - static_cast<double>(real_tokens) / padded_tokens
                   : 0.0;
    }
    /** Padding fraction measured against the actual flushed batch
     *  composition (rows padded only to their batch's longest
     *  member): the irreducible mixed-length overhead, with the
     *  bucket-quantisation share removed. padOverhead() -
     *  padOverheadBatch() is the share bucket granularity adds. */
    double padOverheadBatch() const
    {
        return tight_tokens
                   ? 1.0 - static_cast<double>(real_tokens) / tight_tokens
                   : 0.0;
    }
};

/** Batched request-level front end over a SequenceClassifier. */
class ServingEngine
{
  public:
    explicit ServingEngine(SequenceClassifier &model,
                           ServingConfig cfg = {});
    ~ServingEngine();

    ServingEngine(const ServingEngine &) = delete;
    ServingEngine &operator=(const ServingEngine &) = delete;

    /**
     * Enqueue one sequence; the future resolves to its logits (length
     * = model classes, padding already stripped) or fails with a
     * serve::Error. Admission-time conditions throw synchronously:
     * Error{InvalidRequest} for empty/over-long sequences and for a
     * padded length the model cannot run,
     * Error{QueueFull} when bounded admission rejects (after the shed
     * policy ran), Error{DeadlineExceeded} when @p deadline already
     * passed, Error{ShuttingDown} once shutdown began. Later failures
     * (DeadlineExceeded in queue or mid-batch, ModelFault,
     * ShuttingDown at a shutdown deadline) arrive through the future.
     */
    std::future<std::vector<float>> submit(std::vector<int> tokens,
                                           Deadline deadline);
    std::future<std::vector<float>> submit(std::vector<int> tokens)
    {
        return submit(std::move(tokens), kNoDeadline);
    }

    /**
     * Serve a whole request set synchronously through the batching
     * path and return the logits in request order: admit the set, then
     * wait for it exactly as flush() does. The dispatcher serves it,
     * draining each bucket FIFO in max_batch groups (counted in
     * flushed_drain), so the set forms the same batches as submit()
     * of each request followed by flush(). Safe from multiple threads.
     *
     * Admission is ALL-OR-NOTHING and happens in one critical section:
     * the whole set is validated before anything is enqueued, so a
     * malformed request throws Error{InvalidRequest} (naming the
     * offending index) with no partial set left behind; if an enqueue
     * still fails mid-set (e.g. an injected admission fault) the
     * already-admitted prefix is unwound and failed rather than
     * drained silently. serveAll is exempt from the admission caps
     * (synchronous callers are their own backpressure) and its
     * requests carry no deadline. If any request of the set fails
     * (e.g. ModelFault on its row), the first failure in request order
     * is rethrown here.
     */
    std::vector<std::vector<float>>
    serveAll(const std::vector<std::vector<int>> &requests);

    /**
     * Block until every request submitted before this call has been
     * resolved (fulfilled or failed). Requests submitted concurrently
     * by other threads may or may not be included. A flush() in
     * flight when shutdown() begins has a defined result: shutdown's
     * drain resolves every outstanding future (served, or failed with
     * ShuttingDown at a shutdown deadline), so the flush returns
     * normally once its watermark is resolved - it is never left
     * blocked and never observes an unresolved future afterwards.
     */
    void flush();

    /**
     * Graceful drain: stop admitting (submit()/serveAll() throw
     * Error{ShuttingDown} from now on), serve everything already
     * admitted, and return once every outstanding future is resolved.
     * If @p deadline passes first, the remaining QUEUED requests are
     * failed with Error{ShuttingDown}, the in-flight model invocation
     * (if any) is cooperatively cancelled (its rows fail with
     * ShuttingDown), and shutdown returns once everything is
     * resolved. Idempotent and safe from multiple threads; the
     * destructor calls shutdown() (full drain) if it has not been
     * called. After shutdown the engine stays queryable (stats(),
     * bucketLen()) until destruction.
     */
    void shutdown(Deadline deadline = kNoDeadline);

    /** Padded length a request of @p len tokens would be served at. */
    std::size_t bucketLen(std::size_t len) const;

    ServingStats stats() const;

  private:
    struct Pending
    {
        std::vector<int> tokens;
        Deadline deadline = kNoDeadline;
        /** Admission-order index (FaultPlan keying; serve/fault.h). */
        std::uint64_t admission_index = 0;
        std::promise<std::vector<float>> promise;
    };

    /** A claimed group's unexpired members + its dispatch index. */
    struct ClaimedGroup
    {
        std::vector<Pending> reqs;
        std::size_t dispatch_index = 0;
    };

    void dispatchLoop();

    /**
     * Serve one claimed group: counts completed/failed (and token
     * stats) under the lock BEFORE fulfilling the futures, so stats()
     * read after a future resolves always includes the batch. On a
     * model fault the group takes one per-row isolation pass; on
     * cancellation (watchdog / shutdown deadline) it fails whole.
     */
    void runGroup(const BatchGroup &group, ClaimedGroup claimed);

    /** Bounded per-row retry after a group's invocation failed: each
     *  surviving row is re-run exactly once as a 1-row batch at the
     *  group's padded length @p seq (bitwise equal to its batched
     *  result by the engine's determinism guarantee); the poisoned
     *  rows alone fail with ModelFault. */
    void isolateRows(std::vector<Pending> reqs, std::size_t seq);

    /** Fail every member of @p reqs with @p err (stats under the lock
     *  first, then the futures). */
    void failGroup(std::span<Pending> reqs, const Error &err);

    /** Count a served batch of @p bsz rows padded to @p seq, holding
     *  @p real tokens with @p max_len the longest row (lock held). */
    void countTokensLocked(std::size_t bsz, std::size_t seq,
                           std::size_t real, std::size_t max_len);

    /** Error{InvalidRequest} unless a @p len-token request is
     *  non-empty, fits max_seq and pads to a length the model can run
     *  (submit() and serveAll() validation). */
    void checkLength(std::size_t len) const;

    /** Enqueue one request (lock held); returns its logits future.
     *  @p enforce_bounds applies the admission caps (submit path). */
    std::future<std::vector<float>>
    enqueueLocked(std::vector<int> tokens, Deadline deadline,
                  bool enforce_bounds);
    /** Fail every queued request whose id satisfies @p pred with
     *  @p err (lock held): the shed pass, the serveAll() unwind and the
     *  shutdown abandon. Returns the number failed. */
    std::size_t
    failQueuedLocked(const std::function<bool(std::uint64_t)> &pred,
                     const Error &err);
    /** Drop @p id's deadlines_ entry, if it has one (lock held). */
    void eraseDeadlineLocked(Deadline deadline, std::uint64_t id);
    /** Take a group's pending requests, failing expired members, and
     *  count the batch (lock held). */
    ClaimedGroup claimGroupLocked(const BatchGroup &group);
    /** Post-runGroup bookkeeping: outstanding ids and waiters (lock
     *  held). */
    void finishGroupLocked(const BatchGroup &group);

    SequenceClassifier &model_;
    ServingConfig cfg_;
    /** Request lifecycle (its mu guards everything below), admission,
     *  watchdog, guarded invocation; declared before the dispatcher so
     *  it outlives every invocation. */
    ReliabilityCore core_;

    RequestBatcher batcher_;
    std::unordered_map<std::uint64_t, Pending> pending_;
    /**
     * Deadlines of QUEUED requests, ordered soonest-first (ids with
     * kNoDeadline are never entered). Kept in lockstep with the
     * batcher: inserted at admission, erased at claim/shed/abandon.
     * The dispatcher uses the head for two things (the timeout-flush
     * wakeup fix): re-arming its idle wait so an arriving request
     * with an earlier effective deadline shortens the sleep, and
     * urgent-flushing the bucket of a request whose deadline would
     * expire inside the normal max_wait window.
     */
    std::multiset<std::pair<Deadline, std::uint64_t>> deadlines_;
    std::size_t dispatch_seq_ = 0; ///< model batches dispatched
    ServingStats stats_;

    std::thread dispatcher_; ///< last member: starts fully-initialised
};

} // namespace serve
} // namespace fabnet

#endif // FABNET_SERVE_SERVING_H
