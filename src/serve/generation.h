/**
 * @file generation.h
 * Continuous-batching streaming generation engine.
 *
 * GenerationEngine drives a CausalGenerator (model/generator.h) as a
 * token-serving system: callers submit a prompt and get a future for
 * the generated token sequence, with an optional per-token streaming
 * callback. Scheduling is CONTINUOUS: a single scheduler thread admits
 * and evicts sequences BETWEEN DECODE STEPS rather than per flush - a
 * fresh prompt joins the live set at the next step boundary (batched
 * ragged prefill), a finished sequence leaves at the step it completes,
 * and the step batch is whatever is live right now. The decode-parity
 * bitwise contract (nn/decode.h: a sequence's tokens depend only on its
 * own prefix, never on who shares its batches) is what makes this
 * scheduling freedom safe: admission order, eviction timing and
 * live-set composition can never change anyone's tokens.
 *
 * ## Failure model at token granularity (docs/SERVING.md)
 * The reliability core and request lifecycle ServingEngine also runs on
 * (serve/reliability.h), carried to per-token granularity:
 *  - deadlines are re-checked EVERY STEP: an expired live sequence is
 *    evicted before the next token is computed (DeadlineExceeded with
 *    the tokens so far spent discarded, like mid-batch expiry);
 *  - bounded admission (queue depth + queued-prompt-token caps) with
 *    the same shed policies;
 *  - a fault inside one step poisons only its own sequence: every
 *    live sequence's K/V caches are ROLLED BACK to their pre-step
 *    length (a faulted step may have appended rows before throwing;
 *    truncation restores the exact pre-step state) and the step is
 *    retried one sequence at a time - survivors advance bitwise
 *    identically (the 1-row step equals its batched step), the
 *    poisoned sequence alone fails with ModelFault;
 *  - a watchdog cancels a stuck prefill/step cooperatively;
 *  - shutdown(deadline) drains live sequences to completion, then
 *    fails the remainder with ShuttingDown at the deadline.
 * serve/fault.h injects all of these deterministically: admission and
 * Model faults key on the ADMISSION index, delays and stalls key on
 * the INVOCATION index (prefills and decode steps share one counter,
 * numbered in dispatch order).
 */
#ifndef FABNET_SERVE_GENERATION_H
#define FABNET_SERVE_GENERATION_H

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <span>
#include <thread>
#include <vector>

#include "model/generator.h"
#include "serve/error.h"
#include "serve/reliability.h"

namespace fabnet {
namespace serve {

/** Streamed per-token delivery: called on the scheduler thread as
 *  each token is produced, BEFORE the future resolves. Must be fast
 *  (it blocks every live sequence's next step) and must not throw -
 *  a throwing callback fails its own request with InvalidRequest. */
using TokenCallback = std::function<void(int token)>;

/** Scheduling knobs of the generation engine; the robustness knobs
 *  (bounded admission over queued PROMPT tokens, per-invocation
 *  watchdog, fault plan, workspace cap) are the shared
 *  ReliabilityConfig base (serve/reliability.h). */
struct GenerationConfig : ReliabilityConfig
{
    /** Maximum sequences decoding concurrently (the step batch cap).
     *  Admission above this waits in the queue for an eviction. */
    std::size_t max_live = 8;
    /** Token id ending generation when sampled (included in the
     *  output); negative = no EOS, run to max_new_tokens. */
    int eos_token = -1;
};

/** Counters observing the continuous scheduler; the shared counters
 *  and execution identity are the ReliabilityStats base. */
struct GenerationStats : ReliabilityStats
{
    /** Live sequences failed because their deadline passed between
     *  decode steps, or during the step that finished them (tokens
     *  generated so far are discarded). */
    std::size_t expired_mid_decode = 0;
    std::size_t prefill_batches = 0;   ///< batched prefill invocations
    std::size_t steps = 0;             ///< decode step invocations
    std::size_t prefill_tokens = 0;    ///< prompt tokens prefilled
    std::size_t decode_tokens = 0;     ///< tokens generated (streamed)
    std::size_t peak_live = 0;         ///< max concurrent live sequences

    /** Mean live sequences per decode step (continuous-batching
     *  utilisation: how full the step batches actually ran). */
    double avgLive() const
    {
        return steps ? static_cast<double>(decode_tokens) / steps : 0.0;
    }
};

/** Continuous-batching streaming front end over a CausalGenerator. */
class GenerationEngine
{
  public:
    explicit GenerationEngine(CausalGenerator &gen,
                              GenerationConfig cfg = {});
    ~GenerationEngine();

    GenerationEngine(const GenerationEngine &) = delete;
    GenerationEngine &operator=(const GenerationEngine &) = delete;

    /**
     * Enqueue one prompt; the future resolves to the generated tokens
     * (greedy argmax, EOS included when hit; the prompt is not
     * echoed) or fails with a serve::Error. @p on_token, if set,
     * streams each token as it is produced. Admission-time conditions
     * throw synchronously (InvalidRequest for an empty/over-long
     * prompt or max_new_tokens == 0, QueueFull after the shed policy
     * ran, DeadlineExceeded for an already-expired deadline,
     * ShuttingDown once shutdown began); later failures arrive through
     * the future.
     */
    std::future<std::vector<int>> submit(std::vector<int> prompt,
                                         std::size_t max_new_tokens,
                                         Deadline deadline = kNoDeadline,
                                         TokenCallback on_token = nullptr);

    /** Block until every request submitted before this call resolved. */
    void flush();

    /**
     * Graceful drain: stop admitting, decode everything already
     * admitted to completion, return once every future is resolved.
     * If @p deadline passes first the queued requests and the live
     * sequences are failed with ShuttingDown (the in-flight step is
     * cooperatively cancelled). Idempotent; the destructor calls
     * shutdown() if it has not been called.
     */
    void shutdown(Deadline deadline = kNoDeadline);

    GenerationStats stats() const;

  private:
    /** A submitted, not-yet-live request. */
    struct GenRequest
    {
        std::vector<int> prompt;
        std::size_t max_new = 0;
        Deadline deadline = kNoDeadline;
        TokenCallback on_token;
        std::uint64_t admission_index = 0;
        std::uint64_t id = 0;
        std::promise<std::vector<int>> promise;
    };

    /** One live (decoding) sequence. */
    struct Live
    {
        GenRequest req;
        SequenceState state;
        std::vector<int> generated;
        int next_input = 0; ///< newest token, fed to the next step
    };

    void schedulerLoop();

    /**
     * One batched invocation over @p seqs - a ragged prefill of fresh
     * sequences (@p prefill) or a decode step of live ones - guarded by
     * the core and keyed on the shared invocation counter. Survivors
     * that still have tokens to generate move to @p keep; the resolved
     * rest are released on return. A cancelled invocation fails every
     * member; any other fault rolls each K/V cache back to its
     * pre-invocation length and retries each sequence alone, so only
     * the poisoned one fails.
     */
    void invoke(std::vector<Live> seqs, std::vector<Live> &keep,
                bool prefill);

    /** The generator call of invoke() over @p seqs. */
    Tensor forward(std::span<Live> seqs, bool prefill);

    /** Deliver @p tok into @p seq (counter, generated list, callback),
     *  then complete it or move it to @p keep. A throwing callback
     *  fails the sequence instead. */
    void advance(Live &seq, int tok, std::vector<Live> &keep);

    /** True when @p seq has everything it asked for (EOS, max_new, or
     *  the positional table is exhausted). */
    bool seqDone(const Live &seq) const;

    /** Resolve @p seq's future with its tokens (stats under the lock
     *  first), then retire its id from the outstanding set. */
    void completeSeq(Live &seq);

    /** Fail one sequence/request (stats under the lock first). */
    void failSeq(GenRequest &req, const Error &err, bool mid_decode);

    /** Fail every queued request @p pred selects with @p err (lock
     *  held): the shed pass and the shutdown abandon. Returns the
     *  number failed. */
    std::size_t
    failQueuedLocked(const std::function<bool(const GenRequest &)> &pred,
                     const Error &err);
    /** Fail the whole queue with ShuttingDown (lock held). */
    void abandonQueuedLocked();

    CausalGenerator &gen_;
    GenerationConfig cfg_;
    /** Request lifecycle (its mu guards everything below), admission,
     *  watchdog, guarded invocation; declared before the scheduler so
     *  it outlives every invocation. */
    ReliabilityCore core_;

    std::deque<GenRequest> queue_; ///< admitted, not yet live
    std::size_t invoke_seq_ = 0;   ///< model invocations (FaultPlan)
    GenerationStats stats_;

    std::thread scheduler_; ///< last member: starts fully-initialised
};

} // namespace serve
} // namespace fabnet

#endif // FABNET_SERVE_GENERATION_H
