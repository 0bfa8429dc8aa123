#include "serve/generation.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "nn/embedding.h"

namespace fabnet {
namespace serve {

GenerationEngine::GenerationEngine(CausalGenerator &gen,
                                   GenerationConfig cfg)
    : gen_(gen), cfg_(cfg), core_(cfg_, gen.maxSeq(), "GenerationEngine")
{
    if (cfg_.max_live == 0)
        throw std::invalid_argument(
            "GenerationEngine: max_live must be >= 1");
    scheduler_ = std::thread([this] { schedulerLoop(); });
}

GenerationEngine::~GenerationEngine()
{
    // Full graceful drain first: every outstanding future resolves
    // before the scheduler is torn down. core_ then stops the watchdog
    // and releases the workspace cap.
    shutdown();
    core_.halt();
    scheduler_.join();
}

std::future<std::vector<int>>
GenerationEngine::submit(std::vector<int> prompt,
                         std::size_t max_new_tokens, Deadline deadline,
                         TokenCallback on_token)
{
    std::lock_guard<std::mutex> lk(core_.mu);
    // Admission attempts are numbered in order - refused ones included
    // - so FaultPlan admission indices are deterministic for a fixed
    // submission sequence.
    const std::uint64_t admission_index = core_.openAdmission("prompt");
    if (prompt.empty())
        throw Error(ErrorCode::InvalidRequest, "empty prompt");
    // >= and not >: a prompt that already fills every position has no
    // slot for even one generated token. Admitting it used to surface
    // later as a [ModelFault] when prefill ran off the positional
    // table; rejecting at submit keeps the failure typed and
    // synchronous.
    if (prompt.size() >= gen_.maxSeq())
        throw Error(ErrorCode::InvalidRequest,
                    "prompt leaves no room to generate (" +
                        std::to_string(prompt.size()) +
                        " >= max_seq " +
                        std::to_string(gen_.maxSeq()) + ")");
    if (max_new_tokens == 0)
        throw Error(ErrorCode::InvalidRequest,
                    "max_new_tokens must be >= 1");
    core_.admit(
        admission_index, deadline, prompt.size(), true, stats_,
        [this] { return queue_.size(); },
        [this](Deadline now) {
            stats_.shed += failQueuedLocked(
                [now](const GenRequest &r) {
                    return r.deadline != kNoDeadline && r.deadline <= now;
                },
                Error(ErrorCode::DeadlineExceeded,
                      "shed from the admission queue (DropExpiredFirst: "
                      "deadline expired before prefill)"));
        });
    queue_.emplace_back();
    GenRequest &r = queue_.back();
    r.prompt = std::move(prompt);
    r.max_new = max_new_tokens;
    r.deadline = deadline;
    r.on_token = std::move(on_token);
    r.admission_index = admission_index;
    r.id = core_.enlist(r.prompt.size());
    ++stats_.requests;
    core_.work_cv.notify_all();
    return r.promise.get_future();
}

void
GenerationEngine::flush()
{
    core_.flush();
}

void
GenerationEngine::shutdown(Deadline deadline)
{
    // At the deadline the scheduler evicts the remaining live set at
    // the next step boundary.
    core_.shutdown(deadline, [this] { abandonQueuedLocked(); });
}

GenerationStats
GenerationEngine::stats() const
{
    GenerationStats out;
    {
        std::lock_guard<std::mutex> lk(core_.mu);
        out = stats_;
    }
    core_.stamp(out);
    return out;
}

std::size_t
GenerationEngine::failQueuedLocked(
    const std::function<bool(const GenRequest &)> &pred, const Error &err)
{
    // Counters and futures change under one hold of the engine lock,
    // which stats() takes too.
    std::deque<GenRequest> kept;
    std::size_t failed = 0;
    for (GenRequest &r : queue_) {
        if (!pred(r)) {
            kept.push_back(std::move(r));
            continue;
        }
        ++failed;
        ++stats_.failed;
        core_.queued_tokens -= r.prompt.size();
        core_.outstanding.erase(r.id);
        r.promise.set_exception(std::make_exception_ptr(err));
    }
    queue_.swap(kept);
    core_.idle_cv.notify_all(); // outstanding shrank: waiters re-check
    return failed;
}

void
GenerationEngine::abandonQueuedLocked()
{
    failQueuedLocked([](const GenRequest &) { return true; },
                     Error(ErrorCode::ShuttingDown,
                           "engine shut down before this prompt was "
                           "prefilled"));
}

void
GenerationEngine::completeSeq(Live &seq)
{
    // Order: stats counted first, then the future resolves, and only
    // then does the outstanding set shrink - so a flush()/shutdown() waiter
    // that wakes on the erase always finds the future ready, and a
    // client waking from future.get() always sees itself counted.
    {
        std::lock_guard<std::mutex> lk(core_.mu);
        ++stats_.completed;
    }
    seq.req.promise.set_value(std::move(seq.generated));
    {
        std::lock_guard<std::mutex> lk(core_.mu);
        core_.outstanding.erase(seq.req.id);
        core_.idle_cv.notify_all();
    }
}

void
GenerationEngine::failSeq(GenRequest &req, const Error &err,
                          bool mid_decode)
{
    // Same publication order as completeSeq.
    {
        std::lock_guard<std::mutex> lk(core_.mu);
        ++stats_.failed;
        if (mid_decode)
            ++stats_.expired_mid_decode;
        if (err.code() == ErrorCode::ModelFault)
            ++stats_.model_faults;
    }
    req.promise.set_exception(std::make_exception_ptr(err));
    {
        std::lock_guard<std::mutex> lk(core_.mu);
        core_.outstanding.erase(req.id);
        core_.idle_cv.notify_all();
    }
}

bool
GenerationEngine::seqDone(const Live &seq) const
{
    if (seq.generated.size() >= seq.req.max_new)
        return true;
    if (cfg_.eos_token >= 0 && !seq.generated.empty() &&
        seq.generated.back() == cfg_.eos_token)
        return true;
    // Positional table exhausted: no further step is legal.
    return seq.state.len >= gen_.maxSeq();
}

void
GenerationEngine::advance(Live &seq, int tok, std::vector<Live> &keep)
{
    // Count BEFORE the callback/future can observe the token, matching
    // the engine-wide "stats published before results" order.
    {
        std::lock_guard<std::mutex> lk(core_.mu);
        ++stats_.decode_tokens;
    }
    seq.generated.push_back(tok);
    if (seq.req.on_token) {
        try {
            seq.req.on_token(tok);
        } catch (...) {
            failSeq(seq.req,
                    Error(ErrorCode::InvalidRequest,
                          "token callback threw; request failed"),
                    false);
            return;
        }
    }
    seq.next_input = tok;
    if (!seqDone(seq)) {
        keep.push_back(std::move(seq));
    } else if (seq.req.deadline != kNoDeadline &&
               seq.req.deadline <= Deadline::clock::now()) {
        // Finished by a step that ended past the deadline: discarded,
        // as ServingEngine discards a result computed past it, so a
        // fulfilled future always resolved within its deadline.
        failSeq(seq.req,
                Error(ErrorCode::DeadlineExceeded,
                      "deadline passed during the final decode step "
                      "(generation discarded)"),
                true);
    } else {
        completeSeq(seq);
    }
}

Tensor
GenerationEngine::forward(std::span<Live> seqs, bool prefill)
{
    std::vector<SequenceState *> states;
    states.reserve(seqs.size());
    for (Live &s : seqs)
        states.push_back(&s.state);
    if (prefill) {
        std::vector<std::vector<int>> prompts;
        prompts.reserve(seqs.size());
        for (const Live &s : seqs)
            prompts.push_back(s.req.prompt);
        return gen_.prefill(prompts, states);
    }
    std::vector<int> toks;
    toks.reserve(seqs.size());
    for (const Live &s : seqs)
        toks.push_back(s.next_input);
    return gen_.decodeStep(toks, states);
}

void
GenerationEngine::invoke(std::vector<Live> seqs, std::vector<Live> &keep,
                         bool prefill)
{
    // Prefills and decode steps share one invocation counter - the
    // FaultPlan's delay/stall key.
    std::size_t index = 0;
    {
        std::lock_guard<std::mutex> lk(core_.mu);
        index = invoke_seq_++;
        if (prefill) {
            ++stats_.prefill_batches;
            for (const Live &s : seqs)
                stats_.prefill_tokens += s.req.prompt.size();
        } else {
            ++stats_.steps;
        }
    }
    core_.delay(index);
    keep.reserve(keep.size() + seqs.size());
    std::string fault;
    std::vector<std::size_t> pre_lens;
    pre_lens.reserve(seqs.size());
    for (const Live &s : seqs) {
        if (fault.empty())
            fault = core_.injectedFault(s.req.admission_index);
        pre_lens.push_back(s.state.len);
    }

    Tensor logits;
    try {
        logits = core_.guard([&] { return forward(seqs, prefill); },
                             core_.stalls(index), fault);
    } catch (const runtime::Cancelled &) {
        // The invocation never finished; no sequence has a usable
        // state, and re-running a stuck batch would stick again.
        const Error err = core_.cancelCause();
        for (Live &s : seqs)
            failSeq(s.req, err, false);
        return;
    } catch (...) {
        // Roll every sequence back to its pre-invocation cache length
        // (a faulted invocation may have appended K/V rows before
        // throwing), then retry one sequence at a time: survivors
        // advance bitwise identically (a 1-row prefill/step equals its
        // batched one by the decode-parity contract), the poisoned
        // sequence alone fails - model faults are sticky.
        for (std::size_t i = 0; i < seqs.size(); ++i)
            gen_.rollback(seqs[i].state, pre_lens[i]);
        {
            std::lock_guard<std::mutex> lk(core_.mu);
            ++stats_.isolation_retries;
        }
        for (Live &s : seqs) {
            try {
                const Tensor one = core_.guard(
                    [&] { return forward({&s, 1}, prefill); }, false,
                    core_.injectedFault(s.req.admission_index));
                advance(s, nn::argmaxRows(one)[0], keep);
            } catch (...) {
                failSeq(s.req, core_.failure(std::current_exception()),
                        false);
            }
        }
        return;
    }

    const std::vector<int> toks = nn::argmaxRows(logits);
    for (std::size_t i = 0; i < seqs.size(); ++i)
        advance(seqs[i], toks[i], keep);
}

void
GenerationEngine::schedulerLoop()
{
    std::vector<Live> live;
    std::unique_lock<std::mutex> lk(core_.mu);
    for (;;) {
        if (core_.abandoned() && !queue_.empty())
            abandonQueuedLocked();
        // Admission up to max_live: pop FIFO, discarding requests that
        // expired while queued (failed before any model time).
        std::vector<Live> fresh;
        const auto now = Deadline::clock::now();
        while (live.size() + fresh.size() < cfg_.max_live &&
               !queue_.empty()) {
            GenRequest r = std::move(queue_.front());
            queue_.pop_front();
            core_.queued_tokens -= r.prompt.size();
            if (r.deadline != kNoDeadline && r.deadline <= now) {
                ++stats_.failed;
                ++stats_.expired_in_queue;
                core_.outstanding.erase(r.id);
                r.promise.set_exception(std::make_exception_ptr(Error(
                    ErrorCode::DeadlineExceeded,
                    "deadline expired in queue (prompt never reached "
                    "the model)")));
                core_.idle_cv.notify_all();
                continue;
            }
            Live &s = fresh.emplace_back();
            s.req = std::move(r);
            s.state = gen_.newState();
        }
        if (fresh.empty() && live.empty()) {
            if (core_.stop)
                break;
            core_.idle_cv.notify_all();
            core_.work_cv.wait(lk);
            continue;
        }
        stats_.peak_live =
            std::max(stats_.peak_live, live.size() + fresh.size());
        lk.unlock();

        if (!fresh.empty())
            invoke(std::move(fresh), live, true);

        if (core_.abandoned()) {
            const Error err(ErrorCode::ShuttingDown,
                            "live sequence evicted at the shutdown "
                            "deadline");
            for (Live &s : live)
                failSeq(s.req, err, false);
            live.clear();
            lk.lock();
            continue;
        }

        // Per-step deadline eviction: an expired live sequence leaves
        // BEFORE the next token is computed.
        const auto step_now = Deadline::clock::now();
        for (auto it = live.begin(); it != live.end();) {
            if (it->req.deadline != kNoDeadline &&
                it->req.deadline <= step_now) {
                failSeq(it->req,
                        Error(ErrorCode::DeadlineExceeded,
                              "deadline passed mid-decode (partial "
                              "generation discarded)"),
                        true);
                it = live.erase(it);
            } else {
                ++it;
            }
        }

        // The step takes the live set and moves its survivors back.
        if (!live.empty())
            invoke(std::exchange(live, {}), live, false);

        lk.lock();
    }
    lk.unlock();
    // halt() with sequences still live cannot happen after an orderly
    // shutdown(); fail any leftovers rather than stranding futures.
    for (Live &s : live)
        failSeq(s.req, Error(ErrorCode::ShuttingDown, "engine stopped"),
                false);
}

} // namespace serve
} // namespace fabnet
