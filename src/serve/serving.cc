#include "serve/serving.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace fabnet {
namespace serve {

ServingEngine::ServingEngine(SequenceClassifier &model, ServingConfig cfg)
    : model_(model), cfg_(cfg),
      core_(cfg_, model.config().max_seq, "ServingEngine"),
      batcher_(cfg.max_batch, cfg.bucket_granularity,
               model.config().max_seq)
{
    if (cfg_.pad_token < 0 ||
        static_cast<std::size_t>(cfg_.pad_token) >= model_.config().vocab)
        throw std::invalid_argument(
            "ServingEngine: pad_token outside the model vocabulary");
    // With granularity 1 buckets are padding-free, so even layers
    // without a masked form serve deterministically.
    if (!model_.supportsMaskedBatch() && cfg_.bucket_granularity > 1 &&
        !cfg_.allow_unmasked_mixers)
        throw std::invalid_argument(
            "ServingEngine: model has blocks without a masked form "
            "(Fourier mixers) - served logits would depend on the "
            "padded length a request happens to be bucketed at. Use "
            "bucket_granularity == 1 (padding-free buckets), or set "
            "ServingConfig::allow_unmasked_mixers to serve anyway, "
            "forfeiting per-request determinism.");
    dispatcher_ = std::thread([this] { dispatchLoop(); });
}

ServingEngine::~ServingEngine()
{
    // Full graceful drain first: every outstanding future resolves
    // (and every flush()/serveAll() waiter is released) before the
    // threads are torn down.
    shutdown();
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
        work_cv_.notify_all();
        idle_cv_.notify_all();
    }
    dispatcher_.join();
    // core_ then stops the watchdog and releases the workspace cap.
}

std::future<std::vector<float>>
ServingEngine::enqueueLocked(std::vector<int> tokens, Deadline deadline,
                             bool enforce_bounds)
{
    // Admission attempts are numbered in order - rejected ones
    // included - so FaultPlan admission indices are deterministic for
    // a fixed submission sequence.
    const std::uint64_t admission_index = submit_seq_++;
    // Validate the length up front with a typed error; nothing is
    // queued on any throw below.
    try {
        (void)batcher_.bucketLen(tokens.size());
    } catch (const std::invalid_argument &e) {
        throw Error(ErrorCode::InvalidRequest, e.what());
    }
    const auto now = core_.admit(
        admission_index, deadline, tokens.size(), enforce_bounds, stats_,
        [this] { return std::pair(batcher_.size(), queued_tokens_); },
        [this](Deadline t) { shedExpiredLocked(t); });
    const std::uint64_t id = next_id_++;
    batcher_.push(id, tokens.size(), now);
    outstanding_.insert(id);
    queued_tokens_ += tokens.size();
    if (deadline != kNoDeadline)
        deadlines_.emplace(deadline, id);
    Pending &p = pending_[id];
    p.tokens = std::move(tokens);
    p.deadline = deadline;
    p.admission_index = admission_index;
    std::future<std::vector<float>> fut = p.promise.get_future();
    ++stats_.requests;
    return fut;
}

void
ServingEngine::shedExpiredLocked(RequestBatcher::Clock::time_point now)
{
    const std::vector<std::uint64_t> victims =
        batcher_.removeIf([&](std::uint64_t id) {
            const Pending &p = pending_.at(id);
            return p.deadline != kNoDeadline && p.deadline <= now;
        });
    if (victims.empty())
        return;
    stats_.shed += victims.size();
    stats_.failed += victims.size();
    for (std::uint64_t id : victims) {
        auto it = pending_.find(id);
        queued_tokens_ -= it->second.tokens.size();
        eraseDeadlineLocked(it->second.deadline, id);
        it->second.promise.set_exception(std::make_exception_ptr(Error(
            ErrorCode::DeadlineExceeded,
            "shed from the admission queue (DropExpiredFirst: deadline "
            "expired before dispatch)")));
        pending_.erase(it);
        outstanding_.erase(id);
    }
    idle_cv_.notify_all(); // outstanding_ shrank: waiters re-check
}

void
ServingEngine::eraseDeadlineLocked(Deadline deadline, std::uint64_t id)
{
    if (deadline == kNoDeadline)
        return;
    const auto it = deadlines_.find({deadline, id});
    if (it != deadlines_.end())
        deadlines_.erase(it);
}

void
ServingEngine::failQueuedLocked()
{
    const std::vector<std::uint64_t> victims =
        batcher_.removeIf([](std::uint64_t) { return true; });
    stats_.failed += victims.size();
    for (std::uint64_t id : victims) {
        auto it = pending_.find(id);
        queued_tokens_ -= it->second.tokens.size();
        eraseDeadlineLocked(it->second.deadline, id);
        it->second.promise.set_exception(std::make_exception_ptr(Error(
            ErrorCode::ShuttingDown,
            "engine shut down before this request was served")));
        pending_.erase(it);
        outstanding_.erase(id);
    }
    idle_cv_.notify_all();
}

std::future<std::vector<float>>
ServingEngine::submit(std::vector<int> tokens, Deadline deadline)
{
    std::lock_guard<std::mutex> lk(mu_);
    if (stop_ || draining_)
        throw Error(ErrorCode::ShuttingDown,
                    "engine is shutting down; request not admitted");
    std::future<std::vector<float>> fut =
        enqueueLocked(std::move(tokens), deadline, true);
    work_cv_.notify_all();
    return fut;
}

std::vector<std::vector<float>>
ServingEngine::serveAll(const std::vector<std::vector<int>> &requests)
{
    std::vector<std::future<std::vector<float>>> futs;
    futs.reserve(requests.size());
    std::uint64_t watermark = 0;
    {
        // Bulk enqueue WITHOUT waking the dispatcher: the calling
        // thread is about to run the groups itself, so the handoff
        // would only add a wakeup and a context switch per batch.
        std::lock_guard<std::mutex> lk(mu_);
        if (stop_ || draining_)
            throw Error(ErrorCode::ShuttingDown,
                        "engine is shutting down; request set not "
                        "admitted");
        // All-or-nothing admission: validate the whole set before
        // anything is enqueued, so a malformed request throws with no
        // partial set left behind.
        for (std::size_t i = 0; i < requests.size(); ++i) {
            try {
                (void)batcher_.bucketLen(requests[i].size());
            } catch (const std::invalid_argument &e) {
                throw Error(ErrorCode::InvalidRequest,
                            "serveAll request #" + std::to_string(i) +
                                ": " + e.what());
            }
        }
        const std::uint64_t first_id = next_id_;
        try {
            // serveAll is exempt from the admission caps (the caller
            // is synchronous and self-draining - it IS the
            // backpressure) and its requests carry no deadline.
            for (const auto &r : requests)
                futs.push_back(enqueueLocked(r, kNoDeadline, false));
        } catch (...) {
            // Lengths were pre-validated, so only an injected
            // admission fault lands here. Keep the all-or-nothing
            // contract: unwind the already-admitted prefix (we held
            // mu_ throughout, so every id >= first_id is ours and
            // still queued) instead of leaving it to drain silently.
            const std::vector<std::uint64_t> prefix = batcher_.removeIf(
                [&](std::uint64_t id) { return id >= first_id; });
            stats_.failed += prefix.size();
            for (std::uint64_t id : prefix) {
                auto it = pending_.find(id);
                queued_tokens_ -= it->second.tokens.size();
                it->second.promise.set_exception(
                    std::make_exception_ptr(Error(
                        ErrorCode::InvalidRequest,
                        "aborted: a later request in the same "
                        "serveAll set failed admission")));
                pending_.erase(it);
                outstanding_.erase(id);
            }
            idle_cv_.notify_all();
            throw;
        }
        watermark = next_id_;
        // Same critical section as the enqueue: the dispatcher can
        // never observe the requests without also observing the
        // inline server, so it parks instead of stealing groups.
        ++inline_active_;
    }

    // Inline bulk dispatch: claim and run groups on this thread until
    // everything submitted above is served. Ready (full) buckets pop
    // with their normal flush reason first, then the leftovers drain -
    // the same grouping the dispatcher would produce.
    try {
        for (;;) {
            std::unique_lock<std::mutex> lk(mu_);
            const auto served_to_watermark = [this, watermark] {
                return outstanding_.empty() ||
                       *outstanding_.begin() >= watermark;
            };
            std::optional<BatchGroup> group =
                batcher_.popReady(RequestBatcher::Clock::now(),
                                  cfg_.max_wait);
            if (!group)
                group = batcher_.drainBelow(watermark);
            if (!group) {
                if (served_to_watermark())
                    break;
                // The rest is in flight on another server (a
                // concurrent serveAll, a flush-draining dispatcher);
                // wait like flush() does.
                idle_cv_.wait(lk, [&] {
                    return served_to_watermark() || stop_;
                });
                if (stop_)
                    break; // shutdown drain will fulfil the futures
                continue;
            }
            ClaimedGroup claimed = claimGroupLocked(*group);
            if (claimed.reqs.empty()) {
                // Every member expired at claim (possible when submit
                // traffic with deadlines shares our buckets).
                finishGroupLocked(*group);
                continue;
            }
            ++stats_.inline_batches;
            lk.unlock(); // serve outside the lock, like the dispatcher
            runGroup(*group, std::move(claimed));
            lk.lock();
            finishGroupLocked(*group);
        }
    } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        --inline_active_;
        work_cv_.notify_all();
        throw;
    }
    {
        // Hand whatever post-watermark traffic accumulated back to
        // the dispatcher.
        std::lock_guard<std::mutex> lk(mu_);
        --inline_active_;
        work_cv_.notify_all();
    }

    std::vector<std::vector<float>> out;
    out.reserve(futs.size());
    for (auto &f : futs)
        out.push_back(f.get());
    return out;
}

void
ServingEngine::flush()
{
    std::unique_lock<std::mutex> lk(mu_);
    // Watermark: wait for the requests submitted before this call
    // only, so concurrent submitters cannot starve a flusher.
    const std::uint64_t watermark = next_id_;
    const auto served_to_watermark = [this, watermark] {
        return outstanding_.empty() ||
               *outstanding_.begin() >= watermark;
    };
    if (served_to_watermark())
        return;
    ++flush_waiters_;
    flush_watermark_ = std::max(flush_watermark_, watermark);
    work_cv_.notify_all();
    // A shutdown() racing this flush resolves every outstanding
    // future (served, or failed at a shutdown deadline), so the
    // predicate always becomes true: flush is never stranded across
    // shutdown and returns with its whole watermark resolved.
    idle_cv_.wait(lk, [&] { return served_to_watermark() || stop_; });
    if (--flush_waiters_ == 0)
        flush_watermark_ = 0;
}

void
ServingEngine::shutdown(Deadline deadline)
{
    std::unique_lock<std::mutex> lk(mu_);
    draining_ = true;
    work_cv_.notify_all(); // dispatcher switches to drain mode
    const auto all_resolved = [this] { return outstanding_.empty(); };
    if (deadline == kNoDeadline) {
        // Full drain. (Not wait_until: time_point::max() overflows
        // some libstdc++ wait implementations.)
        idle_cv_.wait(lk, all_resolved);
        return;
    }
    if (idle_cv_.wait_until(lk, deadline, all_resolved))
        return;
    // Deadline passed: cooperatively cancel the in-flight invocation
    // (its rows fail with ShuttingDown), fail everything still queued,
    // and wait for the last group to unwind.
    core_.abandon();
    failQueuedLocked();
    idle_cv_.wait(lk, all_resolved);
}

std::size_t
ServingEngine::bucketLen(std::size_t len) const
{
    return batcher_.bucketLen(len);
}

ServingStats
ServingEngine::stats() const
{
    ServingStats out;
    {
        std::lock_guard<std::mutex> lk(mu_);
        out = stats_;
    }
    core_.stamp(out);
    return out;
}

void
ServingEngine::failGroup(std::span<Pending> reqs, const Error &err)
{
    // Count the failures BEFORE the futures become ready (same
    // publication order as the success path).
    {
        std::lock_guard<std::mutex> guard(mu_);
        stats_.failed += reqs.size();
        if (err.code() == ErrorCode::ModelFault)
            stats_.model_faults += reqs.size();
    }
    const std::exception_ptr ep = std::make_exception_ptr(err);
    for (Pending &p : reqs)
        p.promise.set_exception(ep);
}

Tensor
ServingEngine::invokeModel(const std::vector<int> &tokens,
                           std::size_t bsz, std::size_t seq,
                           const std::vector<std::size_t> &lens,
                           bool stall, const std::string &fault)
{
    // The model is single-user (layer caches); the dispatcher, inline
    // serveAll() callers and isolation retries serialise here.
    std::lock_guard<std::mutex> model_lock(model_mu_);
    return core_.guard(
        [&] { return model_.forwardBatch(tokens, bsz, seq, lens); }, stall,
        fault);
}

void
ServingEngine::runGroup(const BatchGroup &group, ClaimedGroup claimed)
{
    std::vector<Pending> &reqs = claimed.reqs;
    const std::size_t bsz = reqs.size();
    const std::size_t seq = group.padded_len;
    core_.delay(claimed.dispatch_index);

    std::vector<int> tokens(bsz * seq, cfg_.pad_token);
    std::vector<std::size_t> lens(bsz);
    std::string fault;
    for (std::size_t i = 0; i < bsz; ++i) {
        lens[i] = reqs[i].tokens.size();
        std::copy(reqs[i].tokens.begin(), reqs[i].tokens.end(),
                  tokens.begin() + i * seq);
        if (fault.empty())
            fault = core_.injectedFault(reqs[i].admission_index);
    }

    // Build every result before fulfilling any promise, so the catch
    // paths never touch an already-satisfied promise (set_exception
    // on one throws future_error out of the dispatcher).
    std::vector<std::vector<float>> outs;
    try {
        const Tensor logits =
            invokeModel(tokens, bsz, seq, lens,
                        core_.stalls(claimed.dispatch_index), fault);
        const std::size_t classes = logits.dim(1);
        outs.reserve(bsz);
        for (std::size_t i = 0; i < bsz; ++i) {
            const float *row = logits.data() + i * classes;
            outs.emplace_back(row, row + classes);
        }
    } catch (const runtime::Cancelled &) {
        // Watchdog / shutdown-deadline cancellation fails the whole
        // group: the invocation never finished, so there is no row to
        // salvage, and re-running a stuck batch would stick again.
        failGroup(reqs, core_.cancelCause());
        return;
    } catch (...) {
        if (bsz == 1) {
            // Already a 1-row batch: the fault belongs to this row.
            failGroup(reqs, core_.failure(std::current_exception()));
            return;
        }
        // Per-request fault isolation: one bounded per-row pass so the
        // poisoned row(s) alone fail and the survivors still get their
        // (bitwise-identical) logits.
        isolateRows(std::move(reqs));
        return;
    }

    // Mid-batch deadline check: results computed past a request's
    // deadline are discarded - a fulfilled future therefore always
    // resolved within its deadline.
    const auto done = RequestBatcher::Clock::now();
    std::vector<char> expired(bsz, 0);
    std::size_t n_expired = 0;
    for (std::size_t i = 0; i < bsz; ++i) {
        if (reqs[i].deadline != kNoDeadline && reqs[i].deadline <= done) {
            expired[i] = 1;
            ++n_expired;
        }
    }
    // Publish the batch's outcome counters BEFORE fulfilling any
    // promise: a client thread that wakes from future.get() and
    // immediately calls stats() must already see this batch counted
    // (tests/serving_test.cpp relies on it).
    {
        std::lock_guard<std::mutex> guard(mu_);
        stats_.completed += bsz - n_expired;
        stats_.failed += n_expired;
        stats_.expired_mid_batch += n_expired;
        std::size_t real = 0, max_len = 0;
        for (const Pending &p : reqs) {
            real += p.tokens.size();
            max_len = std::max(max_len, p.tokens.size());
        }
        stats_.real_tokens += real;
        stats_.padded_tokens += bsz * seq;
        stats_.tight_tokens += bsz * max_len;
        // Padded rows this batch skipped end to end (forwardBatch
        // runs every row for models without a masked form).
        if (model_.supportsMaskedBatch())
            stats_.rows_skipped += bsz * seq - real;
    }
    for (std::size_t i = 0; i < bsz; ++i) {
        if (expired[i])
            reqs[i].promise.set_exception(std::make_exception_ptr(Error(
                ErrorCode::DeadlineExceeded,
                "deadline passed while the batch was executing")));
        else
            reqs[i].promise.set_value(std::move(outs[i]));
    }
}

void
ServingEngine::isolateRows(std::vector<Pending> reqs)
{
    {
        std::lock_guard<std::mutex> guard(mu_);
        ++stats_.isolation_retries;
    }
    for (Pending &p : reqs) {
        const auto now = RequestBatcher::Clock::now();
        if (p.deadline != kNoDeadline && p.deadline <= now) {
            {
                std::lock_guard<std::mutex> guard(mu_);
                ++stats_.failed;
                ++stats_.expired_mid_batch;
            }
            p.promise.set_exception(std::make_exception_ptr(Error(
                ErrorCode::DeadlineExceeded,
                "deadline passed during fault isolation")));
            continue;
        }
        const std::size_t len = p.tokens.size();
        try {
            // A 1-row batch at the row's own length: bitwise equal to
            // the row's batched result by the engine's determinism
            // guarantee, so survivors of a poisoned batch see logits
            // identical to a fault-free run. Model faults are sticky
            // (serve/fault.h): the poisoned row fails here again.
            const Tensor logits =
                invokeModel(p.tokens, 1, len, {len}, false,
                            core_.injectedFault(p.admission_index));
            const std::size_t classes = logits.dim(1);
            std::vector<float> out(logits.data(),
                                   logits.data() + classes);
            {
                std::lock_guard<std::mutex> guard(mu_);
                ++stats_.completed;
                stats_.real_tokens += len;
                stats_.padded_tokens += len;
                stats_.tight_tokens += len;
            }
            p.promise.set_value(std::move(out));
        } catch (...) {
            failGroup({&p, 1}, core_.failure(std::current_exception()));
        }
    }
}

void
ServingEngine::dispatchLoop()
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        std::optional<BatchGroup> group;
        // While flushers wait, drain the buckets holding their
        // pre-watermark requests; post-watermark traffic keeps normal
        // full/timeout batching (and cannot starve the flusher, since
        // its buckets no longer compete for the drain).
        if (stop_ || draining_)
            group = batcher_.drain();
        else if (inline_active_ > 0 && flush_waiters_ == 0) {
            // Inline serveAll() servers own the queue: parking here
            // avoids stealing their groups (and serialising on the
            // model mutex behind them). They notify work_cv_ on exit
            // for whatever traffic remains.
            work_cv_.wait(lk);
            continue;
        } else if (flush_waiters_ > 0)
            group = batcher_.drainBelow(flush_watermark_);
        if (!group)
            group = batcher_.popReady(RequestBatcher::Clock::now(),
                                      cfg_.max_wait);
        // Urgent flush: a queued request whose deadline falls inside
        // the normal max_wait window cannot afford to wait out its
        // bucket's timeout - flush its bucket now (it was going to be
        // served undersized at the timeout anyway; doing it early
        // costs nothing and meets the deadline).
        if (!group && !deadlines_.empty() &&
            deadlines_.begin()->first - cfg_.max_wait <=
                RequestBatcher::Clock::now()) {
            group = batcher_.popContaining(deadlines_.begin()->second);
            if (group)
                ++stats_.urgent_flushes;
            else // stale entry (should not happen; stay live anyway)
                deadlines_.erase(deadlines_.begin());
        }
        if (!group) {
            if (stop_)
                break; // queue drained
            auto oldest = batcher_.oldestEnqueue();
            std::optional<RequestBatcher::Clock::time_point> wake;
            if (oldest)
                wake = *oldest + cfg_.max_wait;
            // Re-arm against the earliest queued deadline too: it
            // turns urgent at deadline - max_wait, and an arriving
            // request with an earlier effective deadline notifies
            // work_cv_ (submit()), landing back here to re-arm - the
            // dispatcher never sleeps out a full max_wait while a
            // near-deadline request expires in queue.
            if (!deadlines_.empty()) {
                const auto urgent_at =
                    deadlines_.begin()->first - cfg_.max_wait;
                if (!wake || urgent_at < *wake)
                    wake = urgent_at;
            }
            if (wake)
                work_cv_.wait_until(lk, *wake);
            else
                work_cv_.wait(lk);
            continue;
        }

        ClaimedGroup claimed = claimGroupLocked(*group);
        if (claimed.reqs.empty()) {
            // Every member expired at claim: no model invocation.
            finishGroupLocked(*group);
            continue;
        }
        lk.unlock(); // serve outside the lock so submit() never blocks
        runGroup(*group, std::move(claimed)); // counts completed/failed
        lk.lock();
        finishGroupLocked(*group);
    }
}

ServingEngine::ClaimedGroup
ServingEngine::claimGroupLocked(const BatchGroup &group)
{
    ClaimedGroup claimed;
    claimed.reqs.reserve(group.ids.size());
    const auto now = RequestBatcher::Clock::now();
    for (std::uint64_t id : group.ids) {
        auto it = pending_.find(id);
        Pending p = std::move(it->second);
        pending_.erase(it);
        queued_tokens_ -= p.tokens.size();
        eraseDeadlineLocked(p.deadline, id);
        if (p.deadline != kNoDeadline && p.deadline <= now) {
            // Expired while queued: fail BEFORE any model time is
            // spent. Counted under mu_ (held) before the future is
            // readied; outstanding_ is erased in finishGroupLocked.
            ++stats_.failed;
            ++stats_.expired_in_queue;
            p.promise.set_exception(std::make_exception_ptr(Error(
                ErrorCode::DeadlineExceeded,
                "deadline expired in queue (request never reached the "
                "model)")));
            continue;
        }
        claimed.reqs.push_back(std::move(p));
    }
    if (!claimed.reqs.empty()) {
        // Dispatch indices number actual model invocations, in claim
        // order - the FaultPlan's batch key. All-expired groups never
        // reach the model and are not counted as batches.
        claimed.dispatch_index = dispatch_seq_++;
        ++stats_.batches;
        switch (group.reason) {
          case FlushReason::Full:
            ++stats_.flushed_full;
            break;
          case FlushReason::Timeout:
            ++stats_.flushed_timeout;
            break;
          case FlushReason::Drain:
            ++stats_.flushed_drain;
            break;
        }
    }
    return claimed;
}

void
ServingEngine::finishGroupLocked(const BatchGroup &group)
{
    for (std::uint64_t id : group.ids)
        outstanding_.erase(id);
    idle_cv_.notify_all(); // flush()/serveAll() waiters re-check
}

} // namespace serve
} // namespace fabnet
