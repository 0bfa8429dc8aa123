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
    // dispatcher is torn down. core_ then stops the watchdog and
    // releases the workspace cap.
    shutdown();
    core_.halt();
    dispatcher_.join();
}

void
ServingEngine::checkLength(std::size_t len) const
{
    std::size_t bucket = 0;
    try {
        bucket = batcher_.bucketLen(len);
    } catch (const std::invalid_argument &e) {
        throw Error(ErrorCode::InvalidRequest, e.what());
    }
    if (!model_.runsLength(bucket))
        throw Error(ErrorCode::InvalidRequest,
                    "a " + std::to_string(len) +
                        "-token request pads to length " +
                        std::to_string(bucket) +
                        ", which the model cannot run");
}

std::future<std::vector<float>>
ServingEngine::enqueueLocked(std::vector<int> tokens, Deadline deadline,
                             bool enforce_bounds)
{
    // Admission attempts are numbered in order - refused ones included
    // - so FaultPlan admission indices are deterministic for a fixed
    // submission sequence. Nothing is queued on any throw below.
    const std::uint64_t admission_index = core_.openAdmission("request");
    checkLength(tokens.size());
    const auto now = core_.admit(
        admission_index, deadline, tokens.size(), enforce_bounds, stats_,
        [this] { return batcher_.size(); },
        [this](Deadline t) {
            stats_.shed += failQueuedLocked(
                [&](std::uint64_t id) {
                    const Deadline d = pending_.at(id).deadline;
                    return d != kNoDeadline && d <= t;
                },
                Error(ErrorCode::DeadlineExceeded,
                      "shed from the admission queue (DropExpiredFirst: "
                      "deadline expired before dispatch)"));
        });
    const std::uint64_t id = core_.enlist(tokens.size());
    batcher_.push(id, tokens.size(), now);
    if (deadline != kNoDeadline)
        deadlines_.emplace(deadline, id);
    Pending &p = pending_[id];
    p.tokens = std::move(tokens);
    p.deadline = deadline;
    p.admission_index = admission_index;
    ++stats_.requests;
    return p.promise.get_future();
}

std::size_t
ServingEngine::failQueuedLocked(
    const std::function<bool(std::uint64_t)> &pred, const Error &err)
{
    // Counters and futures change under one hold of the engine lock,
    // which stats() takes too.
    const std::vector<std::uint64_t> victims = batcher_.removeIf(pred);
    stats_.failed += victims.size();
    for (std::uint64_t id : victims) {
        auto it = pending_.find(id);
        core_.queued_tokens -= it->second.tokens.size();
        eraseDeadlineLocked(it->second.deadline, id);
        it->second.promise.set_exception(std::make_exception_ptr(err));
        pending_.erase(it);
        core_.outstanding.erase(id);
    }
    core_.idle_cv.notify_all(); // outstanding shrank: waiters re-check
    return victims.size();
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

std::future<std::vector<float>>
ServingEngine::submit(std::vector<int> tokens, Deadline deadline)
{
    std::lock_guard<std::mutex> lk(core_.mu);
    std::future<std::vector<float>> fut =
        enqueueLocked(std::move(tokens), deadline, true);
    core_.work_cv.notify_all();
    return fut;
}

std::vector<std::vector<float>>
ServingEngine::serveAll(const std::vector<std::vector<int>> &requests)
{
    std::vector<std::future<std::vector<float>>> futs;
    futs.reserve(requests.size());
    {
        std::unique_lock<std::mutex> lk(core_.mu);
        core_.requireOpen("request set");
        // All-or-nothing admission: validate the whole set before
        // anything is enqueued, so a malformed request throws with no
        // partial set left behind.
        for (std::size_t i = 0; i < requests.size(); ++i) {
            try {
                checkLength(requests[i].size());
            } catch (const Error &e) {
                throw Error(ErrorCode::InvalidRequest,
                            "serveAll request #" + std::to_string(i) +
                                ": " + e.detail());
            }
        }
        const std::uint64_t first_id = core_.next_id;
        try {
            // serveAll is exempt from the admission caps (the caller
            // is synchronous - it IS the backpressure) and its
            // requests carry no deadline.
            for (const auto &r : requests)
                futs.push_back(enqueueLocked(r, kNoDeadline, false));
        } catch (...) {
            // Lengths were pre-validated, so only an injected
            // admission fault lands here. Keep the all-or-nothing
            // contract: unwind the already-admitted prefix (the lock
            // was held throughout, so every id >= first_id is ours and
            // still queued) instead of leaving it to drain silently.
            failQueuedLocked(
                [first_id](std::uint64_t id) { return id >= first_id; },
                Error(ErrorCode::InvalidRequest,
                      "aborted: a later request in the same serveAll "
                      "set failed admission"));
            throw;
        }
        // The dispatcher serves the set; wait for it as flush() does.
        core_.awaitLocked(lk, core_.next_id);
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
    core_.flush();
}

void
ServingEngine::shutdown(Deadline deadline)
{
    core_.shutdown(deadline, [this] {
        failQueuedLocked([](std::uint64_t) { return true; },
                         Error(ErrorCode::ShuttingDown,
                               "engine shut down before this request "
                               "was served"));
    });
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
        std::lock_guard<std::mutex> lk(core_.mu);
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
        std::lock_guard<std::mutex> guard(core_.mu);
        stats_.failed += reqs.size();
        if (err.code() == ErrorCode::ModelFault)
            stats_.model_faults += reqs.size();
    }
    const std::exception_ptr ep = std::make_exception_ptr(err);
    for (Pending &p : reqs)
        p.promise.set_exception(ep);
}

void
ServingEngine::countTokensLocked(std::size_t bsz, std::size_t seq,
                                 std::size_t real, std::size_t max_len)
{
    stats_.real_tokens += real;
    stats_.padded_tokens += bsz * seq;
    stats_.tight_tokens += bsz * max_len;
    // Padded rows this batch skipped end to end (forwardBatch runs
    // every row for models without a masked form).
    if (model_.supportsMaskedBatch())
        stats_.rows_skipped += bsz * seq - real;
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
        const Tensor logits = core_.guard(
            [&] { return model_.forwardBatch(tokens, bsz, seq, lens); },
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
        isolateRows(std::move(reqs), seq);
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
        std::lock_guard<std::mutex> guard(core_.mu);
        stats_.completed += bsz - n_expired;
        stats_.failed += n_expired;
        stats_.expired_mid_batch += n_expired;
        std::size_t real = 0, max_len = 0;
        for (const Pending &p : reqs) {
            real += p.tokens.size();
            max_len = std::max(max_len, p.tokens.size());
        }
        countTokensLocked(bsz, seq, real, max_len);
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
ServingEngine::isolateRows(std::vector<Pending> reqs, std::size_t seq)
{
    {
        std::lock_guard<std::mutex> guard(core_.mu);
        ++stats_.isolation_retries;
    }
    std::vector<int> tokens(seq);
    for (Pending &p : reqs) {
        const auto now = RequestBatcher::Clock::now();
        if (p.deadline != kNoDeadline && p.deadline <= now) {
            {
                std::lock_guard<std::mutex> guard(core_.mu);
                ++stats_.failed;
                ++stats_.expired_mid_batch;
            }
            p.promise.set_exception(std::make_exception_ptr(Error(
                ErrorCode::DeadlineExceeded,
                "deadline passed during fault isolation")));
            continue;
        }
        const std::size_t len = p.tokens.size();
        std::fill(std::copy(p.tokens.begin(), p.tokens.end(),
                            tokens.begin()),
                  tokens.end(), cfg_.pad_token);
        try {
            // The row as its batch held it - padded to the group's
            // length - as a 1-row batch: bitwise equal to the row's
            // batched result by the engine's determinism guarantee, so
            // survivors of a poisoned batch see logits identical to a
            // fault-free run (a Fourier mixer mixes the same pad rows
            // in). Model faults are sticky (serve/fault.h): the
            // poisoned row fails here again.
            const Tensor logits = core_.guard(
                [&] { return model_.forwardBatch(tokens, 1, seq, {len}); },
                false, core_.injectedFault(p.admission_index));
            const std::size_t classes = logits.dim(1);
            std::vector<float> out(logits.data(),
                                   logits.data() + classes);
            {
                std::lock_guard<std::mutex> guard(core_.mu);
                ++stats_.completed;
                countTokensLocked(1, seq, len, len);
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
    std::unique_lock<std::mutex> lk(core_.mu);
    for (;;) {
        // Draining at shutdown; otherwise the buckets holding requests
        // a flush() or serveAll() waits for go first. Post-watermark
        // traffic keeps normal full/timeout batching (and cannot
        // starve the waiters, since its buckets no longer compete for
        // the drain).
        std::optional<BatchGroup> group =
            core_.stop || core_.draining
                ? batcher_.drain()
                : batcher_.drainBelow(core_.flush_watermark);
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
            if (core_.stop)
                break; // queue drained
            auto oldest = batcher_.oldestEnqueue();
            std::optional<RequestBatcher::Clock::time_point> wake;
            if (oldest)
                wake = *oldest + cfg_.max_wait;
            // Re-arm against the earliest queued deadline too: it
            // turns urgent at deadline - max_wait, and an arriving
            // request with an earlier effective deadline notifies
            // work_cv (submit()), landing back here to re-arm - the
            // dispatcher never sleeps out a full max_wait while a
            // near-deadline request expires in queue.
            if (!deadlines_.empty()) {
                const auto urgent_at =
                    deadlines_.begin()->first - cfg_.max_wait;
                if (!wake || urgent_at < *wake)
                    wake = urgent_at;
            }
            if (wake)
                core_.work_cv.wait_until(lk, *wake);
            else
                core_.work_cv.wait(lk);
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
        core_.queued_tokens -= p.tokens.size();
        eraseDeadlineLocked(p.deadline, id);
        if (p.deadline != kNoDeadline && p.deadline <= now) {
            // Expired while queued: fail BEFORE any model time is
            // spent. Counted under the lock (held) before the future
            // is readied; the id leaves outstanding in
            // finishGroupLocked.
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
        core_.outstanding.erase(id);
    core_.idle_cv.notify_all(); // flush()/serveAll() waiters re-check
}

} // namespace serve
} // namespace fabnet
