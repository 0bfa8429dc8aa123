/**
 * @file reliability.h
 * The reliability core both serving engines are built on.
 *
 * ServingEngine (serve/serving.h) and GenerationEngine
 * (serve/generation.h) schedule differently - length buckets versus a
 * continuously admitted live set - but they fail the same way
 * (docs/SERVING.md "Failure model") and share one request lifecycle.
 * That shared half lives here once:
 *  - ReliabilityConfig and ReliabilityStats, the knobs and counters
 *    both engines' config and stats structs derive from;
 *  - ReliabilityCore, one member per engine: the request lifecycle
 *    (the engine lock, the outstanding-id set, the admission prelude,
 *    flush, shutdown(deadline) and the destructor's halt), bounded
 *    admission with the shed policies, the FaultPlan hooks
 *    (serve/fault.h), the watchdog thread, the guarded model
 *    invocation, the shutdown-deadline abandon flag, the mapping of a
 *    failure to its typed Error, and the workspace-cap lease.
 * Each engine keeps only its queue, its scheduler loop and its stats.
 *
 * ## Ordering contracts (docs/ARCHITECTURE.md "Serving")
 *  - Lock order: the engine lock (ReliabilityCore::mu) comes before
 *    the core's watchdog mutex (shutdown() calls abandon() under it),
 *    and the watchdog thread takes no engine lock. Each engine's one
 *    scheduler thread runs every model invocation outside the engine
 *    lock, so guard() arms the watchdog holding neither.
 *  - Publication order: every counter an outcome moves is updated
 *    before that outcome's future becomes ready. The watchdog counts a
 *    fire before it cancels, so a client woken by the failed future
 *    already reads it in stats().
 */
#ifndef FABNET_SERVE_RELIABILITY_H
#define FABNET_SERVE_RELIABILITY_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "runtime/parallel.h"
#include "serve/error.h"
#include "serve/fault.h"

namespace fabnet {
namespace serve {

namespace detail {
/**
 * Process-wide engine-shared workspace-cap registry (reliability.cc):
 * the tightest active cap wins, and the pre-existing policy is
 * restored when the last engine removes its cap.
 */
void installWorkspaceCap(std::size_t cap);
void removeWorkspaceCap(std::size_t cap);

/**
 * RAII lease on the cap registry. The core holds one as a data member
 * declared BEFORE its watchdog thread member: if anything later in
 * construction throws (std::thread can raise std::system_error), the
 * already-constructed lease member is destroyed and the cap comes back
 * out of the registry - the destructor never runs for a partially
 * constructed object, so a plain install-in-ctor / remove-in-dtor pair
 * would leak the process-wide cap on exactly that path. A zero cap is
 * a no-op lease.
 */
class WorkspaceCapLease
{
  public:
    WorkspaceCapLease() = default;
    explicit WorkspaceCapLease(std::size_t cap) : cap_(cap)
    {
        if (cap_ != 0)
            installWorkspaceCap(cap_);
    }
    WorkspaceCapLease(WorkspaceCapLease &&o) noexcept : cap_(o.cap_)
    {
        o.cap_ = 0;
    }
    WorkspaceCapLease &operator=(WorkspaceCapLease &&o) noexcept
    {
        if (this != &o) {
            release();
            cap_ = o.cap_;
            o.cap_ = 0;
        }
        return *this;
    }
    WorkspaceCapLease(const WorkspaceCapLease &) = delete;
    WorkspaceCapLease &operator=(const WorkspaceCapLease &) = delete;
    ~WorkspaceCapLease() { release(); }

  private:
    void release()
    {
        if (cap_ != 0) {
            removeWorkspaceCap(cap_);
            cap_ = 0;
        }
    }
    std::size_t cap_ = 0;
};
} // namespace detail

/**
 * Absolute per-request deadline on the steady clock (the batcher's
 * RequestBatcher::Clock). kNoDeadline (the default everywhere)
 * disables deadline handling for that request entirely.
 */
using Deadline = std::chrono::steady_clock::time_point;

/** "No deadline": requests carrying this value never expire. */
inline constexpr Deadline kNoDeadline = Deadline::max();

/**
 * Deadline @p d from now (submit(tokens, deadlineAfter(50ms))).
 *
 * Saturating: `now + d` is evaluated in a wide floating representation
 * of the clock's period, so a huge duration (hours(1 << 20),
 * microseconds::max(), duration::max() of any unit) can never overflow
 * the steady_clock rep into a long-PAST deadline that expires every
 * request instantly. Anything that would land at or beyond
 * kNoDeadline saturates TO kNoDeadline - "further out than the clock
 * can represent" and "no deadline" are operationally identical.
 * Negative durations symmetrically saturate to the clock's minimum
 * (an already-expired deadline, as expected).
 */
template <class Rep, class Period>
inline Deadline
deadlineAfter(std::chrono::duration<Rep, Period> d)
{
    using ClockDur = Deadline::duration;
    using Wide = std::chrono::duration<long double, ClockDur::period>;
    const Deadline now = Deadline::clock::now();
    // All three values in units of the clock period, as long double
    // (80/128-bit: exact for any rep the comparison needs to rank).
    const long double now_ticks =
        static_cast<long double>(now.time_since_epoch().count());
    const long double want_ticks =
        std::chrono::duration_cast<Wide>(d).count();
    const long double max_ticks = static_cast<long double>(
        kNoDeadline.time_since_epoch().count());
    const long double min_ticks = static_cast<long double>(
        Deadline::min().time_since_epoch().count());
    if (want_ticks >= max_ticks - now_ticks)
        return kNoDeadline;
    if (want_ticks <= min_ticks - now_ticks)
        return Deadline::min();
    return now + std::chrono::duration_cast<ClockDur>(d);
}

/** What bounded admission does when the queue caps are hit. */
enum class ShedPolicy {
    /** Reject the NEW request with Error{QueueFull}. Queued requests
     *  are never touched - strict FIFO fairness. */
    RejectNew,
    /** First shed queued requests whose deadline has already expired
     *  (they are failed with Error{DeadlineExceeded} - they could
     *  never be served in time anyway), then admit if that made room,
     *  else reject with Error{QueueFull}. Under overload this spends
     *  the queue on requests that can still meet their deadline. */
    DropExpiredFirst,
};

/** Robustness knobs shared by ServingConfig and GenerationConfig. */
struct ReliabilityConfig
{
    /**
     * Retention cap installed on the runtime's per-thread kernel
     * scratch while the engine lives (0 = leave the policy as-is).
     * Long-lived serving threads would otherwise retain peak-size
     * scratch forever (runtime/workspace.h).
     */
    std::size_t workspace_cap_bytes = 4u << 20;

    // ------------------------------------------- bounded admission
    /**
     * Maximum queued (admitted, not yet claimed by a batch or a
     * prefill) requests submit() will accept; 0 = unbounded. Over the
     * cap the shed policy runs, then Error{QueueFull} is thrown.
     * ServingEngine::serveAll() is exempt: it is synchronous and waits
     * for its own set, so the caller IS the backpressure.
     */
    std::size_t max_queue_requests = 0;
    /**
     * Cap on the total queued request (prompt) tokens: admitting a
     * request that would push the queued token sum over this cap
     * triggers the shed policy / QueueFull. 0 = unbounded. Must be at
     * least max_seq, or some valid requests could never be admitted
     * (the engine constructor rejects such a config).
     */
    std::size_t max_queue_tokens = 0;
    /** What to do when a cap is hit. */
    ShedPolicy shed_policy = ShedPolicy::RejectNew;

    // ------------------------------------------------- reliability
    /**
     * Watchdog: a model invocation (one ServingEngine batch, or one
     * GenerationEngine prefill or decode step) still running after
     * this long is cancelled (cooperatively, between parallelFor grain
     * chunks / encoder blocks) and its requests failed with
     * Error{ModelFault} instead of hanging every affected future. 0
     * disables the watchdog (no extra thread is started). The timeout
     * must comfortably exceed the worst honest invocation latency.
     */
    std::chrono::microseconds watchdog_timeout{0};
    /**
     * Deterministic fault-injection schedule (tests only; see
     * serve/fault.h). Non-owning - must outlive the engine. Null in
     * production: every hook is then a branch on a null pointer.
     */
    const FaultPlan *fault_plan = nullptr;
};

/** Counters and execution identity shared by ServingStats and
 *  GenerationStats. Once drained, completed + failed == requests. */
struct ReliabilityStats
{
    // -------------------------------------------- runtime identity
    /** Kernel variant the runtime dispatcher selected at startup
     *  (runtime::isa()): "scalar", "avx2", "avx512", "avx512vnni". */
    std::string isa;
    /** CPU brand + feature signature (runtime::cpuSignature()). */
    std::string cpu_signature;

    std::size_t requests = 0;  ///< admitted (submit(), serveAll())
    std::size_t completed = 0; ///< futures fulfilled with a result
    std::size_t failed = 0;    ///< futures failed with an error

    // ------------------------------------ backpressure / reliability
    /** submit() attempts rejected with Error{QueueFull} (these never
     *  count in `requests`). */
    std::size_t rejected = 0;
    /** Queued requests evicted by ShedPolicy::DropExpiredFirst to
     *  make room (failed with DeadlineExceeded; subset of `failed`,
     *  disjoint from expired_in_queue). */
    std::size_t shed = 0;
    /** Requests failed with DeadlineExceeded BEFORE any model time
     *  was spent on them: already expired at submit, or expired by
     *  the time the scheduler claimed them. */
    std::size_t expired_in_queue = 0;
    /** Requests failed with Error{ModelFault} (poisoned requests,
     *  watchdog-cancelled invocations). */
    std::size_t model_faults = 0;
    /** Batched invocations whose failure took the bounded isolation
     *  pass (each member re-run alone exactly once). */
    std::size_t isolation_retries = 0;
    /** Stuck model invocations the watchdog cancelled. */
    std::size_t watchdog_fired = 0;
};

/**
 * One engine's reliability mechanism and request lifecycle.
 * Construction validates the shared knobs, takes the workspace-cap
 * lease and starts the watchdog thread (when enabled); destruction
 * stops the watchdog and releases the cap. Engines declare the core
 * before their own threads, so it outlives every invocation they run.
 *
 * The lifecycle state below is public and guarded by mu, which is the
 * engine's one lock: the engine keeps its queue and its stats under it
 * too. An engine's destructor runs shutdown(), then halt(), then joins
 * its scheduler thread.
 */
class ReliabilityCore
{
  public:
    using Clock = Deadline::clock;

    /** @p engine names the thrower in the invalid_argument raised for
     *  a max_queue_tokens below @p max_seq. */
    ReliabilityCore(const ReliabilityConfig &cfg, std::size_t max_seq,
                    const char *engine);
    ~ReliabilityCore();

    ReliabilityCore(const ReliabilityCore &) = delete;
    ReliabilityCore &operator=(const ReliabilityCore &) = delete;

    // --------------------------------------------- request lifecycle
    mutable std::mutex mu;            ///< the engine lock
    std::condition_variable work_cv;  ///< wakes the scheduler thread
    std::condition_variable idle_cv;  ///< wakes flush()/shutdown() waiters
    std::set<std::uint64_t> outstanding; ///< admitted, not yet resolved
    std::uint64_t next_id = 0;        ///< id of the next admitted request
    /** Admission attempts, refusals included: the FaultPlan's
     *  admission index (serve/fault.h). */
    std::uint64_t admissions = 0;
    std::size_t queued_tokens = 0; ///< tokens admitted, not yet claimed
    bool stop = false;             ///< halt(): the scheduler exits
    bool draining = false;         ///< shutdown(): no new admissions
    /** The highest watermark a flush() (or serveAll()) waited for.
     *  Every id below it is resolved once its waiters return, so the
     *  ServingEngine dispatcher drains the buckets that still hold one
     *  and needs no reset. */
    std::uint64_t flush_watermark = 0;

    /** The admission prelude (mu held): Error{ShuttingDown} ("engine
     *  is shutting down; <what> not admitted") once shutdown began,
     *  else the next admission index. */
    std::uint64_t openAdmission(const char *what)
    {
        requireOpen(what);
        return admissions++;
    }
    /** The ShuttingDown check of openAdmission() alone (mu held). */
    void requireOpen(const char *what) const;

    /** Record an admitted request of @p tokens queued tokens (mu held):
     *  returns its id, now outstanding. */
    std::uint64_t enlist(std::size_t tokens)
    {
        outstanding.insert(next_id);
        queued_tokens += tokens;
        return next_id++;
    }

    /** Block until every request admitted before this call resolved. */
    void flush()
    {
        std::unique_lock<std::mutex> lk(mu);
        awaitLocked(lk, next_id);
    }
    /** flush() over the ids below @p watermark, with mu held by @p lk:
     *  raises flush_watermark and wakes the scheduler, then waits
     *  (returns early only at halt()). */
    void awaitLocked(std::unique_lock<std::mutex> &lk,
                     std::uint64_t watermark);

    /**
     * Graceful drain: stop admitting and wait until every outstanding
     * request resolved. If @p deadline passes first, abandon() the
     * in-flight invocation, run @p fail_queued (mu held) to fail what
     * is still queued, wake the scheduler to evict what it holds, and
     * wait for the rest to unwind.
     */
    void shutdown(Deadline deadline,
                  const std::function<void()> &fail_queued);

    /** The destructor's stop: the scheduler exits once its queue is
     *  empty, and every waiter is released. */
    void halt();

    // ------------------------------------------------------ admission
    /**
     * The admission sequence for the request with admission index
     * @p index, run under mu after the engine validated the request:
     * an injected admission fault, then an already-expired @p
     * deadline, then - when @p capped - the queue caps over
     * @p queued() requests and queued_tokens. Over a cap under
     * DropExpiredFirst, @p shed(now) first evicts the expired queued
     * requests. Each refusal throws its typed Error, counted into
     * @p stats. Returns the admission time.
     */
    template <class Queued, class Shed>
    Clock::time_point admit(std::uint64_t index, Deadline deadline,
                            std::size_t tokens, bool capped,
                            ReliabilityStats &stats, Queued &&queued,
                            Shed &&shed) const
    {
        const FaultPlan *plan = cfg_.fault_plan;
        if (plan &&
            plan->requestFault(index, FaultPlan::Stage::Admission))
            throw Error(ErrorCode::InvalidRequest,
                        "injected admission fault (request #" +
                            std::to_string(index) + ")");
        const Clock::time_point now = Clock::now();
        if (deadline != kNoDeadline && deadline <= now) {
            ++stats.expired_in_queue;
            throw Error(ErrorCode::DeadlineExceeded,
                        "deadline already expired at submit");
        }
        if (!capped)
            return now;
        if (overCaps(queued(), tokens) &&
            cfg_.shed_policy == ShedPolicy::DropExpiredFirst)
            shed(now);
        if (overCaps(queued(), tokens)) {
            ++stats.rejected;
            throwQueueFull(queued());
        }
        return now;
    }

    // ------------------------------------------------ fault injection
    /** The FaultPlan delay of batched invocation @p index, slept here
     *  (before the watchdog arms). */
    void delay(std::size_t index) const;
    /** True when the FaultPlan stalls batched invocation @p index. */
    bool stalls(std::size_t index) const;
    /** The injected ModelFault message for the request with admission
     *  index @p index, or "" when the plan does not poison it. Model
     *  faults are sticky: an isolation retry asks again and fails. */
    std::string injectedFault(std::uint64_t index) const;

    // ---------------------------------------------- guarded invocation
    /**
     * One guarded model invocation: registers a cancel token with the
     * watchdog and installs it on this thread, cancels at once when
     * the shutdown deadline already passed, then runs the injected
     * stall (spins until cancelled), the injected @p fault (throws
     * ModelFault unless empty), and finally @p invoke(). Throws
     * runtime::Cancelled when the watchdog or a shutdown deadline
     * fires mid-invocation.
     */
    template <class F>
    auto guard(F &&invoke, bool stall, const std::string &fault)
        -> decltype(invoke())
    {
        runtime::CancelToken cancel;
        WatchdogArm arm(*this, cancel);
        runtime::CancelScope scope(cancel);
        if (abandoned())
            cancel.cancel();
        if (stall)
            stallUntilCancelled(cancel);
        if (!fault.empty())
            throw Error(ErrorCode::ModelFault, fault);
        return invoke();
    }

    /** The typed Error a failed invocation maps to: Cancelled becomes
     *  cancelCause(), an Error passes through, and anything else
     *  becomes ModelFault keeping its message. */
    Error failure(std::exception_ptr ep) const;
    /** The Error a cancelled invocation maps to: ShuttingDown once the
     *  shutdown deadline passed (abandon()), else watchdog ModelFault. */
    Error cancelCause() const;

    bool abandoned() const
    {
        return abandon_.load(std::memory_order_acquire);
    }

    /** Stamp the execution identity and the watchdog count into a
     *  stats snapshot. */
    void stamp(ReliabilityStats &out) const;

  private:
    /** Registers the in-flight invocation's cancel token and start
     *  time with the watchdog for the invocation's duration (RAII). */
    struct WatchdogArm
    {
        ReliabilityCore &core;
        WatchdogArm(ReliabilityCore &c, runtime::CancelToken &tok)
            : core(c)
        {
            core.arm(&tok);
        }
        ~WatchdogArm() { core.arm(nullptr); }
        WatchdogArm(const WatchdogArm &) = delete;
        WatchdogArm &operator=(const WatchdogArm &) = delete;
    };

    /** The shutdown deadline passed: set the abandon flag, then cancel
     *  the in-flight invocation (mu held, before the queue fails). */
    void abandon();
    void arm(runtime::CancelToken *token);
    void watchdogLoop();
    [[noreturn]] void
    stallUntilCancelled(const runtime::CancelToken &cancel) const;
    bool overCaps(std::size_t queued, std::size_t tokens) const;
    [[noreturn]] void throwQueueFull(std::size_t queued) const;

    const ReliabilityConfig cfg_;
    detail::WorkspaceCapLease lease_;

    /** Set once a shutdown deadline passed: a Cancelled invocation is
     *  then attributed to ShuttingDown, not the watchdog. */
    std::atomic<bool> abandon_{false};
    /** Counted before the cancel it causes (publication order). */
    std::atomic<std::size_t> watchdog_fired_{0};

    // Watchdog state, guarded by wd_mu_ (innermost lock).
    std::mutex wd_mu_;
    std::condition_variable wd_cv_;
    runtime::CancelToken *wd_token_ = nullptr; ///< in-flight invocation
    Clock::time_point wd_started_{};
    bool wd_fired_ = false; ///< fired for the current invocation
    bool wd_stop_ = false;

    std::thread watchdog_; ///< last member: starts fully-initialised
};

} // namespace serve
} // namespace fabnet

#endif // FABNET_SERVE_RELIABILITY_H
