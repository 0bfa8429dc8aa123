#include "serve/reliability.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>

#include "runtime/isa.h"
#include "runtime/workspace.h"

namespace fabnet {
namespace serve {

namespace {

/**
 * Process-wide registry of engine-installed workspace caps. With
 * overlapping engine lifetimes the tightest active cap wins (safe for
 * all of them - a tighter cap only trades reallocation for footprint),
 * and the pre-existing policy is restored only when the last engine
 * goes away.
 */
class WorkspaceCapRegistry
{
  public:
    void install(std::size_t cap)
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (caps_.empty())
            baseline_ = runtime::workspaceCapBytes();
        caps_.insert(cap);
        runtime::setWorkspaceCapBytes(*caps_.begin());
    }
    void remove(std::size_t cap)
    {
        std::lock_guard<std::mutex> lk(mu_);
        caps_.erase(caps_.find(cap));
        runtime::setWorkspaceCapBytes(caps_.empty() ? baseline_
                                                    : *caps_.begin());
    }

  private:
    std::mutex mu_;
    std::multiset<std::size_t> caps_;
    std::size_t baseline_ = 0;
};

WorkspaceCapRegistry g_cap_registry;

} // namespace

namespace detail {

void
installWorkspaceCap(std::size_t cap)
{
    g_cap_registry.install(cap);
}

void
removeWorkspaceCap(std::size_t cap)
{
    g_cap_registry.remove(cap);
}

} // namespace detail

ReliabilityCore::ReliabilityCore(const ReliabilityConfig &cfg,
                                 std::size_t max_seq, const char *engine)
    : cfg_(cfg)
{
    if (cfg_.max_queue_tokens != 0 && cfg_.max_queue_tokens < max_seq)
        throw std::invalid_argument(
            std::string(engine) +
            ": max_queue_tokens below max_seq would make some valid "
            "requests permanently inadmissible");
    // RAII member lease: survives a throwing std::thread constructor
    // below (this destructor would not run, the member's would).
    lease_ = detail::WorkspaceCapLease(cfg_.workspace_cap_bytes);
    if (cfg_.watchdog_timeout.count() > 0)
        watchdog_ = std::thread([this] { watchdogLoop(); });
}

ReliabilityCore::~ReliabilityCore()
{
    if (watchdog_.joinable()) {
        {
            std::lock_guard<std::mutex> wl(wd_mu_);
            wd_stop_ = true;
            wd_cv_.notify_all();
        }
        watchdog_.join();
    }
    // lease_ releases the workspace cap via member destruction.
}

void
ReliabilityCore::requireOpen(const char *what) const
{
    if (stop || draining)
        throw Error(ErrorCode::ShuttingDown,
                    std::string("engine is shutting down; ") + what +
                        " not admitted");
}

void
ReliabilityCore::awaitLocked(std::unique_lock<std::mutex> &lk,
                             std::uint64_t watermark)
{
    // Only the ids below the watermark: concurrent submitters cannot
    // starve a flusher. A shutdown() racing the wait resolves every
    // outstanding future (served, or failed at a shutdown deadline),
    // so the wait always ends with its whole watermark resolved.
    const auto resolved = [this, watermark] {
        return outstanding.empty() || *outstanding.begin() >= watermark;
    };
    if (resolved())
        return;
    flush_watermark = std::max(flush_watermark, watermark);
    work_cv.notify_all();
    idle_cv.wait(lk, [&] { return resolved() || stop; });
}

void
ReliabilityCore::shutdown(Deadline deadline,
                          const std::function<void()> &fail_queued)
{
    std::unique_lock<std::mutex> lk(mu);
    draining = true;
    work_cv.notify_all(); // the scheduler switches to drain mode
    const auto all_resolved = [this] { return outstanding.empty(); };
    if (deadline == kNoDeadline) {
        // Full drain. (Not wait_until: time_point::max() overflows
        // some libstdc++ wait implementations.)
        idle_cv.wait(lk, all_resolved);
        return;
    }
    if (idle_cv.wait_until(lk, deadline, all_resolved))
        return;
    // Deadline passed: cooperatively cancel the in-flight invocation
    // (its requests fail with ShuttingDown), fail everything still
    // queued, let the scheduler evict what it still holds, and wait
    // for the rest to unwind.
    abandon();
    fail_queued();
    work_cv.notify_all();
    idle_cv.wait(lk, all_resolved);
}

void
ReliabilityCore::halt()
{
    std::lock_guard<std::mutex> lk(mu);
    stop = true;
    work_cv.notify_all();
    idle_cv.notify_all();
}

bool
ReliabilityCore::overCaps(std::size_t queued, std::size_t tokens) const
{
    return (cfg_.max_queue_requests != 0 &&
            queued >= cfg_.max_queue_requests) ||
           (cfg_.max_queue_tokens != 0 &&
            queued_tokens + tokens > cfg_.max_queue_tokens);
}

void
ReliabilityCore::throwQueueFull(std::size_t queued) const
{
    throw Error(ErrorCode::QueueFull,
                "admission queue full (" + std::to_string(queued) +
                    " requests / " + std::to_string(queued_tokens) +
                    " tokens queued)");
}

void
ReliabilityCore::delay(std::size_t index) const
{
    if (!cfg_.fault_plan)
        return;
    const std::chrono::microseconds d = cfg_.fault_plan->batchDelay(index);
    if (d.count() > 0)
        std::this_thread::sleep_for(d);
}

bool
ReliabilityCore::stalls(std::size_t index) const
{
    return cfg_.fault_plan && cfg_.fault_plan->batchStalls(index);
}

std::string
ReliabilityCore::injectedFault(std::uint64_t index) const
{
    if (!cfg_.fault_plan ||
        !cfg_.fault_plan->requestFault(index, FaultPlan::Stage::Model))
        return {};
    return "injected model fault (request #" + std::to_string(index) +
           ")";
}

void
ReliabilityCore::stallUntilCancelled(
    const runtime::CancelToken &cancel) const
{
    // Spin until the watchdog (or a shutdown deadline) cancels us; the
    // safety bound turns a missing watchdog into a loud ModelFault
    // instead of a hung test.
    const auto start = Clock::now();
    for (;;) {
        if (cancel.cancelled())
            throw runtime::Cancelled{};
        if (Clock::now() - start > std::chrono::seconds(10))
            throw Error(ErrorCode::ModelFault,
                        "injected stall hit its 10s safety bound "
                        "(no watchdog cancelled it)");
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

Error
ReliabilityCore::failure(std::exception_ptr ep) const
{
    try {
        std::rethrow_exception(ep);
    } catch (const runtime::Cancelled &) {
        return cancelCause();
    } catch (const Error &e) {
        return e;
    } catch (const std::exception &e) {
        return Error(ErrorCode::ModelFault, e.what());
    } catch (...) {
        return Error(ErrorCode::ModelFault, "unknown model exception");
    }
}

Error
ReliabilityCore::cancelCause() const
{
    return abandoned()
               ? Error(ErrorCode::ShuttingDown,
                       "invocation cancelled at the shutdown deadline")
               : Error(ErrorCode::ModelFault,
                       "watchdog cancelled a stuck model invocation");
}

void
ReliabilityCore::abandon()
{
    // The flag first, so the cancel below - and an invocation that
    // arms after this point - attributes to shutdown.
    abandon_.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> wl(wd_mu_);
    if (wd_token_)
        wd_token_->cancel();
}

void
ReliabilityCore::stamp(ReliabilityStats &out) const
{
    out.isa = runtime::isa();
    out.cpu_signature = runtime::cpuSignature();
    out.watchdog_fired = watchdog_fired_.load();
}

void
ReliabilityCore::arm(runtime::CancelToken *token)
{
    std::lock_guard<std::mutex> wl(wd_mu_);
    wd_token_ = token;
    wd_started_ = Clock::now();
    wd_fired_ = false;
    wd_cv_.notify_all();
}

void
ReliabilityCore::watchdogLoop()
{
    std::unique_lock<std::mutex> wl(wd_mu_);
    while (!wd_stop_) {
        if (!wd_token_ || wd_fired_) {
            wd_cv_.wait(wl);
            continue;
        }
        const auto fire_at = wd_started_ + cfg_.watchdog_timeout;
        if (Clock::now() >= fire_at) {
            // Counted before the cancel: the invoking thread fails its
            // futures only after it observes the cancel. The token
            // lives on the invoking thread's stack, but disarming takes
            // wd_mu_, so it cannot die while we hold the lock.
            watchdog_fired_.fetch_add(1);
            wd_token_->cancel();
            wd_fired_ = true;
            continue;
        }
        wd_cv_.wait_until(wl, fire_at);
    }
}

} // namespace serve
} // namespace fabnet
