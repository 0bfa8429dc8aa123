/**
 * @file fault.h
 * Deterministic fault injection for the serving engines.
 *
 * Every failure path the reliability layer promises to handle -
 * admission rejection, a poisoned row failing inside a model
 * invocation, a slow batch outrunning request deadlines, a stuck
 * invocation the watchdog must cancel - is reachable on demand through
 * a FaultPlan, so the chaos suite (`ctest -L fault`,
 * tests/fault_injection_test.cpp) exercises them reproducibly instead
 * of relying on timing luck. A plan is keyed on two deterministic
 * sequences the engine maintains:
 *
 *  - the ADMISSION index: requests are numbered 0, 1, 2, ... in the
 *    order their enqueue attempt reaches the engine (submit() calls
 *    and serveAll() elements alike, counted whether or not the attempt
 *    is ultimately admitted);
 *  - the DISPATCH (invocation) index: batched model invocations are
 *    numbered 0, 1, 2, ... in dispatch order. For ServingEngine these
 *    are the groups its dispatcher claims, in claim order, whether
 *    their requests came from submit() or serveAll(); for
 *    GenerationEngine, prefill batches and decode steps share it.
 *    Per-request isolation retries take none.
 *
 * Both are single-threaded-deterministic: a test that submits from one
 * thread with flush-on-full/drain batching (long max_wait) sees the
 * exact grouping serving_test.cpp already pins down, so "request #3"
 * and "batch #1" name the same victims on every run.
 *
 * The plan is installed via ServingConfig::fault_plan or
 * GenerationConfig::fault_plan (the ReliabilityConfig field of
 * serve/reliability.h; a non-owning pointer - the plan must outlive
 * the engine and is read-only while serving). Production configs
 * leave it null - every hook below is a branch on a null pointer in
 * that case.
 */
#ifndef FABNET_SERVE_FAULT_H
#define FABNET_SERVE_FAULT_H

#include <chrono>
#include <cstdint>
#include <map>
#include <set>

namespace fabnet {
namespace serve {

/** Deterministic fault/delay schedule for one serving engine. */
struct FaultPlan
{
    /** Where an injected per-request fault fires. */
    enum class Stage {
        /** The enqueue attempt throws Error{InvalidRequest} - models a
         *  request the validation layer rejects. Nothing is queued. */
        Admission,
        /** The request's model batch throws Error{ModelFault} inside
         *  the guarded invocation - models a poisoned row. The fault
         *  is STICKY: the per-row isolation retry of that request
         *  fails too, while its batchmates are re-served cleanly. */
        Model,
    };

    /** admission index -> stage at which that request fails. */
    std::map<std::uint64_t, Stage> request_faults;

    /** dispatch index -> extra latency injected into that batch's
     *  model invocation (after claiming, before the forward) - the
     *  deterministic way to make a batch outrun member deadlines. */
    std::map<std::size_t, std::chrono::microseconds> batch_delays;

    /** Dispatch indices whose model invocation STALLS: the injected
     *  body loops until the engine's cancellation token fires (the
     *  watchdog path) instead of computing - the deterministic "stuck
     *  model" the dispatcher watchdog must detect and fail. A safety
     *  bound (~10 s) unsticks the loop even with no watchdog armed so
     *  a misconfigured test cannot hang forever. */
    std::set<std::size_t> batch_stalls;

    bool requestFault(std::uint64_t admission_index, Stage stage) const
    {
        auto it = request_faults.find(admission_index);
        return it != request_faults.end() && it->second == stage;
    }

    /** Injected delay for a batch (zero when none scheduled). */
    std::chrono::microseconds batchDelay(std::size_t dispatch_index) const
    {
        auto it = batch_delays.find(dispatch_index);
        return it == batch_delays.end() ? std::chrono::microseconds{0}
                                        : it->second;
    }

    bool batchStalls(std::size_t dispatch_index) const
    {
        return batch_stalls.count(dispatch_index) != 0;
    }
};

} // namespace serve
} // namespace fabnet

#endif // FABNET_SERVE_FAULT_H
