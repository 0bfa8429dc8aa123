/**
 * @file trace.h
 * Span tracing from outside the library: timing wrappers around each
 * sublayer of a model assembled through the public constructors.
 *
 * SequenceClassifier, CausalGenerator, MultiHeadAttention and
 * FeedForward all take their sublayers as nn::Layer, so a traced model
 * is the same model with a TracedLayer around every projection, FFN
 * linear and FFN, and a TracedAttention as every mixer. Two traps:
 *  - CausalGenerator accepts only MultiHeadAttention mixers (it
 *    dynamic_casts), so the mixer wrapper subclasses it;
 *  - quantizeLinears swaps each linear for its quantizedReplacement,
 *    so a wrapped linear returns a wrapped replacement - otherwise the
 *    traced model would silently stay fp32.
 * Spans are kept in memory while recording is on and summarised after
 * the run (stats.h holds the arithmetic).
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "model/classifier.h"
#include "model/config.h"
#include "model/generator.h"
#include "nn/attention.h"
#include "nn/basic_layers.h"
#include "nn/block.h"
#include "nn/dense.h"
#include "stats.h"

namespace perfbench {

inline Ns
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

enum class LayerRole { Mixer, Projection, Ffn, FfnLinear };
/** Which entry point opened an invocation's first span. */
enum class Entry { Batch, Prefill, Step };

struct PathInfo
{
    std::string name; ///< e.g. "block1.attn.q", "block0.ffn.lin2"
    LayerRole role = LayerRole::Mixer;
    /** Stated op count per row of a linear: 2 * in * out for a dense
     *  one, 2 * n * log2(n) per core for a butterfly one. */
    double ops_per_row = 0;
};

struct InvocationInfo
{
    Entry entry = Entry::Batch;
    std::int32_t seqs = 0; ///< requests / live sequences served
    std::int32_t rows = 0; ///< valid activation rows
};

class Tracer
{
  public:
    Tracer() { spans_.reserve(1u << 16); }
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    std::int32_t addPath(std::string name, LayerRole role)
    {
        paths_.push_back({std::move(name), role, 0});
        return static_cast<std::int32_t>(paths_.size() - 1);
    }

    /** Record the stated op count of the linear @p path now wraps
     *  (the int8 forms count like the fp32 ones). */
    void describeLinear(std::int32_t path, const fabnet::nn::Layer &layer)
    {
        using namespace fabnet::nn;
        auto dense = [](std::size_t in, std::size_t out) {
            return 2.0 * static_cast<double>(in * out);
        };
        auto butterfly = [](std::size_t n, std::size_t cores) {
            return 2.0 * static_cast<double>(cores * n) *
                   std::log2(static_cast<double>(n));
        };
        double &ops = paths_.at(static_cast<std::size_t>(path)).ops_per_row;
        if (auto *d = dynamic_cast<const Dense *>(&layer))
            ops = dense(d->inFeatures(), d->outFeatures());
        else if (auto *qd = dynamic_cast<const QuantizedDense *>(&layer))
            ops = dense(qd->inFeatures(), qd->outFeatures());
        else if (auto *b = dynamic_cast<const ButterflyDense *>(&layer))
            ops = butterfly(b->op().coreSize(), b->op().numCores());
        else if (auto *qb =
                     dynamic_cast<const QuantizedButterflyDense *>(&layer))
            ops = butterfly(qb->op().coreSize(), qb->op().numCores());
    }

    /** Start recording: drop earlier spans and invocations. */
    void start()
    {
        std::lock_guard<std::mutex> lk(mu_);
        spans_.clear();
        invocations_.clear();
        stack_.clear();
        on_ = true;
    }
    void stop() { on_ = false; }

    /** Open a span; -1 when not recording. @p begins_invocation marks
     *  the first sublayer of a forward pass (block 0's mixer). */
    std::int32_t open(std::int32_t path, std::size_t rows, std::size_t seqs,
                      double pairs, bool begins_invocation, Entry entry)
    {
        if (!on_)
            return -1;
        std::lock_guard<std::mutex> lk(mu_);
        if (begins_invocation && stack_.empty())
            invocations_.push_back({entry, static_cast<std::int32_t>(seqs),
                                    static_cast<std::int32_t>(rows)});
        Span s;
        s.path = path;
        s.parent = stack_.empty() ? -1 : stack_.back();
        s.invocation = static_cast<std::int32_t>(invocations_.size()) - 1;
        s.rows = static_cast<std::int32_t>(rows);
        s.seqs = static_cast<std::int32_t>(seqs);
        s.pairs = pairs;
        s.start = nowNs();
        spans_.push_back(s);
        stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
        return stack_.back();
    }

    void close(std::int32_t idx)
    {
        if (idx < 0)
            return;
        const Ns t = nowNs();
        std::lock_guard<std::mutex> lk(mu_);
        spans_[static_cast<std::size_t>(idx)].end = t;
        if (!stack_.empty() && stack_.back() == idx)
            stack_.pop_back();
    }

    /** Closes its span on scope exit, exceptions included. */
    class Scope
    {
      public:
        Scope(Tracer &t, std::int32_t idx) : t_(t), idx_(idx) {}
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        ~Scope() { t_.close(idx_); }

      private:
        Tracer &t_;
        std::int32_t idx_;
    };

    /** Read only after stop() and once the engine has drained. */
    const std::vector<Span> &spans() const { return spans_; }
    const std::vector<InvocationInfo> &invocations() const
    {
        return invocations_;
    }
    const std::vector<PathInfo> &paths() const { return paths_; }

  private:
    std::atomic<bool> on_{false};
    std::mutex mu_;
    std::vector<Span> spans_;
    std::vector<std::int32_t> stack_;
    std::vector<InvocationInfo> invocations_;
    std::vector<PathInfo> paths_;
};

/** Timing wrapper around one sublayer (projection, FFN, FFN linear). */
class TracedLayer final : public fabnet::nn::Layer
{
  public:
    TracedLayer(Tracer &tracer, std::int32_t path,
                std::unique_ptr<fabnet::nn::Layer> inner)
        : tr_(tracer), path_(path), inner_(std::move(inner))
    {
        tr_.describeLinear(path_, *inner_);
    }

    fabnet::Tensor forward(const fabnet::Tensor &x) override
    {
        Tracer::Scope s(tr_, open(x.dim(0) * x.dim(1), x.dim(0)));
        return inner_->forward(x);
    }
    // Blocks, prefill and decode steps reach a wrapped projection or
    // FFN through forwardRows; serial inference through forward.
    fabnet::Tensor forwardRows(const fabnet::Tensor &x,
                               const fabnet::nn::RowSet &rows) override
    {
        Tracer::Scope s(tr_, open(rows.totalRows(), rows.batch()));
        return inner_->forwardRows(x, rows);
    }
    bool supportsMasking() const override
    {
        return inner_->supportsMasking();
    }
    fabnet::Tensor backward(const fabnet::Tensor &g) override
    {
        return inner_->backward(g);
    }
    std::unique_ptr<fabnet::nn::Layer>
    quantizedReplacement(fabnet::QuantKind kind) const override
    {
        auto q = inner_->quantizedReplacement(kind);
        if (!q)
            return nullptr;
        return std::make_unique<TracedLayer>(tr_, path_, std::move(q));
    }
    std::size_t quantizeLinears(fabnet::QuantKind kind) override
    {
        return inner_->quantizeLinears(kind);
    }

  private:
    std::int32_t open(std::size_t rows, std::size_t seqs)
    {
        return tr_.open(path_, rows, seqs, 0, false, Entry::Batch);
    }

    Tracer &tr_;
    std::int32_t path_;
    std::unique_ptr<fabnet::nn::Layer> inner_;
};

/** Timing wrapper around a mixer; a MultiHeadAttention itself so that
 *  CausalGenerator accepts it. Block 0's mixer opens each invocation. */
class TracedAttention final : public fabnet::nn::MultiHeadAttention
{
  public:
    TracedAttention(Tracer &tracer, std::int32_t path, bool first_block,
                    std::size_t d_model, std::size_t heads,
                    std::unique_ptr<fabnet::nn::Layer> q,
                    std::unique_ptr<fabnet::nn::Layer> k,
                    std::unique_ptr<fabnet::nn::Layer> v,
                    std::unique_ptr<fabnet::nn::Layer> o, bool causal)
        : MultiHeadAttention(d_model, heads, std::move(q), std::move(k),
                             std::move(v), std::move(o), causal),
          tr_(tracer), path_(path), first_(first_block)
    {
    }

    fabnet::Tensor forward(const fabnet::Tensor &x) override
    {
        const std::vector<std::size_t> lens(x.dim(0), x.dim(1));
        Tracer::Scope s(tr_, open(lens, Entry::Batch));
        return MultiHeadAttention::forward(x);
    }
    fabnet::Tensor forwardRows(const fabnet::Tensor &x,
                               const fabnet::nn::RowSet &rows) override
    {
        Tracer::Scope s(tr_, open(rows.lens(), Entry::Batch));
        return MultiHeadAttention::forwardRows(x, rows);
    }
    fabnet::Tensor forwardPrefill(const fabnet::Tensor &x,
                                  const fabnet::nn::RowSet &rows,
                                  fabnet::nn::StepState &step) override
    {
        Tracer::Scope s(tr_, open(rows.lens(), Entry::Prefill));
        return MultiHeadAttention::forwardPrefill(x, rows, step);
    }
    fabnet::Tensor forwardStep(const fabnet::Tensor &x,
                               fabnet::nn::StepState &step) override
    {
        // Each step row attends over its cached prefix plus itself.
        double pairs = 0;
        for (std::size_t p : step.positions)
            pairs += static_cast<double>(p + 1);
        Tracer::Scope s(tr_, tr_.open(path_, x.dim(0), x.dim(0), pairs,
                                      first_, Entry::Step));
        return MultiHeadAttention::forwardStep(x, step);
    }

  private:
    /** Opens a span over sequences of @p lens; pairs counts the
     *  (query, key) pairs exact attention visits. */
    std::int32_t open(const std::vector<std::size_t> &lens, Entry entry)
    {
        double pairs = 0;
        std::size_t rows = 0;
        for (std::size_t t : lens) {
            const double td = static_cast<double>(t);
            pairs += causal() ? td * (td + 1) / 2 : td * td;
            rows += t;
        }
        return tr_.open(path_, rows, lens.size(), pairs, first_, entry);
    }

    Tracer &tr_;
    std::int32_t path_;
    bool first_;
};

/**
 * The traced twins of buildModel / buildGenerator for all-attention
 * configs. Each expression mirrors model/builder.cc and
 * model/generator.cc argument for argument: the order in which the
 * compiler evaluates the four projection arguments decides which one
 * draws from the RNG first, so the shapes must match; the benchmark
 * then checks the outputs bitwise rather than assume they do.
 */
namespace detail {

inline std::unique_ptr<fabnet::nn::Layer>
tracedLinear(Tracer &tr, const std::string &name, LayerRole role,
             fabnet::LinearKind kind, std::size_t in, std::size_t out,
             fabnet::Rng &rng)
{
    std::unique_ptr<fabnet::nn::Layer> lin;
    if (kind == fabnet::LinearKind::Dense)
        lin = std::make_unique<fabnet::nn::Dense>(in, out, rng);
    else
        lin = std::make_unique<fabnet::nn::ButterflyDense>(in, out, rng);
    return std::make_unique<TracedLayer>(tr, tr.addPath(name, role),
                                         std::move(lin));
}

inline void
tracedBlocks(Tracer &tr, const fabnet::ModelConfig &cfg,
             fabnet::LinearKind lin, fabnet::Rng &rng,
             std::vector<std::unique_ptr<fabnet::nn::Layer>> &mixers,
             std::vector<std::unique_ptr<fabnet::nn::Layer>> &ffns)
{
    const std::size_t d = cfg.d_hid;
    const std::size_t h = cfg.ffnHidden();
    const LayerRole P = LayerRole::Projection;
    const LayerRole F = LayerRole::FfnLinear;
    for (std::size_t i = 0; i < cfg.n_total; ++i) {
        const std::string b = "block" + std::to_string(i);
        auto mha = std::make_unique<TracedAttention>(
            tr, tr.addPath(b + ".attn", LayerRole::Mixer), i == 0, d,
            cfg.heads, tracedLinear(tr, b + ".attn.q", P, lin, d, d, rng),
            tracedLinear(tr, b + ".attn.k", P, lin, d, d, rng),
            tracedLinear(tr, b + ".attn.v", P, lin, d, d, rng),
            tracedLinear(tr, b + ".attn.o", P, lin, d, d, rng), cfg.causal);
        mha->setSparse(cfg.attn_sparse);
        mixers.push_back(std::move(mha));
        ffns.push_back(std::make_unique<TracedLayer>(
            tr, tr.addPath(b + ".ffn", LayerRole::Ffn),
            std::make_unique<fabnet::nn::FeedForward>(
                tracedLinear(tr, b + ".ffn.lin1", F, lin, d, h, rng),
                std::make_unique<fabnet::nn::Gelu>(),
                tracedLinear(tr, b + ".ffn.lin2", F, lin, h, d, rng))));
    }
}

inline fabnet::LinearKind
linearKindOf(const fabnet::ModelConfig &cfg)
{
    return cfg.kind == fabnet::ModelKind::FABNet
               ? fabnet::LinearKind::Butterfly
               : fabnet::LinearKind::Dense;
}

} // namespace detail

/** Traced buildModel for Transformer and all-ABfly FABNet configs. */
inline std::unique_ptr<fabnet::SequenceClassifier>
buildTracedModel(Tracer &tr, const fabnet::ModelConfig &cfg,
                 fabnet::Rng &rng)
{
    if (cfg.kind == fabnet::ModelKind::FNet ||
        (cfg.kind == fabnet::ModelKind::FABNet && cfg.n_abfly != cfg.n_total))
        throw std::invalid_argument(
            "buildTracedModel: attention-only configs");
    std::vector<std::unique_ptr<fabnet::nn::Layer>> mixers, ffns;
    detail::tracedBlocks(tr, cfg, detail::linearKindOf(cfg), rng, mixers,
                         ffns);
    return std::make_unique<fabnet::SequenceClassifier>(
        cfg, std::move(mixers), std::move(ffns), rng);
}

/** Traced buildGenerator. */
inline std::unique_ptr<fabnet::CausalGenerator>
buildTracedGenerator(Tracer &tr, const fabnet::ModelConfig &cfg,
                     fabnet::Rng &rng)
{
    if (!cfg.causal || cfg.kind == fabnet::ModelKind::FNet)
        throw std::invalid_argument(
            "buildTracedGenerator: causal attention configs only");
    std::vector<std::unique_ptr<fabnet::nn::Layer>> mixers, ffns;
    detail::tracedBlocks(tr, cfg, detail::linearKindOf(cfg), rng, mixers,
                         ffns);
    return std::make_unique<fabnet::CausalGenerator>(
        cfg, std::move(mixers), std::move(ffns), rng);
}

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
