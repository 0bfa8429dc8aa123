/**
 * @file serving_test.cpp
 * The serving front end's correctness contract:
 *   - bucketing/grouping policy (serve/batcher.h) is deterministic,
 *   - batched serving of mixed-length request sets produces logits
 *     bitwise identical to serial single-request inference, at thread
 *     counts {1, 4, 8}, including odd lengths that straddle bucket
 *     boundaries, for both Dense and Butterfly attention models,
 *   - results are invariant to the batch composition (max_batch /
 *     granularity choices),
 *   - the workspace cap/shrink policy releases over-cap scratch.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "model/builder.h"
#include "runtime/isa.h"
#include "runtime/parallel.h"
#include "runtime/workspace.h"
#include "serve/batcher.h"
#include "serve/serving.h"
#include "tensor/rng.h"
#include "test_util.h"

namespace fabnet {
namespace {

using serve::BatchGroup;
using serve::FlushReason;
using serve::RequestBatcher;
using serve::ServingConfig;
using serve::ServingEngine;
using testutil::bitwiseEqual;
using testutil::kThreadCounts;
using testutil::makeRequests;
using testutil::serveSerial;

ModelConfig
tinyCfg(ModelKind kind)
{
    ModelConfig cfg;
    cfg.kind = kind;
    cfg.vocab = 32;
    cfg.max_seq = 64;
    cfg.d_hid = 16;
    cfg.r_ffn = 2;
    cfg.n_total = 2;
    // FABNet with every block ABfly: attention with butterfly
    // projections, the masked-serving-compatible configuration.
    cfg.n_abfly = kind == ModelKind::FABNet ? 2 : 0;
    cfg.heads = 2;
    cfg.classes = 4;
    return cfg;
}

// Odd lengths straddling the granularity-16 bucket boundaries (shared
// harness: below, at, and above multiples, plus the extremes).
const std::vector<std::size_t> kMixedLens = testutil::mixedLens();

using ServingTest = testutil::RuntimeFixture;

// ------------------------------------------------------------ policy

TEST_F(ServingTest, BucketLenRoundsUpAndClamps)
{
    RequestBatcher b(8, 16, 64);
    EXPECT_EQ(b.bucketLen(1), 16u);
    EXPECT_EQ(b.bucketLen(15), 16u);
    EXPECT_EQ(b.bucketLen(16), 16u);
    EXPECT_EQ(b.bucketLen(17), 32u);
    EXPECT_EQ(b.bucketLen(33), 48u);
    EXPECT_EQ(b.bucketLen(63), 64u);
    EXPECT_EQ(b.bucketLen(64), 64u);
    EXPECT_THROW(b.bucketLen(0), std::invalid_argument);
    EXPECT_THROW(b.bucketLen(65), std::invalid_argument);

    // Granularity that does not divide max_seq clamps the top bucket.
    RequestBatcher c(8, 24, 60);
    EXPECT_EQ(c.bucketLen(25), 48u);
    EXPECT_EQ(c.bucketLen(49), 60u);
}

TEST_F(ServingTest, FullBucketsFlushFifoAndInOrder)
{
    RequestBatcher b(4, 16, 64);
    const auto t0 = RequestBatcher::Clock::now();
    // 5 requests in the 16-bucket, 4 in the 32-bucket.
    for (std::uint64_t id = 0; id < 5; ++id)
        b.push(id, 10, t0);
    for (std::uint64_t id = 10; id < 14; ++id)
        b.push(id, 20, t0);
    ASSERT_EQ(b.size(), 9u);

    auto g1 = b.popReady(t0, std::chrono::seconds(1));
    ASSERT_TRUE(g1.has_value());
    EXPECT_EQ(g1->padded_len, 16u); // smallest full bucket first
    EXPECT_EQ(g1->reason, FlushReason::Full);
    EXPECT_EQ(g1->ids, (std::vector<std::uint64_t>{0, 1, 2, 3}));

    auto g2 = b.popReady(t0, std::chrono::seconds(1));
    ASSERT_TRUE(g2.has_value());
    EXPECT_EQ(g2->padded_len, 32u);
    EXPECT_EQ(g2->ids, (std::vector<std::uint64_t>{10, 11, 12, 13}));

    // The leftover request is not ready until max_wait passes...
    EXPECT_FALSE(
        b.popReady(t0, std::chrono::seconds(1)).has_value());
    // ...then flushes as a timeout group.
    auto g3 = b.popReady(t0 + std::chrono::seconds(2),
                         std::chrono::seconds(1));
    ASSERT_TRUE(g3.has_value());
    EXPECT_EQ(g3->reason, FlushReason::Timeout);
    EXPECT_EQ(g3->ids, (std::vector<std::uint64_t>{4}));
    EXPECT_TRUE(b.empty());
}

TEST_F(ServingTest, TimeoutPicksOldestHeadAcrossBuckets)
{
    RequestBatcher b(8, 16, 64);
    const auto t0 = RequestBatcher::Clock::now();
    b.push(1, 20, t0 + std::chrono::milliseconds(5));
    b.push(2, 10, t0); // older head, larger id, different bucket
    auto g = b.popReady(t0 + std::chrono::seconds(1),
                        std::chrono::milliseconds(1));
    ASSERT_TRUE(g.has_value());
    EXPECT_EQ(g->ids, (std::vector<std::uint64_t>{2}));
    auto drained = b.drain();
    ASSERT_TRUE(drained.has_value());
    EXPECT_EQ(drained->reason, FlushReason::Drain);
    EXPECT_EQ(drained->ids, (std::vector<std::uint64_t>{1}));
}

// ------------------------------------------- bitwise serving parity

TEST_F(ServingTest, MixedLengthsBitwiseMatchSerialAcrossThreadCounts)
{
    for (ModelKind kind : {ModelKind::Transformer, ModelKind::FABNet}) {
        const ModelConfig cfg = tinyCfg(kind);
        Rng rng(123);
        auto model = buildModel(cfg, rng);
        const auto reqs = makeRequests(kMixedLens, cfg.vocab, 7);
        const auto want = serveSerial(*model, reqs);

        for (std::size_t threads : kThreadCounts) {
            runtime::setNumThreads(threads);
            ServingConfig sc;
            sc.max_batch = 8;
            sc.bucket_granularity = 16;
            // Long max_wait: only full/drain flushes, so the batch
            // count below is deterministic.
            sc.max_wait = std::chrono::seconds(5);
            ServingEngine engine(*model, sc);
            const auto got = engine.serveAll(reqs);
            EXPECT_TRUE(bitwiseEqual(got, want))
                << "kind=" << static_cast<int>(kind)
                << " threads=" << threads;
            const auto st = engine.stats();
            EXPECT_EQ(st.requests, reqs.size());
            EXPECT_EQ(st.completed, reqs.size());
            EXPECT_LT(st.batches, reqs.size()); // actually batched
        }
    }
}

TEST_F(ServingTest, ResultsInvariantToBatchComposition)
{
    const ModelConfig cfg = tinyCfg(ModelKind::Transformer);
    Rng rng(5);
    auto model = buildModel(cfg, rng);
    const auto reqs = makeRequests(kMixedLens, cfg.vocab, 11);
    const auto want = serveSerial(*model, reqs);

    const std::size_t combos[][2] = {// {max_batch, granularity}
                                     {1, 16}, {4, 8}, {8, 16},
                                     {16, 32}, {3, 1}};
    for (const auto &c : combos) {
        ServingConfig sc;
        sc.max_batch = c[0];
        sc.bucket_granularity = c[1];
        ServingEngine engine(*model, sc);
        EXPECT_TRUE(bitwiseEqual(engine.serveAll(reqs), want))
            << "max_batch=" << c[0] << " granularity=" << c[1];
    }
}

TEST_F(ServingTest, ServeAllMatchesSubmitAndFlushLogitsAndStats)
{
    // serveAll() admits its set and waits for the dispatcher to serve
    // it: logits bitwise identical to serial inference, and the same
    // batches as submitting each request and flushing.
    const ModelConfig cfg = tinyCfg(ModelKind::Transformer);
    Rng rng(53);
    auto model = buildModel(cfg, rng);
    const auto reqs = makeRequests(kMixedLens, cfg.vocab, 29);
    const auto want = serveSerial(*model, reqs);
    std::size_t total_tokens = 0;
    for (const auto &r : reqs)
        total_tokens += r.size();

    ServingConfig sc;
    sc.max_batch = 4;
    sc.bucket_granularity = 16;
    // Long max_wait: no batch ever times out, so every batch is a full
    // or a drained bucket.
    sc.max_wait = std::chrono::seconds(5);

    serve::ServingStats serve_all_stats;
    for (std::size_t threads : kThreadCounts) {
        runtime::setNumThreads(threads);
        ServingEngine engine(*model, sc);
        const auto got = engine.serveAll(reqs);
        EXPECT_TRUE(bitwiseEqual(got, want)) << "threads=" << threads;
        const auto st = engine.stats();
        EXPECT_EQ(st.requests, reqs.size());
        EXPECT_EQ(st.completed, reqs.size());
        EXPECT_EQ(st.failed, 0u);
        EXPECT_EQ(st.flushed_timeout, 0u);
        EXPECT_EQ(st.batches, st.flushed_full + st.flushed_drain);
        EXPECT_EQ(st.real_tokens, total_tokens);
        serve_all_stats = st; // deterministic across thread counts
    }

    // submit + flush serves the same stream with the same grouping:
    // identical logits and aggregate stats.
    {
        ServingEngine engine(*model, sc);
        std::vector<std::future<std::vector<float>>> futs;
        for (const auto &r : reqs)
            futs.push_back(engine.submit(r));
        engine.flush();
        std::vector<std::vector<float>> got;
        got.reserve(futs.size());
        for (auto &f : futs)
            got.push_back(f.get());
        EXPECT_TRUE(bitwiseEqual(got, want));
        const auto st = engine.stats();
        EXPECT_EQ(st.batches, serve_all_stats.batches);
        EXPECT_EQ(st.completed, serve_all_stats.completed);
        EXPECT_EQ(st.real_tokens, serve_all_stats.real_tokens);
        EXPECT_EQ(st.padded_tokens, serve_all_stats.padded_tokens);
    }
}

TEST_F(ServingTest, CausalModelServesBitwiseToo)
{
    // Right-padding composes with the causal mask (visible =
    // min(i+1, len)), so decoder-style models serve exactly as well.
    ModelConfig cfg = tinyCfg(ModelKind::Transformer);
    cfg.causal = true;
    Rng rng(31);
    auto model = buildModel(cfg, rng);
    const auto reqs = makeRequests(kMixedLens, cfg.vocab, 13);
    const auto want = serveSerial(*model, reqs);
    ServingEngine engine(*model, ServingConfig{});
    EXPECT_TRUE(bitwiseEqual(engine.serveAll(reqs), want));
}

// --------------------------------------------- ragged batch parity

/** Right-pad @p reqs into one flat [reqs.size() * seq] token batch. */
std::vector<int>
padTokens(const std::vector<std::vector<int>> &reqs, std::size_t seq)
{
    std::vector<int> tokens(reqs.size() * seq, 0);
    for (std::size_t i = 0; i < reqs.size(); ++i)
        std::copy(reqs[i].begin(), reqs[i].end(), tokens.begin() + i * seq);
    return tokens;
}

TEST_F(ServingTest, RaggedForwardBatchBitwiseMatchesUnpaddedForward)
{
    // The serving contract: forwardBatch with ragged execution (skip
    // padded rows end-to-end) is bitwise identical to serial unpadded
    // forward for degenerate shapes (batch of 1, all-equal lengths,
    // single-token sequences, max-straddle buckets) at threads
    // {1, 4, 8}.
    const std::size_t seq = 32;
    const std::vector<std::vector<std::size_t>> shapes = {
        {20},                    // batch of 1, padded
        {32, 32, 32},            // all-equal lengths, no padding
        {1, 1, 1, 1},            // single-token sequences
        {1, 32, 17, 2, 31, 16},  // max-straddle mix
    };
    for (ModelKind kind : {ModelKind::Transformer, ModelKind::FABNet}) {
        const ModelConfig cfg = tinyCfg(kind);
        Rng rng(211);
        auto model = buildModel(cfg, rng);
        for (const auto &lens : shapes) {
            const auto reqs = makeRequests(lens, cfg.vocab, 97);
            const std::vector<int> tokens = padTokens(reqs, seq);
            runtime::setNumThreads(1);
            const auto want = serveSerial(*model, reqs);
            for (std::size_t threads : kThreadCounts) {
                runtime::setNumThreads(threads);
                const Tensor got =
                    model->forwardBatch(tokens, lens.size(), seq, lens);
                std::vector<std::vector<float>> rows;
                for (std::size_t b = 0; b < lens.size(); ++b)
                    rows.emplace_back(got.data() + b * cfg.classes,
                                      got.data() + (b + 1) * cfg.classes);
                EXPECT_TRUE(bitwiseEqual(rows, want))
                    << "kind=" << static_cast<int>(kind)
                    << " batch=" << lens.size()
                    << " threads=" << threads;
            }
        }
    }
}

TEST_F(ServingTest, FourierForwardBatchMatchesSamePaddedLength)
{
    // Models that cannot mask (FNet, all-FBfly FABNet) run every row of
    // the padded batch, pads included. Their contract (docs/API.md):
    // without padding forwardBatch equals forward, and row b of a
    // padded batch equals that padded row served alone at the same
    // seq, at threads {1, 4, 8}.
    const std::size_t seq = 16;
    const std::vector<std::size_t> lens = {16, 3, 9, 1, 16};
    const std::vector<std::size_t> full(lens.size(), seq);
    for (ModelKind kind : {ModelKind::FNet, ModelKind::FABNet}) {
        ModelConfig cfg = tinyCfg(kind);
        cfg.n_abfly = 0; // FABNet: every block FBfly
        Rng rng(229);
        auto model = buildModel(cfg, rng);
        ASSERT_FALSE(model->supportsMaskedBatch());
        const std::vector<int> tokens =
            padTokens(makeRequests(lens, cfg.vocab, 131), seq);

        runtime::setNumThreads(1);
        const Tensor dense = model->forward(tokens, lens.size(), seq);
        std::vector<Tensor> alone;
        for (std::size_t b = 0; b < lens.size(); ++b)
            alone.push_back(model->forwardBatch(
                std::vector<int>(tokens.begin() + b * seq,
                                 tokens.begin() + (b + 1) * seq),
                1, seq, {lens[b]}));
        for (std::size_t threads : kThreadCounts) {
            runtime::setNumThreads(threads);
            const std::string tag = "kind=" +
                                    std::to_string(static_cast<int>(kind)) +
                                    " threads=" + std::to_string(threads);
            EXPECT_TRUE(testutil::bitwiseEqual(
                model->forwardBatch(tokens, lens.size(), seq, full), dense))
                << tag;
            const Tensor got =
                model->forwardBatch(tokens, lens.size(), seq, lens);
            for (std::size_t b = 0; b < lens.size(); ++b)
                EXPECT_EQ(std::memcmp(got.data() + b * cfg.classes,
                                      alone[b].data(),
                                      cfg.classes * sizeof(float)),
                          0)
                    << tag << " row " << b;
        }
    }
}

TEST_F(ServingTest, RaggedServingBitwiseMatchesSerialQuantizedToo)
{
    // End-to-end through the engine with int8/fp16 linears: ragged
    // execution must preserve the quantized serving guarantee (served
    // logits == serial quantized inference, bit for bit).
    for (QuantKind kind : {QuantKind::Int8, QuantKind::Fp16}) {
        const ModelConfig cfg = tinyCfg(ModelKind::Transformer);
        Rng rng(223);
        auto model = buildModel(cfg, rng);
        ASSERT_GT(model->quantizeLinears(kind), 0u);
        const auto reqs = makeRequests(kMixedLens, cfg.vocab, 101);
        const auto want = serveSerial(*model, reqs);

        for (std::size_t threads : kThreadCounts) {
            runtime::setNumThreads(threads);
            ServingConfig sc;
            sc.max_batch = 8;
            sc.bucket_granularity = 16;
            sc.max_wait = std::chrono::seconds(5);
            ServingEngine engine(*model, sc);
            const auto got = engine.serveAll(reqs);
            EXPECT_TRUE(bitwiseEqual(got, want))
                << "kind=" << static_cast<int>(kind)
                << " threads=" << threads;
            const auto st = engine.stats();
            EXPECT_EQ(st.rows_skipped,
                      st.padded_tokens - st.real_tokens);
            EXPECT_GT(st.rows_skipped, 0u);
        }
    }
}

TEST_F(ServingTest, StatsReportBatchCompositionOverheadAndSkippedRows)
{
    const ModelConfig cfg = tinyCfg(ModelKind::Transformer);
    Rng rng(227);
    auto model = buildModel(cfg, rng);
    ServingConfig sc;
    sc.max_batch = 8;
    sc.bucket_granularity = 16;
    sc.max_wait = std::chrono::seconds(5);
    {
        ServingEngine engine(*model, sc);
        // One full group in the 16-bucket: padded to 16, longest
        // member 12 - bucket overhead > batch-composition overhead.
        engine.serveAll(makeRequests({10, 12, 9, 12, 11, 8, 12, 10},
                                     cfg.vocab, 103));
        const auto st = engine.stats();
        EXPECT_EQ(st.real_tokens, 84u);
        EXPECT_EQ(st.padded_tokens, 8u * 16u);
        EXPECT_EQ(st.tight_tokens, 8u * 12u);
        EXPECT_DOUBLE_EQ(st.padOverhead(), 1.0 - 84.0 / 128.0);
        EXPECT_DOUBLE_EQ(st.padOverheadBatch(), 1.0 - 84.0 / 96.0);
        EXPECT_EQ(st.rows_skipped, 128u - 84u);
    }
    // A model that cannot mask runs every padded row, so the engine
    // must report zero skipped rows.
    ModelConfig fnet = cfg;
    fnet.kind = ModelKind::FNet;
    auto fourier = buildModel(fnet, rng);
    sc.allow_unmasked_mixers = true;
    {
        ServingEngine engine(*fourier, sc);
        engine.serveAll(makeRequests({10, 12}, cfg.vocab, 107));
        EXPECT_GT(engine.stats().padded_tokens,
                  engine.stats().real_tokens);
        EXPECT_EQ(engine.stats().rows_skipped, 0u);
    }
}

// --------------------------------------------------- async behaviour

TEST_F(ServingTest, TimeoutFlushServesWithoutExplicitFlush)
{
    const ModelConfig cfg = tinyCfg(ModelKind::Transformer);
    Rng rng(17);
    auto model = buildModel(cfg, rng);
    ServingConfig sc;
    sc.max_batch = 64; // never fills: only max_wait can flush
    sc.max_wait = std::chrono::microseconds(500);
    ServingEngine engine(*model, sc);
    auto reqs = makeRequests({9, 12, 30}, cfg.vocab, 3);
    std::vector<std::future<std::vector<float>>> futs;
    for (auto &r : reqs)
        futs.push_back(engine.submit(std::move(r)));
    for (auto &f : futs) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
                  std::future_status::ready);
        EXPECT_EQ(f.get().size(), cfg.classes);
    }
    const auto st = engine.stats();
    EXPECT_EQ(st.completed, 3u);
    EXPECT_GE(st.flushed_timeout, 1u);
}

TEST_F(ServingTest, InvalidRequestsRejectedOrFailTheirFuture)
{
    const ModelConfig cfg = tinyCfg(ModelKind::Transformer);
    Rng rng(19);
    auto model = buildModel(cfg, rng);
    ServingEngine engine(*model, ServingConfig{});

    // Admission failures are typed (serve::Error derives
    // std::runtime_error, so legacy catch sites still work).
    try {
        engine.submit({});
        FAIL() << "empty request admitted";
    } catch (const serve::Error &e) {
        EXPECT_EQ(e.code(), serve::ErrorCode::InvalidRequest);
    }
    try {
        engine.submit(std::vector<int>(cfg.max_seq + 1, 1));
        FAIL() << "over-long request admitted";
    } catch (const serve::Error &e) {
        EXPECT_EQ(e.code(), serve::ErrorCode::InvalidRequest);
    }

    // An out-of-vocab token is only detectable inside the model; it
    // must fail the future (as a typed ModelFault keeping the model's
    // message), not kill the dispatcher.
    auto bad = engine.submit({1, 2, static_cast<int>(cfg.vocab) + 5});
    engine.flush();
    try {
        bad.get();
        FAIL() << "out-of-vocab request served";
    } catch (const serve::Error &e) {
        EXPECT_EQ(e.code(), serve::ErrorCode::ModelFault);
    }

    auto good = engine.submit({1, 2, 3});
    engine.flush();
    EXPECT_EQ(good.get().size(), cfg.classes);

    const auto st = engine.stats();
    EXPECT_EQ(st.failed, 1u);
    EXPECT_EQ(st.completed, 1u);
    EXPECT_EQ(st.requests, 2u);
    EXPECT_EQ(st.model_faults, 1u);
}

TEST_F(ServingTest, RejectsFourierModelsUnlessOptedIn)
{
    // FourierMix has no masked form: its served logits would depend on
    // the padded length a request is bucketed at, so the engine
    // refuses such models unless determinism is explicitly forfeited.
    ModelConfig cfg = tinyCfg(ModelKind::Transformer);
    cfg.kind = ModelKind::FNet;
    Rng rng(41);
    auto model = buildModel(cfg, rng);
    EXPECT_THROW(ServingEngine(*model, ServingConfig{}),
                 std::invalid_argument);

    {
        ServingConfig sc;
        sc.allow_unmasked_mixers = true;
        ServingEngine engine(*model, sc);
        const auto out =
            engine.serveAll(makeRequests({8, 16}, cfg.vocab, 3));
        ASSERT_EQ(out.size(), 2u);
        EXPECT_EQ(out[0].size(), cfg.classes);
    }

    // Padding-free buckets (granularity 1) are deterministic even for
    // Fourier mixers, so no opt-in is needed there.
    ServingConfig exact;
    exact.bucket_granularity = 1;
    ServingEngine engine(*model, exact);
    const auto out = engine.serveAll(makeRequests({8, 8, 16}, cfg.vocab, 5));
    ASSERT_EQ(out.size(), 3u);
}

TEST_F(ServingTest, FourierModelsRefuseUnrunnableLengthsAtAdmission)
{
    // A Fourier mixer's FFT runs power-of-two lengths only. Every
    // length 1..max_seq: a request is refused synchronously with
    // InvalidRequest exactly when its bucket is not a power of two;
    // every other request is served, bitwise equal to its padded row
    // alone through forwardBatch, and nothing fails inside the model.
    const auto powerOfTwo = [](std::size_t n) {
        return n != 0 && (n & (n - 1)) == 0;
    };
    for (ModelKind kind : {ModelKind::FNet, ModelKind::FABNet}) {
        ModelConfig cfg = tinyCfg(kind);
        cfg.d_hid = 64;
        cfg.n_abfly = 0; // FABNet: every block FBfly
        Rng rng(233);
        auto model = buildModel(cfg, rng);
        std::vector<std::size_t> lens(cfg.max_seq);
        for (std::size_t i = 0; i < lens.size(); ++i)
            lens[i] = i + 1;
        const auto reqs = makeRequests(lens, cfg.vocab, 239);
        for (std::size_t granularity : {std::size_t{1}, std::size_t{16}}) {
            ServingConfig sc;
            sc.bucket_granularity = granularity;
            sc.allow_unmasked_mixers = true;
            sc.max_wait = std::chrono::seconds(5);
            const std::string tag =
                "kind=" + std::to_string(static_cast<int>(kind)) +
                " granularity=" + std::to_string(granularity);

            // References first: the engine must be the model's only
            // user while it is alive.
            const RequestBatcher batcher(sc.max_batch, granularity,
                                         cfg.max_seq);
            std::vector<std::vector<float>> want(reqs.size());
            for (std::size_t i = 0; i < reqs.size(); ++i) {
                const std::size_t bucket = batcher.bucketLen(lens[i]);
                if (!powerOfTwo(bucket))
                    continue;
                std::vector<int> row(bucket, sc.pad_token);
                std::copy(reqs[i].begin(), reqs[i].end(), row.begin());
                const Tensor logits =
                    model->forwardBatch(row, 1, bucket, {lens[i]});
                want[i].assign(logits.data(),
                               logits.data() + logits.size());
            }

            ServingEngine engine(*model, sc);
            std::vector<std::future<std::vector<float>>> futs(reqs.size());
            std::size_t refused = 0;
            for (std::size_t i = 0; i < reqs.size(); ++i) {
                const bool runs = powerOfTwo(batcher.bucketLen(lens[i]));
                try {
                    futs[i] = engine.submit(reqs[i]);
                    EXPECT_TRUE(runs) << tag << " len=" << lens[i];
                } catch (const serve::Error &e) {
                    EXPECT_EQ(e.code(), serve::ErrorCode::InvalidRequest)
                        << tag << " len=" << lens[i];
                    EXPECT_FALSE(runs) << tag << " len=" << lens[i];
                    ++refused;
                }
            }
            engine.flush();
            for (std::size_t i = 0; i < reqs.size(); ++i) {
                if (futs[i].valid()) {
                    EXPECT_EQ(futs[i].get(), want[i])
                        << tag << " len=" << lens[i];
                }
            }
            EXPECT_EQ(refused, granularity == 1 ? 57u : 16u) << tag;

            // serveAll() validates its whole set up front: one refused
            // length (40) rejects the set with nothing admitted.
            const std::size_t admitted = engine.stats().requests;
            EXPECT_THROW(engine.serveAll({reqs[0], reqs[39]}),
                         serve::Error)
                << tag;
            const auto st = engine.stats();
            EXPECT_EQ(st.requests, admitted) << tag;
            EXPECT_EQ(st.requests, reqs.size() - refused) << tag;
            EXPECT_EQ(st.completed, st.requests) << tag;
            EXPECT_EQ(st.model_faults, 0u) << tag;
        }
    }
}

TEST_F(ServingTest, StatsTrackPaddingOverhead)
{
    const ModelConfig cfg = tinyCfg(ModelKind::Transformer);
    Rng rng(23);
    auto model = buildModel(cfg, rng);
    ServingConfig sc;
    sc.bucket_granularity = 16;
    ServingEngine engine(*model, sc);
    engine.serveAll(makeRequests({10, 16, 20}, cfg.vocab, 29));
    const auto st = engine.stats();
    EXPECT_EQ(st.real_tokens, 46u);   // 10 + 16 + 20
    EXPECT_EQ(st.padded_tokens, 64u); // 16 + 16 + 32
    EXPECT_GT(st.padOverhead(), 0.0);
    EXPECT_LT(st.padOverhead(), 1.0);
    EXPECT_GE(st.avgBatch(), 1.0);
}

// ------------------------------------------------ workspace policy

struct ShrinkTestWs; // private tag: no kernel shares this buffer

TEST_F(ServingTest, WorkspaceCapShrinksRetainedScratch)
{
    using namespace fabnet::runtime;
    setWorkspaceCapBytes(0);
    const std::size_t big = 1u << 20; // 4 MiB of floats
    threadWorkspace<ShrinkTestWs>(big);
    EXPECT_GE(threadWorkspaceCapacityBytes<ShrinkTestWs>(),
              big * sizeof(float));

    // Grow-only without a cap.
    threadWorkspace<ShrinkTestWs>(64);
    EXPECT_GE(threadWorkspaceCapacityBytes<ShrinkTestWs>(),
              big * sizeof(float));

    // With a cap, the next under-cap request releases the retention.
    setWorkspaceCapBytes(64 << 10);
    threadWorkspace<ShrinkTestWs>(64);
    EXPECT_LE(threadWorkspaceCapacityBytes<ShrinkTestWs>(), 64u << 10);

    // Over-cap requests are still honoured (correctness over policy)..
    float *p = threadWorkspace<ShrinkTestWs>(big);
    ASSERT_NE(p, nullptr);
    EXPECT_GE(threadWorkspaceCapacityBytes<ShrinkTestWs>(),
              big * sizeof(float));
    // ..and released again on the next under-cap request.
    threadWorkspace<ShrinkTestWs>(128);
    EXPECT_LE(threadWorkspaceCapacityBytes<ShrinkTestWs>(), 64u << 10);
}

TEST_F(ServingTest, EngineInstallsAndRestoresWorkspaceCap)
{
    using namespace fabnet::runtime;
    setWorkspaceCapBytes(0);
    const ModelConfig cfg = tinyCfg(ModelKind::Transformer);
    Rng rng(37);
    auto model = buildModel(cfg, rng);
    {
        ServingConfig sc;
        sc.workspace_cap_bytes = 1u << 20;
        ServingEngine engine(*model, sc);
        EXPECT_EQ(workspaceCapBytes(), 1u << 20);
    }
    EXPECT_EQ(workspaceCapBytes(), 0u);

    // Overlapping engine lifetimes: the tightest active cap wins, and
    // destroying one engine must not clobber the other's policy.
    {
        ServingConfig a;
        a.workspace_cap_bytes = 4u << 20;
        auto e1 = std::make_unique<ServingEngine>(*model, a);
        EXPECT_EQ(workspaceCapBytes(), 4u << 20);
        ServingConfig b;
        b.workspace_cap_bytes = 2u << 20;
        Rng rng2(38);
        auto model2 = buildModel(cfg, rng2);
        ServingEngine e2(*model2, b);
        EXPECT_EQ(workspaceCapBytes(), 2u << 20);
        e1.reset();
        EXPECT_EQ(workspaceCapBytes(), 2u << 20);
    }
    EXPECT_EQ(workspaceCapBytes(), 0u);
}

TEST_F(ServingTest, StatsCarryExecutionIdentity)
{
    const ModelConfig cfg = tinyCfg(ModelKind::Transformer);
    Rng rng(39);
    auto model = buildModel(cfg, rng);
    ServingEngine engine(*model);
    const serve::ServingStats st = engine.stats();
    EXPECT_EQ(st.isa, runtime::isa());
    EXPECT_EQ(st.cpu_signature, runtime::cpuSignature());
}

// --------------------------------------- deadline arithmetic hardening

TEST_F(ServingTest, DeadlineAfterSaturatesInsteadOfOverflowing)
{
    using namespace std::chrono;
    // A duration too large for the steady clock's representation must
    // saturate to the no-deadline sentinel, never wrap negative into
    // an instantly-expired deadline (the pre-fix behaviour).
    EXPECT_EQ(serve::deadlineAfter(microseconds::max()),
              serve::kNoDeadline);
    EXPECT_EQ(serve::deadlineAfter(milliseconds::max()),
              serve::kNoDeadline);
    EXPECT_EQ(serve::deadlineAfter(hours::max()), serve::kNoDeadline);
    EXPECT_EQ(
        serve::deadlineAfter(RequestBatcher::Clock::duration::max()),
        serve::kNoDeadline);

    // Large-but-representable durations land in the far future with no
    // wraparound: ~120 years fits a nanosecond-rep steady clock.
    const auto far = serve::deadlineAfter(hours(1 << 20));
    EXPECT_NE(far, serve::kNoDeadline);
    EXPECT_GT(far, RequestBatcher::Clock::now() + hours(1));

    // Ordinary deadlines are unchanged by the hardening.
    const auto soon = serve::deadlineAfter(seconds(5));
    EXPECT_NE(soon, serve::kNoDeadline);
    EXPECT_GT(soon, RequestBatcher::Clock::now());
    EXPECT_LT(soon, RequestBatcher::Clock::now() + seconds(6));

    // Huge negative durations saturate to the clock's minimum - an
    // already-expired deadline, not a wrapped future one.
    EXPECT_EQ(serve::deadlineAfter(hours::min()),
              serve::Deadline::min());
    EXPECT_LE(serve::deadlineAfter(milliseconds::min()),
              RequestBatcher::Clock::now());
}

TEST_F(ServingTest, HugeDeadlineAdmitsAndServesNormally)
{
    // End-to-end regression: before the saturation fix a huge deadline
    // wrapped negative and every such request died DeadlineExceeded at
    // submit. It must behave exactly like "no deadline".
    const ModelConfig cfg = tinyCfg(ModelKind::Transformer);
    Rng rng(39);
    auto model = buildModel(cfg, rng);
    ServingConfig sc;
    sc.max_batch = 1; // flush-on-full: served immediately
    ServingEngine engine(*model, sc);
    const auto reqs = makeRequests({12}, cfg.vocab, 40);
    auto fut = engine.submit(
        reqs[0],
        serve::deadlineAfter(std::chrono::microseconds::max()));
    EXPECT_EQ(fut.get().size(), cfg.classes);
    const auto st = engine.stats();
    EXPECT_EQ(st.expired_in_queue, 0u);
    EXPECT_EQ(st.completed, 1u);
}

} // namespace
} // namespace fabnet
