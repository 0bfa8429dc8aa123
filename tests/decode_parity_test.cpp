/**
 * @file decode_parity_test.cpp
 * The decode bitwise contract (nn/decode.h, `ctest -L decode-parity`):
 * incremental K/V-cached generation - prefill() then a decodeStep()
 * per token - produces logits BITWISE identical to a full causal
 * recompute (forwardFull) at every step, at thread counts {1, 4, 8},
 * for fp32 and int8/fp16-quantized linears, Dense and Butterfly
 * projections, and under any admission/eviction interleaving of the
 * live set. Plus the causal+ragged audit regression: causal
 * MultiHeadAttention's ragged path vs unpadded forward with odd
 * straddling lengths.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "model/generator.h"
#include "nn/attention.h"
#include "nn/dense.h"
#include "tensor/quant.h"
#include "tensor/rng.h"
#include "test_util.h"

namespace fabnet {
namespace {

using testutil::bitwiseEqual;
using testutil::forEachThreadCount;
using testutil::raggedInput;

ModelConfig
genCfg(ModelKind kind)
{
    ModelConfig cfg;
    cfg.kind = kind;
    cfg.vocab = 32;
    cfg.max_seq = 32;
    cfg.d_hid = 16;
    cfg.r_ffn = 2;
    cfg.n_total = 2;
    cfg.n_abfly = kind == ModelKind::FABNet ? 2 : 0;
    cfg.heads = 2;
    cfg.classes = 2;
    cfg.causal = true;
    return cfg;
}

/** Mixed-length prompts (odd, straddling, equal) in the vocab. */
std::vector<std::vector<int>>
mixedPrompts(std::size_t vocab, unsigned seed)
{
    return testutil::makeRequests({5, 1, 12, 7, 7, 3}, vocab, seed);
}

/** Greedy full-recompute reference: next token of each sequence. */
std::vector<int>
referenceTokens(CausalGenerator &gen,
                const std::vector<std::vector<int>> &seqs)
{
    return nn::argmaxRows(gen.forwardFull(seqs));
}

/**
 * The core parity loop: prefill once, then decode @p steps greedy
 * tokens, comparing every step's incremental logits BITWISE against
 * forwardFull of the same (prompt + generated) sequences, computed at
 * one thread. Runs the incremental side at every kThreadCounts entry.
 */
void
expectDecodeParity(CausalGenerator &gen,
                   const std::vector<std::vector<int>> &prompts,
                   std::size_t steps, const std::string &tag)
{
    // Baseline token streams + logits from full recompute at 1 thread.
    runtime::setNumThreads(1);
    std::vector<std::vector<int>> ref_seqs = prompts;
    std::vector<Tensor> ref_logits; // per step, [n, vocab]
    for (std::size_t s = 0; s <= steps; ++s) {
        Tensor lg = gen.forwardFull(ref_seqs);
        const std::vector<int> toks = nn::argmaxRows(lg);
        ref_logits.push_back(std::move(lg));
        for (std::size_t b = 0; b < ref_seqs.size(); ++b)
            ref_seqs[b].push_back(toks[b]);
    }

    forEachThreadCount([&](std::size_t threads) {
        std::vector<SequenceState> states(prompts.size());
        std::vector<SequenceState *> ptrs;
        for (auto &st : states) {
            st = gen.newState();
            ptrs.push_back(&st);
        }
        Tensor lg = gen.prefill(prompts, ptrs);
        EXPECT_TRUE(bitwiseEqual(lg, ref_logits[0]))
            << tag << " prefill, threads=" << threads;
        std::vector<int> toks = nn::argmaxRows(lg);
        for (std::size_t s = 1; s <= steps; ++s) {
            lg = gen.decodeStep(toks, ptrs);
            EXPECT_TRUE(bitwiseEqual(lg, ref_logits[s]))
                << tag << " step " << s << ", threads=" << threads;
            toks = nn::argmaxRows(lg);
        }
    });
}

using DecodeParityTest = testutil::RuntimeFixture;

// ------------------------------------------------- fp32 decode parity

TEST_F(DecodeParityTest, TransformerDenseProjections)
{
    Rng rng(11);
    auto gen = buildGenerator(genCfg(ModelKind::Transformer), rng);
    expectDecodeParity(*gen, mixedPrompts(gen->vocab(), 21), 6,
                       "transformer");
}

TEST_F(DecodeParityTest, FabnetButterflyProjections)
{
    Rng rng(12);
    auto gen = buildGenerator(genCfg(ModelKind::FABNet), rng);
    expectDecodeParity(*gen, mixedPrompts(gen->vocab(), 22), 6,
                       "fabnet");
}

TEST_F(DecodeParityTest, SingleSequenceToMaxSeq)
{
    // One sequence decoded to the end of the positional table: every
    // step must stay bitwise-parous, including the last legal one.
    Rng rng(13);
    ModelConfig cfg = genCfg(ModelKind::Transformer);
    cfg.max_seq = 12;
    auto gen = buildGenerator(cfg, rng);
    const std::vector<std::vector<int>> prompts =
        testutil::makeRequests({3}, gen->vocab(), 23);
    expectDecodeParity(*gen, prompts, cfg.max_seq - 3 - 1, "to-max-seq");
}

TEST_F(DecodeParityTest, CacheLongerThanTwoKeyTiles)
{
    // Caches past 64 rows: the step's score GEMM spans three 32-key
    // column tiles (the last partial) and the head width fills a whole
    // 32-column context tile.
    Rng rng(14);
    ModelConfig cfg = genCfg(ModelKind::Transformer);
    cfg.max_seq = 80;
    cfg.d_hid = 64;
    const auto prompts = testutil::makeRequests({60, 33, 2}, cfg.vocab, 25);
    auto gen = buildGenerator(cfg, rng);
    expectDecodeParity(*gen, prompts, 10, "long-cache");
}

// -------------------------------------------- quantized decode parity

TEST_F(DecodeParityTest, Int8QuantizedParity)
{
    Rng rng(14);
    auto gen = buildGenerator(genCfg(ModelKind::FABNet), rng);
    ASSERT_GT(gen->quantizeLinears(QuantKind::Int8), 0u);
    expectDecodeParity(*gen, mixedPrompts(gen->vocab(), 24), 5, "int8");
}

TEST_F(DecodeParityTest, Fp16QuantizedParity)
{
    Rng rng(15);
    auto gen = buildGenerator(genCfg(ModelKind::Transformer), rng);
    ASSERT_GT(gen->quantizeLinears(QuantKind::Fp16), 0u);
    expectDecodeParity(*gen, mixedPrompts(gen->vocab(), 25), 5, "fp16");
}

// ------------------------------------------- interleaving invariance

TEST_F(DecodeParityTest, AdmissionInterleavingCannotChangeTokens)
{
    // Continuous-batching freedom: decode A solo, admit B mid-flight,
    // retire A, admit C - every step's logits row must be bitwise
    // identical to each sequence's SOLO incremental run. This is the
    // property that lets the scheduler (serve/generation.h) reshuffle
    // the live set between steps.
    Rng rng(16);
    auto gen = buildGenerator(genCfg(ModelKind::FABNet), rng);
    const auto prompts = testutil::makeRequests({5, 9, 2}, gen->vocab(), 26);
    const std::size_t kSteps = 8;

    // Solo baselines: per sequence, per step, the logits row.
    runtime::setNumThreads(1);
    std::vector<std::vector<Tensor>> solo(prompts.size());
    for (std::size_t b = 0; b < prompts.size(); ++b) {
        SequenceState st = gen->newState();
        const std::vector<SequenceState *> p1{&st};
        Tensor lg = gen->prefill({prompts[b]}, p1);
        solo[b].push_back(lg);
        int tok = nn::argmaxRows(lg)[0];
        for (std::size_t s = 1; s < kSteps; ++s) {
            lg = gen->decodeStep({tok}, p1);
            solo[b].push_back(lg);
            tok = nn::argmaxRows(lg)[0];
        }
    }
    const std::size_t vocab = gen->vocab();
    const auto rowsMatch = [&](const Tensor &batch, std::size_t row,
                               std::size_t b, std::size_t step) {
        return std::memcmp(batch.data() + row * vocab,
                           solo[b][step].data(),
                           vocab * sizeof(float)) == 0;
    };

    forEachThreadCount([&](std::size_t threads) {
        std::vector<SequenceState> states(prompts.size());
        for (auto &st : states)
            st = gen->newState();
        std::vector<int> last(prompts.size());
        std::vector<std::size_t> step(prompts.size(), 0);

        // Phase 1: A alone (prefill + 2 steps).
        {
            const std::vector<SequenceState *> pa{&states[0]};
            Tensor lg = gen->prefill({prompts[0]}, pa);
            EXPECT_TRUE(rowsMatch(lg, 0, 0, 0)) << "A prefill solo-joint";
            last[0] = nn::argmaxRows(lg)[0];
            for (int s = 0; s < 2; ++s) {
                lg = gen->decodeStep({last[0]}, pa);
                ++step[0];
                EXPECT_TRUE(rowsMatch(lg, 0, 0, step[0]))
                    << "A step " << step[0] << " threads=" << threads;
                last[0] = nn::argmaxRows(lg)[0];
            }
        }
        // Phase 2: admit B, decode {A, B} jointly for 2 steps.
        {
            const std::vector<SequenceState *> pb{&states[1]};
            Tensor lg = gen->prefill({prompts[1]}, pb);
            EXPECT_TRUE(rowsMatch(lg, 0, 1, 0)) << "B prefill mid-flight";
            last[1] = nn::argmaxRows(lg)[0];
            const std::vector<SequenceState *> ab{&states[0], &states[1]};
            for (int s = 0; s < 2; ++s) {
                lg = gen->decodeStep({last[0], last[1]}, ab);
                ++step[0];
                ++step[1];
                EXPECT_TRUE(rowsMatch(lg, 0, 0, step[0]))
                    << "A joint step " << step[0];
                EXPECT_TRUE(rowsMatch(lg, 1, 1, step[1]))
                    << "B joint step " << step[1];
                const auto t = nn::argmaxRows(lg);
                last[0] = t[0];
                last[1] = t[1];
            }
        }
        // Phase 3: retire A, admit C; decode {C, B} (order swapped!).
        {
            const std::vector<SequenceState *> pc{&states[2]};
            Tensor lg = gen->prefill({prompts[2]}, pc);
            EXPECT_TRUE(rowsMatch(lg, 0, 2, 0)) << "C prefill mid-flight";
            last[2] = nn::argmaxRows(lg)[0];
            const std::vector<SequenceState *> cb{&states[2], &states[1]};
            for (int s = 0; s < 2; ++s) {
                lg = gen->decodeStep({last[2], last[1]}, cb);
                ++step[2];
                ++step[1];
                EXPECT_TRUE(rowsMatch(lg, 0, 2, step[2]))
                    << "C joint step " << step[2];
                EXPECT_TRUE(rowsMatch(lg, 1, 1, step[1]))
                    << "B joint step " << step[1];
                const auto t = nn::argmaxRows(lg);
                last[2] = t[0];
                last[1] = t[1];
            }
        }
    });
}

TEST_F(DecodeParityTest, RollbackThenRestepReproducesBits)
{
    // Fault-isolation cornerstone: truncating the K/V caches to the
    // pre-step length and re-running the step reproduces the exact
    // bits (a faulted step may have appended rows before throwing).
    Rng rng(17);
    auto gen = buildGenerator(genCfg(ModelKind::Transformer), rng);
    const auto prompts = testutil::makeRequests({4, 6}, gen->vocab(), 27);
    std::vector<SequenceState> states(2);
    std::vector<SequenceState *> ptrs;
    for (auto &st : states) {
        st = gen->newState();
        ptrs.push_back(&st);
    }
    runtime::setNumThreads(4);
    const std::vector<int> toks = nn::argmaxRows(gen->prefill(prompts, ptrs));
    const std::vector<std::size_t> pre{states[0].len, states[1].len};

    const Tensor first = gen->decodeStep(toks, ptrs);
    gen->rollback(states[0], pre[0]);
    gen->rollback(states[1], pre[1]);
    EXPECT_EQ(states[0].len, pre[0]);
    const Tensor again = gen->decodeStep(toks, ptrs);
    EXPECT_TRUE(bitwiseEqual(first, again));

    // A 1-row re-step of one sequence also matches its batched row.
    gen->rollback(states[1], pre[1]);
    const std::vector<SequenceState *> p1{&states[1]};
    const Tensor solo = gen->decodeStep({toks[1]}, p1);
    EXPECT_EQ(std::memcmp(solo.data(),
                          again.data() + 1 * gen->vocab(),
                          gen->vocab() * sizeof(float)),
              0);
}

// ----------------------------------------- API misuse stays a throw

TEST_F(DecodeParityTest, GeneratorValidatesStates)
{
    Rng rng(18);
    auto gen = buildGenerator(genCfg(ModelKind::Transformer), rng);
    const auto prompts = testutil::makeRequests({4}, gen->vocab(), 28);
    SequenceState st = gen->newState();
    std::vector<SequenceState *> ptrs{&st};
    (void)gen->prefill(prompts, ptrs);
    // Re-prefilling a used state must throw, not corrupt the cache.
    EXPECT_THROW((void)gen->prefill(prompts, ptrs), std::logic_error);
    // Stepping an un-prefilled state must throw.
    SequenceState fresh = gen->newState();
    std::vector<SequenceState *> fp{&fresh};
    EXPECT_THROW((void)gen->decodeStep({1}, fp), std::logic_error);
    // Non-causal configs cannot build a generator at all.
    ModelConfig bad = genCfg(ModelKind::Transformer);
    bad.causal = false;
    EXPECT_THROW((void)buildGenerator(bad, rng), std::invalid_argument);
}

// ------------------------------- causal + ragged audit regression

TEST_F(DecodeParityTest, CausalRaggedOddStraddlingLengths)
{
    // ISSUE 8 satellite: the causal+ragged interaction audit found no
    // divergence ('visible' clamps identically in the masked and
    // ragged paths); this regression pins that down with odd lengths
    // straddling the sequence, at threads {1, 4, 8}.
    const std::size_t d = 16, heads = 2, seq = 13;
    Rng rng(19);
    nn::MultiHeadAttention mha(
        d, heads, std::make_unique<nn::Dense>(d, d, rng),
        std::make_unique<nn::Dense>(d, d, rng),
        std::make_unique<nn::Dense>(d, d, rng),
        std::make_unique<nn::Dense>(d, d, rng), /*causal=*/true);
    unsigned seed = 101;
    for (const auto &lens : testutil::raggedLensSweep(seq, 31)) {
        const nn::RowSet rows(lens.size(), seq, lens);
        const Tensor x = raggedInput(rows, d, seed++);
        std::string tag = "causal ragged lens={";
        for (std::size_t L : lens)
            tag += std::to_string(L) + ",";
        tag += "}";
        testutil::expectRaggedForwardParity(mha, x, rows, tag);
    }
}

} // namespace
} // namespace fabnet
