/**
 * @file serialize_test.cpp
 * Checkpoint round trips: save/load of model parameters, layout
 * validation, behavioural equivalence after reload, a malformed-file
 * sweep (truncations, corrupted fields, trailing bytes) and a version 1
 * file (Dense weights in the old [out, in] order), each of which must
 * be rejected without touching any parameter.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "model/builder.h"
#include "nn/serialize.h"
#include "tensor/ops.h"

namespace fabnet {
namespace {

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

ModelConfig
tinyCfg()
{
    ModelConfig cfg;
    cfg.kind = ModelKind::FABNet;
    cfg.vocab = 32;
    cfg.classes = 3;
    cfg.max_seq = 16;
    cfg.d_hid = 8;
    cfg.r_ffn = 2;
    cfg.n_total = 2;
    cfg.heads = 2;
    return cfg;
}

TEST(Serialize, RoundTripPreservesEveryValue)
{
    Rng rng(1);
    auto model = buildModel(tinyCfg(), rng);
    const auto path = tempPath("fab_roundtrip.bin");
    ASSERT_TRUE(nn::saveParams(model->params(), path));

    // A differently initialised model converges to the first after
    // loading.
    Rng rng2(999);
    auto other = buildModel(tinyCfg(), rng2);
    ASSERT_TRUE(nn::loadParams(other->params(), path));

    auto pa = model->params();
    auto pb = other->params();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i)
        EXPECT_EQ(*pa[i].value, *pb[i].value) << "param vector " << i;
    std::remove(path.c_str());
}

TEST(Serialize, ReloadedModelProducesIdenticalLogits)
{
    Rng rng(2);
    auto model = buildModel(tinyCfg(), rng);
    std::vector<int> tokens(16, 5);
    Tensor before = model->forward(tokens, 1, 16);

    const auto path = tempPath("fab_logits.bin");
    ASSERT_TRUE(nn::saveParams(model->params(), path));
    Rng rng2(77);
    auto other = buildModel(tinyCfg(), rng2);
    ASSERT_TRUE(nn::loadParams(other->params(), path));
    Tensor after = other->forward(tokens, 1, 16);
    EXPECT_TRUE(ops::allClose(before, after, 0.0f));
    std::remove(path.c_str());
}

TEST(Serialize, LayoutMismatchRejected)
{
    Rng rng(3);
    auto model = buildModel(tinyCfg(), rng);
    const auto path = tempPath("fab_mismatch.bin");
    ASSERT_TRUE(nn::saveParams(model->params(), path));

    ModelConfig bigger = tinyCfg();
    bigger.d_hid = 16;
    Rng rng2(4);
    auto other = buildModel(bigger, rng2);
    EXPECT_FALSE(nn::loadParams(other->params(), path));
    std::remove(path.c_str());
}

TEST(Serialize, CorruptHeaderRejected)
{
    const auto path = tempPath("fab_corrupt.bin");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOPE", f);
    std::fclose(f);

    Rng rng(5);
    auto model = buildModel(tinyCfg(), rng);
    EXPECT_FALSE(nn::loadParams(model->params(), path));
    std::remove(path.c_str());
}

TEST(Serialize, MissingFileFails)
{
    Rng rng(6);
    auto model = buildModel(tinyCfg(), rng);
    EXPECT_FALSE(
        nn::loadParams(model->params(), "/nonexistent/dir/x.bin"));
}

std::vector<char>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in), {});
}

void
writeBytes(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Serialize, MalformedFilesRejectedWithoutTouchingParams)
{
    Rng rng(7);
    auto source = buildModel(tinyCfg(), rng);
    const auto path = tempPath("fab_malformed.bin");
    ASSERT_TRUE(nn::saveParams(source->params(), path));
    const std::vector<char> good = readBytes(path);

    // A differently initialised target: any partial load shows.
    Rng rng2(8);
    auto target = buildModel(tinyCfg(), rng2);
    const auto params = target->params();
    std::vector<std::vector<float>> before;
    for (const auto &p : params)
        before.push_back(*p.value);

    // Layout offsets: 16-byte header (magic, u32 version, u64 count),
    // then per vector a u64 length at len_at[i] and its payload up to
    // end_at[i].
    const std::size_t header = 16;
    std::vector<std::size_t> len_at, end_at;
    std::size_t off = header;
    for (const auto &p : params) {
        len_at.push_back(off);
        off += 8 + p.value->size() * sizeof(float);
        end_at.push_back(off);
    }
    ASSERT_EQ(off, good.size());

    std::vector<std::pair<std::string, std::vector<char>>> cases;
    const auto truncated = [&](std::size_t n) {
        cases.emplace_back("truncated to " + std::to_string(n),
                           std::vector<char>(good.begin(),
                                             good.begin() + n));
    };
    for (std::size_t n = 0; n < header; ++n)
        truncated(n);
    for (std::size_t i = 0; i < params.size(); ++i) {
        for (std::size_t n = len_at[i]; n < len_at[i] + 8; ++n)
            truncated(n);
        truncated(end_at[i] - 1);
        if (end_at[i] + 1 < good.size())
            truncated(end_at[i] + 1);
    }
    Rng pick(9);
    for (int k = 0; k < 32; ++k) {
        const std::size_t i = static_cast<std::size_t>(
            pick.randint(0, static_cast<int>(params.size()) - 1));
        const std::size_t lo = len_at[i] + 8, hi = end_at[i];
        if (hi > lo)
            truncated(static_cast<std::size_t>(pick.randint(
                static_cast<int>(lo), static_cast<int>(hi) - 1)));
    }
    const auto patched = [&](const std::string &what, std::size_t at,
                             std::uint64_t v) {
        std::vector<char> bytes = good;
        std::memcpy(bytes.data() + at, &v, sizeof(v));
        cases.emplace_back(what, std::move(bytes));
    };
    const std::uint64_t count = params.size();
    for (std::uint64_t v : {count - 1, count + 1, std::uint64_t{0},
                            ~std::uint64_t{0}})
        patched("count " + std::to_string(v), 8, v);
    for (std::size_t i = 0; i < params.size(); ++i) {
        const std::uint64_t len = params[i].value->size();
        for (std::uint64_t v : {len - 1, len + 1, std::uint64_t{1} << 62})
            patched("vector " + std::to_string(i) + " length " +
                        std::to_string(v),
                    len_at[i], v);
    }
    for (std::size_t extra : {1u, 7u, 64u}) {
        std::vector<char> bytes = good;
        bytes.insert(bytes.end(), extra, '\x5a');
        cases.emplace_back(std::to_string(extra) + " trailing bytes",
                           std::move(bytes));
    }

    for (const auto &[what, bytes] : cases) {
        writeBytes(path, bytes);
        EXPECT_FALSE(nn::loadParams(params, path)) << what;
        bool untouched = true;
        for (std::size_t i = 0; i < params.size(); ++i) {
            untouched &= std::memcmp(params[i].value->data(),
                                     before[i].data(),
                                     before[i].size() * sizeof(float)) == 0;
            *params[i].value = before[i]; // next case starts clean
        }
        EXPECT_TRUE(untouched) << what << ": parameters written";
    }

    // The intact file still loads.
    writeBytes(path, good);
    EXPECT_TRUE(nn::loadParams(params, path));
    std::remove(path.c_str());
}

/** A model with square Dense layers, whose vectors read the same
 *  length in any storage order. */
ModelConfig
denseCfg()
{
    ModelConfig cfg = tinyCfg();
    cfg.kind = ModelKind::Transformer;
    cfg.n_abfly = cfg.n_total;
    return cfg;
}

TEST(Serialize, VersionTwoRoundTripIsBitwise)
{
    Rng rng(10);
    auto source = buildModel(denseCfg(), rng);
    const auto path = tempPath("fab_v2.bin");
    ASSERT_TRUE(nn::saveParams(source->params(), path));
    const std::vector<char> bytes = readBytes(path);
    ASSERT_GE(bytes.size(), 8u);
    std::uint32_t version = 0;
    std::memcpy(&version, bytes.data() + 4, sizeof(version));
    EXPECT_EQ(version, 2u);

    Rng rng2(11);
    auto target = buildModel(denseCfg(), rng2);
    ASSERT_TRUE(nn::loadParams(target->params(), path));
    const auto pa = source->params();
    const auto pb = target->params();
    ASSERT_EQ(pa.size(), pb.size());
    for (std::size_t i = 0; i < pa.size(); ++i)
        EXPECT_EQ(std::memcmp(pa[i].value->data(), pb[i].value->data(),
                              pa[i].value->size() * sizeof(float)),
                  0)
            << "param vector " << i;
    std::remove(path.c_str());
}

TEST(Serialize, VersionOneFileRefusedWithoutTouchingParams)
{
    // Version 1 stored Dense weights [out, in]: loading one into the
    // [in, out] layout would transpose every square layer silently.
    Rng rng(12);
    auto source = buildModel(denseCfg(), rng);
    const auto path = tempPath("fab_v1.bin");
    ASSERT_TRUE(nn::saveParams(source->params(), path));
    std::vector<char> bytes = readBytes(path);
    const std::uint32_t v1 = 1;
    std::memcpy(bytes.data() + 4, &v1, sizeof(v1));
    writeBytes(path, bytes);

    Rng rng2(13);
    auto target = buildModel(denseCfg(), rng2);
    const auto params = target->params();
    std::vector<std::vector<float>> before;
    for (const auto &p : params)
        before.push_back(*p.value);
    EXPECT_FALSE(nn::loadParams(params, path));
    for (std::size_t i = 0; i < params.size(); ++i)
        EXPECT_EQ(std::memcmp(params[i].value->data(), before[i].data(),
                              before[i].size() * sizeof(float)),
                  0)
            << "param vector " << i << " written";
    std::remove(path.c_str());
}

} // namespace
} // namespace fabnet
