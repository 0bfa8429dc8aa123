#include "nn/serialize.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

namespace fabnet {
namespace nn {

namespace {

constexpr char kMagic[4] = {'F', 'A', 'B', 'W'};
constexpr std::uint32_t kVersion = 2;

struct FileCloser
{
    void operator()(std::FILE *f) const
    {
        if (f)
            std::fclose(f);
    }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

template <typename T>
bool
writeValue(std::FILE *f, const T &v)
{
    return std::fwrite(&v, sizeof(T), 1, f) == 1;
}

/** Read a T at @p off of @p buf, advancing @p off. */
template <typename T>
T
takeValue(const std::vector<char> &buf, std::size_t &off)
{
    T v;
    std::memcpy(&v, buf.data() + off, sizeof(T));
    off += sizeof(T);
    return v;
}

} // namespace

bool
saveParams(const std::vector<ParamRef> &params, const std::string &path)
{
    FilePtr f(std::fopen(path.c_str(), "wb"));
    if (!f)
        return false;
    if (std::fwrite(kMagic, 1, 4, f.get()) != 4)
        return false;
    if (!writeValue(f.get(), kVersion))
        return false;
    const std::uint64_t count = params.size();
    if (!writeValue(f.get(), count))
        return false;
    for (const auto &p : params) {
        const std::uint64_t len = p.value->size();
        if (!writeValue(f.get(), len))
            return false;
        if (len && std::fwrite(p.value->data(), sizeof(float), len,
                               f.get()) != len)
            return false;
    }
    return true;
}

bool
loadParams(const std::vector<ParamRef> &params, const std::string &path)
{
    // All or nothing: the file is read whole and validated against the
    // layout before any parameter is written, so a truncated, corrupted
    // or over-long file leaves every parameter untouched.
    std::size_t expected = sizeof(kMagic) + sizeof(kVersion) +
                           sizeof(std::uint64_t);
    for (const auto &p : params)
        expected += sizeof(std::uint64_t) + p.value->size() * sizeof(float);
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f)
        return false;
    // One byte past the expected size exposes trailing bytes.
    std::vector<char> buf(expected + 1);
    if (std::fread(buf.data(), 1, buf.size(), f.get()) != expected)
        return false;
    if (std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0)
        return false;
    std::size_t off = sizeof(kMagic);
    if (takeValue<std::uint32_t>(buf, off) != kVersion ||
        takeValue<std::uint64_t>(buf, off) != params.size())
        return false;
    std::vector<std::size_t> payload(params.size());
    for (std::size_t i = 0; i < params.size(); ++i) {
        const std::size_t len = params[i].value->size();
        if (takeValue<std::uint64_t>(buf, off) != len)
            return false;
        payload[i] = off;
        off += len * sizeof(float);
    }
    for (std::size_t i = 0; i < params.size(); ++i)
        std::memcpy(params[i].value->data(), buf.data() + payload[i],
                    params[i].value->size() * sizeof(float));
    return true;
}

} // namespace nn
} // namespace fabnet
