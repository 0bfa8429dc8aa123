#include "runtime/isa.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "runtime/autotune.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#define FABNET_ISA_X86 1
#endif

namespace fabnet {
namespace runtime {

namespace {

struct CpuFeatures
{
    bool avx2 = false;
    bool fma = false;
    bool f16c = false;
    bool avx512f = false;
    bool avx512bw = false;
    bool avx512dq = false;
    bool avx512vl = false;
    bool avx512vnni = false;
};

CpuFeatures
detectFeatures()
{
    CpuFeatures f;
#if defined(FABNET_ISA_X86) && defined(__GNUC__)
    // __builtin_cpu_supports consults CPUID *and* XGETBV (OS support
    // for the wider register state), which a raw CPUID probe would
    // miss - a kernel that doesn't save zmm state must not dispatch
    // AVX-512.
    __builtin_cpu_init();
    f.avx2 = __builtin_cpu_supports("avx2");
    f.fma = __builtin_cpu_supports("fma");
    f.f16c = __builtin_cpu_supports("f16c");
    f.avx512f = __builtin_cpu_supports("avx512f");
    f.avx512bw = __builtin_cpu_supports("avx512bw");
    f.avx512dq = __builtin_cpu_supports("avx512dq");
    f.avx512vl = __builtin_cpu_supports("avx512vl");
#if defined(__clang__) || (defined(__GNUC__) && __GNUC__ >= 9)
    f.avx512vnni = __builtin_cpu_supports("avx512vnni");
#endif
#endif
    return f;
}

const CpuFeatures &
features()
{
    static const CpuFeatures f = detectFeatures();
    return f;
}

/** CPUID brand string (leaves 0x80000002..4), or a fallback tag. */
std::string
cpuBrand()
{
#if defined(FABNET_ISA_X86)
    unsigned int regs[4] = {0, 0, 0, 0};
    if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2],
                    &regs[3]) &&
        regs[0] >= 0x80000004u) {
        char brand[49] = {0};
        for (unsigned int leaf = 0; leaf < 3; ++leaf) {
            __get_cpuid(0x80000002u + leaf, &regs[0], &regs[1], &regs[2],
                        &regs[3]);
            std::memcpy(brand + leaf * 16, regs, 16);
        }
        // Trim the leading/trailing padding spaces vendors insert.
        std::string s(brand);
        std::size_t b = s.find_first_not_of(' ');
        std::size_t e = s.find_last_not_of(' ');
        if (b == std::string::npos)
            return "unknown-x86";
        // Collapse internal runs of spaces for a stable cache key.
        std::string out;
        bool in_space = false;
        for (std::size_t i = b; i <= e; ++i) {
            if (s[i] == ' ') {
                if (!in_space)
                    out.push_back(' ');
                in_space = true;
            } else {
                out.push_back(s[i]);
                in_space = false;
            }
        }
        return out;
    }
    return "unknown-x86";
#else
    return "non-x86";
#endif
}

Isa
clampToSupported(Isa want)
{
    Isa best = bestSupportedIsa();
    return static_cast<int>(want) <= static_cast<int>(best) ? want
                                                            : best;
}

/** Parse a FABNET_ISA value; returns false on an unknown name. */
bool
parseIsaName(const char *s, Isa &out)
{
    std::string v;
    for (const char *p = s; *p; ++p)
        v.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(*p))));
    if (v == "scalar") {
        out = Isa::Scalar;
        return true;
    }
    if (v == "avx2") {
        out = Isa::Avx2;
        return true;
    }
    if (v == "avx512" || v == "avx512f") {
        out = Isa::Avx512;
        return true;
    }
    if (v == "avx512vnni" || v == "vnni") {
        out = Isa::Avx512Vnni;
        return true;
    }
    if (v == "best" || v == "native" || v == "auto") {
        out = bestSupportedIsa();
        return true;
    }
    return false;
}

Isa
selectIsa()
{
    const char *env = std::getenv("FABNET_ISA");
    if (env && *env) {
        Isa want;
        if (!parseIsaName(env, want)) {
            std::fprintf(stderr,
                         "fabnet: unknown FABNET_ISA '%s' "
                         "(scalar|avx2|avx512|avx512vnni|best); "
                         "using best supported\n",
                         env);
            return bestSupportedIsa();
        }
        const Isa got = clampToSupported(want);
        if (got != want)
            std::fprintf(stderr,
                         "fabnet: FABNET_ISA=%s not supported by this "
                         "cpu; clamped to %s\n",
                         isaName(want), isaName(got));
        return got;
    }
    return bestSupportedIsa();
}

} // namespace

const char *
isaName(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return "scalar";
    case Isa::Avx2:
        return "avx2";
    case Isa::Avx512:
        return "avx512";
    case Isa::Avx512Vnni:
        return "avx512vnni";
    }
    return "unknown";
}

bool
isaSupported(Isa isa)
{
    const CpuFeatures &f = features();
    switch (isa) {
    case Isa::Scalar:
        return true;
    case Isa::Avx2:
        return f.avx2 && f.f16c;
    case Isa::Avx512:
        return f.avx512f && f.avx512bw && f.avx512dq && f.avx512vl &&
               f.avx2 && f.f16c;
    case Isa::Avx512Vnni:
        return isaSupported(Isa::Avx512) && f.avx512vnni;
    }
    return false;
}

Isa
bestSupportedIsa()
{
    if (isaSupported(Isa::Avx512Vnni))
        return Isa::Avx512Vnni;
    if (isaSupported(Isa::Avx512))
        return Isa::Avx512;
    if (isaSupported(Isa::Avx2))
        return Isa::Avx2;
    return Isa::Scalar;
}

Isa
activeIsa()
{
    static const Isa chosen = selectIsa();
    return chosen;
}

const char *
isa()
{
    return isaName(activeIsa());
}

const std::string &
cpuSignature()
{
    static const std::string sig = [] {
        const CpuFeatures &f = features();
        std::string s = cpuBrand();
        s += " |";
        if (f.avx2)
            s += " avx2";
        if (f.fma)
            s += " fma";
        if (f.f16c)
            s += " f16c";
        if (f.avx512f)
            s += " avx512f";
        if (f.avx512bw)
            s += " avx512bw";
        if (f.avx512dq)
            s += " avx512dq";
        if (f.avx512vl)
            s += " avx512vl";
        if (f.avx512vnni)
            s += " avx512vnni";
        return s;
    }();
    return sig;
}

std::string
tuningReport()
{
    return std::string("{\"isa\": \"") + isa() +
           "\", \"cpu_signature\": \"" + cpuSignature() + "\"}";
}

} // namespace runtime
} // namespace fabnet
