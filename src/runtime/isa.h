/**
 * @file isa.h
 * Runtime ISA detection and selection.
 *
 * Every binary carries four compiled kernel variants (scalar, AVX2,
 * AVX-512, AVX-512+VNNI - see dispatch.h); which one runs is decided
 * ONCE at startup from CPUID, not at compile time. This is the
 * software half of the paper's adaptability claim: the same butterfly
 * engine binary adapts to whatever the deployment target offers,
 * instead of being specialised (and SIGILLing elsewhere) by
 * `-march=native`.
 *
 * The choice is overridable with the FABNET_ISA environment variable
 * ("scalar", "avx2", "avx512", "avx512vnni", or "best"); a request the
 * host cannot execute is clamped DOWN to the best supported level with
 * a warning on stderr, so forced-ISA test runs stay portable.
 */
#ifndef FABNET_RUNTIME_ISA_H
#define FABNET_RUNTIME_ISA_H

#include <string>

namespace fabnet {
namespace runtime {

/** Kernel-variant levels, ordered weakest to strongest. Each level
 *  implies everything below it. */
enum class Isa : int {
    Scalar = 0,     ///< baseline x86-64 (SSE2), no feature checks
    Avx2 = 1,       ///< AVX2 + FMA-free mul/add + F16C conversions
    Avx512 = 2,     ///< AVX-512 F/BW/DQ/VL (+ AVX2 + F16C)
    Avx512Vnni = 3, ///< AVX-512 with VNNI int8 dot-product
};

/** Number of Isa levels (for iteration in tests/benches). */
inline constexpr int kNumIsaLevels = 4;

/** Short lowercase name ("scalar", "avx2", "avx512", "avx512vnni"). */
const char *isaName(Isa isa);

/** True when the HOST cpu can execute every instruction the given
 *  variant level may use (via CPUID; Scalar is always true). */
bool isaSupported(Isa isa);

/** Best level the host supports (ignores FABNET_ISA). */
Isa bestSupportedIsa();

/**
 * The level selected for this process: FABNET_ISA if set (clamped to
 * bestSupportedIsa() when the host can't run the request), otherwise
 * bestSupportedIsa(). Decided once on first call and cached.
 */
Isa activeIsa();

/** isaName(activeIsa()) - the string benches and stats record. */
const char *isa();

/**
 * Stable human-readable CPU signature: brand string plus the feature
 * flags the dispatcher cares about, e.g.
 * "Intel(R) Xeon(R) ... | avx2 f16c fma avx512f avx512bw avx512dq
 * avx512vl". Benches and engine stats record it with isa().
 */
const std::string &cpuSignature();

} // namespace runtime
} // namespace fabnet

#endif // FABNET_RUNTIME_ISA_H
