/**
 * @file autotune.h
 * The GEMM execution identity as one JSON object.
 *
 * Every fp32/fp16 GEMM panel runs the one 4x32 register tile and every
 * GEMM call site one fixed row grain (kGemmTileM, kGemmTileN and
 * kGemmRowGrain in kernels_common.h), so the identity is the dispatch
 * level and the CPU it ran on. Defined in isa.cc.
 */
#ifndef FABNET_RUNTIME_AUTOTUNE_H
#define FABNET_RUNTIME_AUTOTUNE_H

#include <string>

namespace fabnet {
namespace runtime {

/** {"isa": isa(), "cpu_signature": cpuSignature()} as a JSON object
 *  (embedded in benchmark stamps). */
std::string tuningReport();

} // namespace runtime
} // namespace fabnet

#endif // FABNET_RUNTIME_AUTOTUNE_H
