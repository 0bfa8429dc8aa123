// AVX-512 kernel variant. Compiled with -mavx512f -mavx512bw
// -mavx512dq -mavx512vl -mavx2 -mfma -mf16c -mprefer-vector-width=256
// (CMakeLists.txt says why 256): autovectorised loops stay on ymm, and
// the explicit _mm512 intrinsics are not limited by the preference.
#define FABNET_KV_NS kv_avx512
#define FABNET_KV_AVX2 1
#define FABNET_KV_F16C 1
#define FABNET_KV_AVX512 1
#define FABNET_KV_VNNI 0
#define FABNET_KV_ISA ::fabnet::runtime::Isa::Avx512
#define FABNET_KV_EXPORT kernelTableAvx512

#include "runtime/kernels_impl.h"
