#!/usr/bin/env bash
# Build and run the kernel microbenchmarks, emitting BENCH_kernels.json
# at the repo root so the perf trajectory is tracked PR over PR.
#
# Usage:
#   bench/run_kernels.sh [extra google-benchmark flags...]
#
# Env:
#   FABNET_NUM_THREADS  thread count for the parallel engine paths
#                       (default: hardware concurrency)
#   BUILD_DIR           cmake build directory (default: build)
#   FILTER              --benchmark_filter regex (default: engine-vs-
#                       seed + fp32-vs-quantized pairs + butterfly/
#                       attention cases)
#
# Build-type guard: benchmark numbers from a non-Release build are
# garbage, so the script configures Release explicitly, refuses to run
# from a cache that says otherwise, and stamps the verified repo build
# type into the JSON context (`repo_build_type`). Note that the
# `library_build_type` field google-benchmark itself emits describes
# the SYSTEM libbenchmark (Debian ships it without NDEBUG, so it says
# "debug") - `repo_build_type` is the authoritative field for this
# repo's kernels; see docs/BENCHMARKS.md.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
FILTER=${FILTER:-'(Matmul|ButterflyBatch|ButterflyLinearBatch|AttentionForward|GeluRow|SoftmaxRow)'}

# Fresh build dirs are configured Release explicitly; an EXISTING dir
# is configured as-is and the script refuses on mismatch rather than
# silently rewriting a developer's Debug cache out from under them.
if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
    cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
else
    cmake -B "$BUILD_DIR" -S . >/dev/null
fi
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt")
if [ "$build_type" != "Release" ]; then
    echo "error: $BUILD_DIR is configured as '${build_type:-<unset>}'," \
         "not Release - refusing to record benchmark numbers." \
         "Reconfigure with -DCMAKE_BUILD_TYPE=Release or point" \
         "BUILD_DIR at a Release build." >&2
    exit 1
fi
cmake --build "$BUILD_DIR" -j --target bench_kernels >/dev/null

# Portability guard: numbers from a -march=native build only mean
# something when the JSON says so. The bench binary stamps
# `march_native` from its own build flags; if the cache says the build
# specialised for this box, a JSON missing/denying that stamp (a stale
# binary from before the field existed) must not be recorded.
native_build=$(sed -n 's/^FABNET_NATIVE:[^=]*=//p' "$BUILD_DIR/CMakeCache.txt")

"$BUILD_DIR"/bench_kernels \
    --benchmark_filter="$FILTER" \
    --benchmark_out=BENCH_kernels.json \
    --benchmark_out_format=json \
    --benchmark_context=repo_build_type=Release \
    "$@"

if ! grep -q '"repo_build_type": "Release"' BENCH_kernels.json; then
    echo "error: BENCH_kernels.json is missing the verified" \
         "repo_build_type=Release stamp" >&2
    exit 1
fi

if [ "${native_build^^}" = "ON" ] || [ "${native_build^^}" = "TRUE" ] \
   || [ "$native_build" = "1" ]; then
    if ! grep -q '"march_native": "true"' BENCH_kernels.json; then
        rm -f BENCH_kernels.json
        echo "error: $BUILD_DIR was configured with FABNET_NATIVE=ON" \
             "(-march=native) but the bench binary did not record" \
             "march_native=true in its JSON - refusing to stamp" \
             "machine-specialised numbers as if they were portable." \
             "Rebuild bench_kernels from the current tree (or" \
             "reconfigure with -DFABNET_NATIVE=OFF)." >&2
        exit 1
    fi
fi
if ! grep -q '"isa":' BENCH_kernels.json; then
    rm -f BENCH_kernels.json
    echo "error: BENCH_kernels.json is missing the isa/cpu_signature" \
         "execution-identity fields (docs/BENCHMARKS.md) - stale" \
         "bench binary? Rebuild bench_kernels and rerun." >&2
    exit 1
fi

echo "Wrote $(pwd)/BENCH_kernels.json (repo_build_type=Release," \
     "march_native=${native_build:-OFF})"
