// Shared by the kernel bodies of apps.cpp and apps_extended.cpp: the size
// check every body runs on its tenant-supplied counts, and the two hot
// loops that kernel_loops.cpp compiles for SIMD, once per x86-64 level
// (see CMakeLists.txt). The public loops run the widest build this CPU
// supports; kernel_loop_variants() lists every build it can run.
#pragma once

#include <span>

#include "common/types.hpp"

namespace gpuvm::workloads {

/// True when `buffer` has room for `rows` x `cols` elements. Counts come
/// from tenants, so the product is never formed: it could wrap.
template <typename T>
bool holds(std::span<T> buffer, u64 rows, u64 cols = 1) {
  return cols == 0 || rows <= buffer.size() / cols;
}

/// Black-Scholes call and put prices of `n` options (spot `s`, strike `x`,
/// years to expiry `t`) at rate `r` and volatility `v`. Same formula as the
/// scalar libm reference in apps.cpp, but with polynomial exp/log (prices
/// within about 2e-6 of it, relative to 1 + |price|, over the BS apps'
/// input ranges) and each CDF tail computed once for both signs of d. Any
/// input bits are defined behaviour: NaN in an option's s, x or t makes its
/// prices NaN; zero, negative, denormal or infinite inputs give prices
/// without meaning (kernel_loops.cpp says what its exp and log return).
void bs_price_options(const float* s, const float* x, const float* t, float* call,
                      float* put, u64 n, float r, float v);

/// c = a * b for row-major n x n matrices. Byte-identical to the ikj loop
/// `c = 0; c[i][j] += a[i][k] * b[k][j]` for every input, overlapping
/// buffers included: each element sums its k terms in ascending order.
void mm_matmul_square(const float* a, const float* b, float* c, u64 n);

/// One build of both loops for one instruction-set level. All builds give
/// the same bytes, except that a NaN price may carry the other sign.
struct KernelLoopVariant {
  const char* isa;  ///< "x86-64-v4", "x86-64-v3" or "baseline"
  void (*bs)(const float* s, const float* x, const float* t, float* call, float* put, u64 n,
             float r, float v);
  void (*mm)(const float* a, const float* b, float* c, u64 n);
};

/// The builds this CPU runs, widest first, chosen once from the CPU's
/// feature bits; the baseline build is always last. bs_price_options and
/// mm_matmul_square call the first. Non-x86-64 and non-GNU builds have
/// only the baseline.
std::span<const KernelLoopVariant> kernel_loop_variants();

}  // namespace gpuvm::workloads
