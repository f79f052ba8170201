// The two kernel-body loops that dominate the oversubscribed-node host
// cost, written so GCC vectorizes them (this file alone is built with
// -fno-math-errno -fno-trapping-math -ffp-contract=off; see CMakeLists.txt).
// Each loop is one always-inline body, compiled for the baseline x86-64
// target and, on x86-64 GCC builds, again for x86-64-v3 (AVX2) and
// x86-64-v4 (AVX-512). The public functions run the widest build this CPU
// supports. No __restrict: GCC versions each loop on a runtime alias check,
// so a launch whose buffers overlap runs the scalar order.
#include "workloads/kernel_loops.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace gpuvm::workloads {
namespace {

/// e^x within 2 ulp of expf on [-87.5, 88]. The argument is clamped to that
/// range first (NaN reads as -87.5), so smaller arguments return
/// e^-87.5 ~= 1e-38 rather than 0, larger ones e^88 ~= 1.7e38, and no
/// scale factor ever leaves the normal exponent range.
inline float poly_exp(float x) {
  x = x > -87.5f ? x : -87.5f;
  x = x < 88.0f ? x : 88.0f;
  // n = round(x / ln 2): adding 1.5 * 2^23 rounds to an integer and leaves
  // it in the low mantissa bits, so no float-to-int conversion is needed.
  constexpr float kShift = 12582912.0f;
  const float shifted = x * 1.44269504088896341f + kShift;
  const float n = shifted - kShift;
  // Cephes expf: x - n ln 2 in two parts, then a degree-7 polynomial.
  const float g = (x - n * 0.693359375f) - n * -2.12194440e-4f;
  const float p = ((((((1.9875691500e-4f * g + 1.3981999507e-3f) * g + 8.3334519073e-3f) * g +
                      4.1665795894e-2f) * g + 1.6666665459e-1f) * g + 5.0000001201e-1f) *
                   (g * g)) + g + 1.0f;
  const u32 scale = (std::bit_cast<u32>(shifted) - std::bit_cast<u32>(kShift) + 127u) << 23;
  return p * std::bit_cast<float>(scale);
}

/// ln v within 2 ulp of logf for positive normal v. Every other bit pattern
/// takes the same integer path and gives a finite value: +0 and positive
/// denormals about -88.03 (their exponent field reads as 2^-127), +inf
/// 88.72, and -0, negative v and NaN values without meaning (-1 gives
/// -177.4).
inline float poly_log(float v) {
  // v = 2^k * m with m in [sqrt(1/2), sqrt(2)). Unsigned arithmetic keeps
  // every bit pattern, negative ones included, free of overflow.
  const u32 bits = std::bit_cast<u32>(v);
  const u32 offset = bits - 0x3f3504f3u;  // the bits of sqrt(1/2)
  const float k = static_cast<float>(static_cast<i32>(offset) >> 23);
  const float f = std::bit_cast<float>(bits - (offset & 0xff800000u)) - 1.0f;
  // Cephes logf: log1p(f) = f - f^2/2 + f^3 P(f), ln 2 in two parts.
  const float z = f * f;
  float y = ((((((((7.0376836292e-2f * f - 1.1514610310e-1f) * f + 1.1676998740e-1f) * f -
                  1.2420140846e-1f) * f + 1.4249322787e-1f) * f - 1.6668057665e-1f) * f +
               2.0000714765e-1f) * f - 2.4999993993e-1f) * f + 3.3333331174e-1f) * f * z;
  y += -2.12194440e-4f * k;
  y += -0.5f * z;
  return (f + y) + 0.693359375f * k;
}

/// The normal CDF at -|d|: the polynomial tail of the CUDA SDK's CND, which
/// depends on d only through |d|.
inline float cnd_tail(float d) {
  constexpr float a1 = 0.31938153f, a2 = -0.356563782f, a3 = 1.781477937f,
                  a4 = -1.821255978f, a5 = 1.330274429f;
  const float k = 1.0f / (1.0f + 0.2316419f * std::fabs(d));
  return 0.39894228040143267f * poly_exp(-0.5f * d * d) *
         (k * (a1 + k * (a2 + k * (a3 + k * (a4 + k * a5)))));
}

bool overlaps(const float* p, const float* q, u64 count) {
  const auto lo = reinterpret_cast<std::uintptr_t>(p);
  const auto hi = reinterpret_cast<std::uintptr_t>(q);
  const u64 bytes = count * sizeof(float);
  return lo < hi + bytes && hi < lo + bytes;
}

[[gnu::always_inline]] inline void bs_loop(const float* s, const float* x, const float* t,
                                            float* call, float* put, u64 n, float r, float v) {
  for (u64 i = 0; i < n; ++i) {
    const float si = s[i];
    const float xi = x[i];
    const float ti = t[i];
    const float v_sqrt_t = v * std::sqrt(ti);
    const float d1 = (poly_log(si / xi) + (r + 0.5f * v * v) * ti) / v_sqrt_t;
    const float d2 = d1 - v_sqrt_t;
    const float x_exp_rt = xi * poly_exp(-r * ti);
    const float tail1 = cnd_tail(d1);
    const float tail2 = cnd_tail(d2);
    // N(d) is 1 - tail for d > 0 and tail otherwise; N(-d) mirrors it.
    call[i] = si * (d1 > 0 ? 1.0f - tail1 : tail1) - x_exp_rt * (d2 > 0 ? 1.0f - tail2 : tail2);
    put[i] = x_exp_rt * (d2 < 0 ? 1.0f - tail2 : tail2) - si * (d1 < 0 ? 1.0f - tail1 : tail1);
  }
}

[[gnu::always_inline]] inline void mm_loop(const float* a, const float* b, float* c, u64 n) {
  // Tiles of kRows rows x kCols columns accumulate in a local array, so
  // each row of b is read once per kRows rows of c instead of once per row.
  // An output overlapping an input must see the ikj loop's partial
  // updates, so it takes that loop for every row.
  constexpr u64 kRows = 4;
  constexpr u64 kCols = 64;
  u64 i = 0;
  if (!overlaps(c, a, n * n) && !overlaps(c, b, n * n)) {
    for (; i + kRows <= n; i += kRows) {
      for (u64 j0 = 0; j0 < n; j0 += kCols) {
        const u64 width = std::min(kCols, n - j0);
        float acc[kRows][kCols] = {};
        for (u64 k = 0; k < n; ++k) {
          const float* brow = b + k * n + j0;
          const float a0 = a[i * n + k];
          const float a1 = a[(i + 1) * n + k];
          const float a2 = a[(i + 2) * n + k];
          const float a3 = a[(i + 3) * n + k];
          for (u64 j = 0; j < width; ++j) {
            acc[0][j] += a0 * brow[j];
            acc[1][j] += a1 * brow[j];
            acc[2][j] += a2 * brow[j];
            acc[3][j] += a3 * brow[j];
          }
        }
        for (u64 row = 0; row < kRows; ++row) {
          std::copy(acc[row], acc[row] + width, c + (i + row) * n + j0);
        }
      }
    }
  }
  std::fill(c + i * n, c + n * n, 0.0f);
  for (; i < n; ++i) {
    for (u64 k = 0; k < n; ++k) {
      const float aik = a[i * n + k];
      for (u64 j = 0; j < n; ++j) c[i * n + j] += aik * b[k * n + j];
    }
  }
}

// One build of both loops per target; the attribute is all that differs.
// Every build runs the same IEEE operations in the same order, and with
// -ffp-contract=off none fuses a multiply and an add, so each build's
// mm_matmul bytes match the ikj loop and its bs_price bytes match the
// baseline's, except that a NaN price may carry the other sign.
void bs_baseline(const float* s, const float* x, const float* t, float* call, float* put, u64 n,
                 float r, float v) {
  bs_loop(s, x, t, call, put, n, r, v);
}
void mm_baseline(const float* a, const float* b, float* c, u64 n) { mm_loop(a, b, c, n); }

#if defined(__x86_64__) && defined(__GNUC__)
[[gnu::target("arch=x86-64-v3")]] void bs_v3(const float* s, const float* x, const float* t,
                                             float* call, float* put, u64 n, float r, float v) {
  bs_loop(s, x, t, call, put, n, r, v);
}
[[gnu::target("arch=x86-64-v3")]] void mm_v3(const float* a, const float* b, float* c, u64 n) {
  mm_loop(a, b, c, n);
}
[[gnu::target("arch=x86-64-v4")]] void bs_v4(const float* s, const float* x, const float* t,
                                             float* call, float* put, u64 n, float r, float v) {
  bs_loop(s, x, t, call, put, n, r, v);
}
[[gnu::target("arch=x86-64-v4")]] void mm_v4(const float* a, const float* b, float* c, u64 n) {
  mm_loop(a, b, c, n);
}
#endif

}  // namespace

std::span<const KernelLoopVariant> kernel_loop_variants() {
  static const std::vector<KernelLoopVariant> variants = [] {
    std::vector<KernelLoopVariant> list;
#if defined(__x86_64__) && defined(__GNUC__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("x86-64-v4")) list.push_back({"x86-64-v4", bs_v4, mm_v4});
    if (__builtin_cpu_supports("x86-64-v3")) list.push_back({"x86-64-v3", bs_v3, mm_v3});
#endif
    list.push_back({"baseline", bs_baseline, mm_baseline});
    return list;
  }();
  return variants;
}

void bs_price_options(const float* s, const float* x, const float* t, float* call,
                      float* put, u64 n, float r, float v) {
  kernel_loop_variants().front().bs(s, x, t, call, put, n, r, v);
}

void mm_matmul_square(const float* a, const float* b, float* c, u64 n) {
  kernel_loop_variants().front().mm(a, b, c, n);
}

}  // namespace gpuvm::workloads
