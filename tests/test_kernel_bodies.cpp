// Kernel bodies as the unit under test: each is looked up in the registry
// and run on host buffers, as SimGpu runs it on device memory. bs_price is
// held to a scalar libm oracle, mm_matmul byte for byte to a plain ikj
// loop, and every body must refuse size arguments whose products wrap --
// the counts come from tenants. The two vectorized loops are checked in
// every build this CPU runs (kernel_loop_variants), not only the one the
// bodies call.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/frontend.hpp"
#include "core/runtime.hpp"
#include "cudart/cudart.hpp"
#include "sim/machine.hpp"
#include "workloads/kernel_loops.hpp"
#include "workloads/workload.hpp"

namespace gpuvm::workloads {
namespace {

constexpr float kRate = 0.02f;  // the BS apps' fixed rate and volatility
constexpr float kVol = 0.30f;

// The CUDA SDK's scalar Black-Scholes on libm, as BlackScholes::run checks it.
float oracle_cnd(float d) {
  constexpr float a1 = 0.31938153f, a2 = -0.356563782f, a3 = 1.781477937f,
                  a4 = -1.821255978f, a5 = 1.330274429f;
  const float k = 1.0f / (1.0f + 0.2316419f * std::fabs(d));
  const float cnd = 0.39894228040143267f * std::exp(-0.5f * d * d) *
                    (k * (a1 + k * (a2 + k * (a3 + k * (a4 + k * a5)))));
  return d > 0 ? 1.0f - cnd : cnd;
}

void oracle_price(float s, float x, float t, float* call, float* put) {
  const float sqrt_t = std::sqrt(t);
  const float d1 = (std::log(s / x) + (kRate + 0.5f * kVol * kVol) * t) / (kVol * sqrt_t);
  const float d2 = d1 - kVol * sqrt_t;
  const float exp_rt = std::exp(-kRate * t);
  *call = s * oracle_cnd(d1) - x * exp_rt * oracle_cnd(d2);
  *put = x * exp_rt * oracle_cnd(-d2) - s * oracle_cnd(-d1);
}

// c = a * b in the ikj order the mm_matmul body must reproduce bit for bit.
void oracle_matmul(const float* a, const float* b, float* c, u64 n) {
  std::fill(c, c + n * n, 0.0f);
  for (u64 i = 0; i < n; ++i) {
    for (u64 k = 0; k < n; ++k) {
      const float aik = a[i * n + k];
      for (u64 j = 0; j < n; ++j) c[i * n + j] += aik * b[k * n + j];
    }
  }
}

/// Options for bs_price, one entry per option.
struct Options {
  std::vector<float> s;
  std::vector<float> x;
  std::vector<float> t;

  void add(float spot, float strike, float years) {
    s.push_back(spot);
    x.push_back(strike);
    t.push_back(years);
  }
  u64 size() const { return s.size(); }
};

/// The ranges BlackScholes::run draws from.
Options seeded_options() {
  constexpr u64 kOptions = 120'000;
  Rng rng(17);
  Options o;
  for (u64 i = 0; i < kOptions; ++i) {
    const float spot = 5.0f + static_cast<float>(rng.uniform()) * 25.0f;
    const float strike = 1.0f + static_cast<float>(rng.uniform()) * 99.0f;
    const float years = 0.25f + static_cast<float>(rng.uniform()) * 9.75f;
    o.add(spot, strike, years);
  }
  return o;
}

/// Every combination of special values in s, x and t.
Options special_value_options() {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> specials = {
      0.0f, -0.0f, 1e-40f, -1e-40f, std::numeric_limits<float>::min(), -1.0f, -1e30f,
      1e38f, std::numeric_limits<float>::max(), inf, -inf, nan, 20.0f, 0.5f};
  Options o;
  for (const float a : specials) {
    for (const float b : specials) {
      for (const float c : specials) o.add(a, b, c);
    }
  }
  return o;
}

struct Prices {
  std::vector<float> call;
  std::vector<float> put;
};

Prices price(const KernelLoopVariant& variant, const Options& o) {
  Prices p{std::vector<float>(o.size()), std::vector<float>(o.size())};
  variant.bs(o.s.data(), o.x.data(), o.t.data(), p.call.data(), p.put.data(), o.size(), kRate,
             kVol);
  return p;
}

/// Equal bit for bit, or both NaN.
bool same_price(float got, float want) {
  return std::isnan(want) ? std::isnan(got)
                          : std::bit_cast<u32>(got) == std::bit_cast<u32>(want);
}

/// One launch's arguments: buffers become device-pointer arguments backed
/// by the given host vector, in call order.
struct Args {
  std::vector<sim::KernelArg> args;
  std::vector<std::span<std::byte>> spans;

  template <typename T>
  Args& buf(std::vector<T>& v) {
    args.push_back(sim::KernelArg::dev_out(args.size() + 1));
    spans.push_back(std::as_writable_bytes(std::span(v)));
    return *this;
  }
  Args& i64v(i64 v) {
    args.push_back(sim::KernelArg::i64v(v));
    spans.emplace_back();
    return *this;
  }
  Args& f64v(double v) {
    args.push_back(sim::KernelArg::f64v(v));
    spans.emplace_back();
    return *this;
  }
};

class KernelBodies : public ::testing::Test {
 protected:
  KernelBodies() {
    register_all_kernels(registry_);
    register_extended_kernels(registry_);
  }

  Status run(const std::string& kernel, const Args& a) {
    const auto def = registry_.find(kernel);
    EXPECT_NE(def, nullptr) << kernel;
    if (def == nullptr) return Status::ErrorInvalidValue;
    sim::KernelExecContext kc({}, a.args, a.spans);
    return def->body(kc);
  }

  /// Prices the options through the registered bs_price body.
  Prices body_price(Options o) {
    const u64 n = o.size();
    Prices p{std::vector<float>(n), std::vector<float>(n)};
    EXPECT_EQ(run("bs_price", Args{}.buf(o.s).buf(o.x).buf(o.t).buf(p.call).buf(p.put).i64v(
                                  static_cast<i64>(n))),
              Status::Ok);
    return p;
  }

  sim::KernelRegistry registry_;
};

/// The worst |got - want| / (1 + |want|) of the options' prices against the
/// libm oracle over both prices.
double worst_bs_error(const Options& o, const Prices& got) {
  double worst = 0.0;
  for (u64 i = 0; i < o.size(); ++i) {
    float want_call = 0;
    float want_put = 0;
    oracle_price(o.s[i], o.x[i], o.t[i], &want_call, &want_put);
    worst = std::max({worst,
                      std::fabs(double{got.call[i]} - want_call) / (1.0 + std::fabs(want_call)),
                      std::fabs(double{got.put[i]} - want_put) / (1.0 + std::fabs(want_put))});
  }
  return worst;
}

TEST_F(KernelBodies, BsPriceMatchesTheLibmOracleOnSeededOptions) {
  const Options options = seeded_options();
  EXPECT_LE(worst_bs_error(options, body_price(options)), 1e-5) << "bs_price body";
  for (const KernelLoopVariant& variant : kernel_loop_variants()) {
    EXPECT_LE(worst_bs_error(options, price(variant, options)), 1e-5) << variant.isa;
  }
}

TEST_F(KernelBodies, BsPriceMatchesTheLibmOracleOnEdgeOptions) {
  Options options;
  for (const float years : {0.25f, 1.0f, 4.0f, 10.0f}) {
    for (float strike = 1.0f; strike <= 100.0f; strike += 0.75f) {
      // At-the-money forward: s = x e^-(r + v^2/2) t puts d1 near 0, where
      // both CDF tails are near 1/2 and the sign fold flips.
      const float atm = strike * std::exp(-(kRate + 0.5f * kVol * kVol) * years);
      for (const float nudge : {1.0f, 1.0f - 1e-6f, 1.0f + 1e-6f, 0.999f, 1.001f}) {
        options.add(atm * nudge, strike, years);
      }
    }
  }
  // Deep in and out of the money at short expiry: |d| near 20, so
  // e^(-d^2/2) underflows in libm.
  for (float strike = 1.0f; strike <= 1.3f; strike += 0.01f) options.add(30.0f, strike, 0.25f);
  for (float strike = 90.0f; strike <= 100.0f; strike += 0.5f) options.add(5.0f, strike, 0.25f);
  // The expiry range's ends across the spot and strike ranges.
  for (const float years : {0.25f, 10.0f}) {
    for (float spot = 5.0f; spot <= 30.0f; spot += 1.25f) {
      for (float strike = 1.0f; strike <= 100.0f; strike += 3.0f) {
        options.add(spot, strike, years);
      }
    }
  }
  EXPECT_LE(worst_bs_error(options, body_price(options)), 1e-5) << "bs_price body";
  for (const KernelLoopVariant& variant : kernel_loop_variants()) {
    EXPECT_LE(worst_bs_error(options, price(variant, options)), 1e-5) << variant.isa;
  }
}

TEST_F(KernelBodies, BsPriceTakesAnyInputBits) {
  // Tenants may send any bytes. Every combination of special values in s,
  // x and t prices without undefined behaviour (the sanitizer jobs run
  // this), and a NaN input makes that option's prices NaN: through the
  // registered body, and in every build of the loop.
  const Options o = special_value_options();
  const auto nan_in_nan_out = [&](const Prices& p, const char* isa) {
    for (u64 i = 0; i < o.size(); ++i) {
      if (std::isnan(o.s[i]) || std::isnan(o.x[i]) || std::isnan(o.t[i])) {
        EXPECT_TRUE(std::isnan(p.call[i]) && std::isnan(p.put[i]))
            << isa << " s=" << o.s[i] << " x=" << o.x[i] << " t=" << o.t[i];
      }
    }
  };
  nan_in_nan_out(body_price(o), "bs_price body");
  for (const KernelLoopVariant& variant : kernel_loop_variants()) {
    nan_in_nan_out(price(variant, o), variant.isa);
  }
}

TEST_F(KernelBodies, EveryBsPriceBuildMatchesTheBaselineBitForBit) {
  // The builds differ only in instruction set, so each prices every option
  // to the baseline's bits. Only a NaN's sign may differ: the wider builds
  // flip it on some of the special-value grid's NaN prices.
  const auto variants = kernel_loop_variants();
  ASSERT_STREQ(variants.back().isa, "baseline");
  for (const Options& options : {seeded_options(), special_value_options()}) {
    const Prices want = price(variants.back(), options);
    for (const KernelLoopVariant& variant : variants) {
      const Prices got = price(variant, options);
      u64 differing = 0;
      for (u64 i = 0; i < options.size(); ++i) {
        differing += !same_price(got.call[i], want.call[i]) + !same_price(got.put[i], want.put[i]);
      }
      EXPECT_EQ(differing, 0u) << variant.isa << " on " << options.size() << " options";
    }
  }
}

TEST_F(KernelBodies, MatMulIsByteIdenticalToIkj) {
  Rng rng(29);
  for (const u64 n : {1, 2, 3, 4, 5, 63, 64, 65, 127, 128, 129, 312}) {
    std::vector<float> a(n * n);
    std::vector<float> b(n * n);
    for (float& v : a) v = static_cast<float>(rng.uniform()) * 2.0f - 1.0f;
    for (float& v : b) v = static_cast<float>(rng.uniform()) * 2.0f - 1.0f;
    std::vector<float> want(n * n);
    oracle_matmul(a.data(), b.data(), want.data(), n);
    std::vector<float> got(n * n, 7.0f);
    ASSERT_EQ(run("mm_matmul", Args{}.buf(a).buf(b).buf(got).i64v(static_cast<i64>(n))),
              Status::Ok);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), n * n * sizeof(float)), 0) << "body n=" << n;
    for (const KernelLoopVariant& variant : kernel_loop_variants()) {
      std::fill(got.begin(), got.end(), 7.0f);
      variant.mm(a.data(), b.data(), got.data(), n);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), n * n * sizeof(float)), 0)
          << variant.isa << " n=" << n;
    }
  }
}

TEST_F(KernelBodies, MatMulIntoItsOwnInputMatchesIkj) {
  // c aliasing a: every row sees the ikj loop's partial updates.
  constexpr u64 n = 65;
  Rng rng(31);
  std::vector<float> a(n * n);
  std::vector<float> b(n * n);
  for (float& v : a) v = static_cast<float>(rng.uniform());
  for (float& v : b) v = static_cast<float>(rng.uniform());
  std::vector<float> want = a;
  oracle_matmul(want.data(), b.data(), want.data(), n);
  std::vector<float> got = a;
  ASSERT_EQ(run("mm_matmul", Args{}.buf(got).buf(b).buf(got).i64v(static_cast<i64>(n))),
            Status::Ok);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), n * n * sizeof(float)), 0) << "body";
  for (const KernelLoopVariant& variant : kernel_loop_variants()) {
    got = a;
    variant.mm(got.data(), b.data(), got.data(), n);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), n * n * sizeof(float)), 0) << variant.isa;
  }
}

TEST_F(KernelBodies, SizeProductsThatWrapAreRefused) {
  // 256-element buffers. Each count makes the body's size product wrap to
  // a value those buffers pass (0 for n = 2^32 squared), or is negative.
  std::vector<float> f0(256);
  std::vector<float> f1(256);
  std::vector<float> f2(256);
  std::vector<i32> i0(256);
  std::vector<i32> i1(256);
  std::vector<i32> i2(256);
  constexpr i64 k2p32 = i64{1} << 32;
  const auto refused = [&](const std::string& kernel, const Args& args) {
    EXPECT_EQ(run(kernel, args), Status::ErrorLaunchFailure) << kernel;
  };
  for (const i64 n : {k2p32, i64{-1}, i64{-3}}) {
    refused("mm_matmul", Args{}.buf(f0).buf(f1).buf(f2).i64v(n));
    refused("mt_transpose", Args{}.buf(f0).buf(f1).i64v(n));
    refused("hs_step", Args{}.buf(f0).buf(f1).buf(f2).i64v(n));
    refused("lud_step", Args{}.buf(f0).i64v(n).i64v(0));
    refused("srad_step", Args{}.buf(f0).buf(f1).i64v(n).f64v(0.05));
    refused("nw_diag", Args{}.buf(i0).buf(i1).buf(i2).i64v(n - 1).i64v(2));
    refused("bfs_step", Args{}.buf(i0).buf(i1).i64v(n).i64v(0));
  }
  refused("sp_dot", Args{}.buf(f0).buf(f1).buf(f2).i64v(256).i64v(i64{1} << 56));
  refused("bp_layerforward", Args{}.buf(f0).buf(f1).buf(f2).i64v(i64{1} << 60));
  refused("bp_adjust", Args{}.buf(f0).buf(f1).buf(f2).i64v(i64{1} << 60));
  refused("km_step", Args{}.buf(f0).buf(f1).buf(i0).i64v(i64{1} << 62));
  refused("bfs_step", Args{}.buf(i0).buf(i1).i64v(i64{1} << 62).i64v(0));
  // A BFS edge naming a node beyond the graph indexes past `levels`.
  std::vector<i32> edges = {1, 2, 1000, 0, 0, 0};
  std::vector<i32> levels = {0, -1};
  refused("bfs_step", Args{}.buf(edges).buf(levels).i64v(2).i64v(0));
}

/// One argument of a property launch: an input buffer seeded from its
/// app's range, an output buffer sized to what the body writes, or a scalar.
struct PropArg {
  enum class Kind { In, Out, Int, Real } kind = Kind::Int;
  u64 floats = 0;
  float lo = 0.0f;
  float hi = 0.0f;
  i64 integer = 0;
  double real = 0.0;

  bool is_buffer() const { return kind == Kind::In || kind == Kind::Out; }
};
PropArg in(u64 floats, float lo, float hi) { return {PropArg::Kind::In, floats, lo, hi}; }
PropArg out(u64 floats) { return {PropArg::Kind::Out, floats}; }
PropArg int_arg(i64 v) { return {.kind = PropArg::Kind::Int, .integer = v}; }
PropArg real_arg(double v) { return {.kind = PropArg::Kind::Real, .real = v}; }

/// A launch of each kernel the registries may mark idempotent, shaped as
/// its app launches it.
const std::map<std::string, std::vector<PropArg>>& idempotent_launches() {
  static const std::map<std::string, std::vector<PropArg>> launches = {
      {"va_add", {in(1000, -1, 1), in(1000, -1, 1), out(1000), int_arg(1000)}},
      {"sp_dot", {in(8 * 64, -1, 1), in(8 * 64, -1, 1), out(8), int_arg(8), int_arg(64)}},
      {"mt_transpose", {in(24 * 24, 0, 10), out(24 * 24), int_arg(24)}},
      {"pr_reduce", {in(4000, 0, 1), out(1), int_arg(4000)}},
      {"sc_scan", {in(4000, 0, 1), out(4000), int_arg(4000)}},
      {"bs_price",
       {in(3000, 5, 30), in(3000, 1, 100), in(3000, 0.25f, 10), out(3000), out(3000),
        int_arg(3000), int_arg(40'000'000)}},
      {"bp_layerforward", {in(512, 0, 1), in(512 * 16, -0.5f, 0.5f), out(16), int_arg(512)}},
      {"hs_step", {in(32 * 32, 40, 80), in(32 * 32, 0, 5), out(32 * 32), int_arg(32)}},
      {"mm_matmul",
       {in(48 * 48, -1, 1), in(48 * 48, -1, 1), out(48 * 48), int_arg(48), int_arg(10'000),
        int_arg(800'000'000'000)}},
      {"srad_step", {in(32 * 32, 0, 1), out(32 * 32), int_arg(32), real_arg(0.05)}},
  };
  return launches;
}

/// Every buffer of one property launch, in argument order.
using Buffers = std::vector<std::vector<float>>;

TEST_F(KernelBodies, IdempotentKernelsArePureFunctionsOfTheirInputs) {
  // SimGpu skips the body of an idempotent kernel relaunched over unchanged
  // allocations, so a wrong declaration would hand a tenant stale bytes.
  // Each declared kernel must write the same bytes over zeroed and over
  // garbage outputs, leave its inputs as they were, and change nothing when
  // run a second time.
  std::set<std::string> kernels;
  for (const std::string& app : all_workload_names()) {
    for (const std::string& k : find_workload(app)->kernels()) kernels.insert(k);
  }
  for (const std::string& app : extended_workload_names()) {
    for (const std::string& k : find_extended_workload(app)->kernels()) kernels.insert(k);
  }
  ASSERT_EQ(kernels.size(), registry_.size()) << "a registered kernel no app names";

  int declared = 0;
  for (const std::string& kernel : kernels) {
    if (!registry_.find(kernel)->idempotent) continue;
    SCOPED_TRACE(kernel);
    ++declared;
    const auto recipe = idempotent_launches().find(kernel);
    ASSERT_NE(recipe, idempotent_launches().end()) << "declared idempotent with no launch here";
    const std::vector<PropArg>& shape = recipe->second;

    Rng rng(41);
    Buffers seeded;
    for (const PropArg& arg : shape) {
      if (!arg.is_buffer()) continue;
      std::vector<float> buf(arg.floats);
      if (arg.kind == PropArg::Kind::In) {
        for (float& v : buf) v = arg.lo + static_cast<float>(rng.uniform()) * (arg.hi - arg.lo);
      }
      seeded.push_back(std::move(buf));
    }
    const auto launch = [&](Buffers& bufs) {
      Args a;
      size_t b = 0;
      for (const PropArg& arg : shape) {
        switch (arg.kind) {
          case PropArg::Kind::In:
          case PropArg::Kind::Out: a.buf(bufs[b++]); break;
          case PropArg::Kind::Int: a.i64v(arg.integer); break;
          case PropArg::Kind::Real: a.f64v(arg.real); break;
        }
      }
      return run(kernel, a);
    };
    const auto same_bytes = [](const std::vector<float>& x, const std::vector<float>& y) {
      return x.size() == y.size() && std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
    };

    Buffers once = seeded;  // outputs zeroed
    ASSERT_EQ(launch(once), Status::Ok);
    Buffers twice = once;
    ASSERT_EQ(launch(twice), Status::Ok);
    Buffers over_garbage = seeded;
    size_t b = 0;
    for (const PropArg& arg : shape) {
      if (arg.kind == PropArg::Kind::Out) {
        for (float& v : over_garbage[b]) v = std::bit_cast<float>(static_cast<u32>(rng()));
      }
      b += arg.is_buffer();
    }
    ASSERT_EQ(launch(over_garbage), Status::Ok);

    b = 0;
    for (const PropArg& arg : shape) {
      if (!arg.is_buffer()) continue;
      SCOPED_TRACE("buffer " + std::to_string(b));
      if (arg.kind == PropArg::Kind::In) {
        EXPECT_TRUE(same_bytes(once[b], seeded[b])) << "input";
      }
      EXPECT_TRUE(same_bytes(twice[b], once[b])) << "second launch";
      EXPECT_TRUE(same_bytes(over_garbage[b], once[b])) << "over garbage";
      ++b;
    }
  }
  EXPECT_GE(declared, 3);  // bs_price, sc_scan and pr_reduce at least
}

TEST(KernelBodyDaemon, WrappingMatMulGetsAnErrorAndTheDaemonKeepsServing) {
  vt::Domain dom;
  vt::AttachGuard guard(dom);
  sim::SimMachine machine(dom, sim::SimParams{1});
  machine.add_gpu(sim::test_gpu(1 << 20));
  register_all_kernels(machine.kernels());
  cudart::CudaRt rt(machine, cudart::CudaRtConfig{4 * 1024, 8});
  const core::RuntimeConfig runtime_config;
  core::Runtime runtime(rt, runtime_config);
  core::FrontendApi api(runtime.connect());
  ASSERT_EQ(api.register_kernels({"mm_matmul"}), Status::Ok);

  constexpr u64 n = 16;  // three 1 KiB matrices
  auto da = api.malloc(n * n * sizeof(float));
  auto db = api.malloc(n * n * sizeof(float));
  auto dc = api.malloc(n * n * sizeof(float));
  ASSERT_TRUE(da.has_value() && db.has_value() && dc.has_value());
  Rng rng(5);
  std::vector<float> a(n * n);
  std::vector<float> b(n * n);
  for (float& v : a) v = static_cast<float>(rng.uniform());
  for (float& v : b) v = static_cast<float>(rng.uniform());
  ASSERT_EQ(api.copy_in(da.value(), a), Status::Ok);
  ASSERT_EQ(api.copy_in(db.value(), b), Status::Ok);

  sim::LaunchConfig config;
  config.grid = {1, 1, 1};
  config.block = {256, 1, 1};
  const auto launch = [&](i64 count) {
    return api.launch("mm_matmul", config,
                      {sim::KernelArg::dev(da.value()), sim::KernelArg::dev(db.value()),
                       sim::KernelArg::dev_out(dc.value()), sim::KernelArg::i64v(count)});
  };
  EXPECT_EQ(launch(i64{1} << 32), Status::ErrorLaunchFailure);  // n * n wraps to 0

  ASSERT_EQ(launch(static_cast<i64>(n)), Status::Ok);
  std::vector<float> got(n * n);
  ASSERT_EQ(api.copy_out(got, dc.value()), Status::Ok);
  std::vector<float> want(n * n);
  oracle_matmul(a.data(), b.data(), want.data(), n);
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace gpuvm::workloads
