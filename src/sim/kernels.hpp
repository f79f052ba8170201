// Kernel model: launch geometry, arguments, bodies and cost functions.
//
// A simulated kernel has two independent halves:
//   - a *body*: a host function that computes real results on the (scaled)
//     device buffers, so that swap/migration/checkpoint correctness is
//     verifiable end to end;
//   - a *cost function*: maps the launch configuration (which carries the
//     paper-scale problem geometry) to FLOPs and DRAM traffic, from which
//     the device spec derives the modeled execution time.
// Keeping them separate lets the simulation run paper-sized latencies over
// memory-scaled data.
#pragma once

#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "sim/gpu_spec.hpp"

namespace gpuvm::sim {

struct Dim3 {
  u32 x = 1;
  u32 y = 1;
  u32 z = 1;

  u64 total() const { return static_cast<u64>(x) * y * z; }
  friend bool operator==(const Dim3&, const Dim3&) = default;
};

struct LaunchConfig {
  Dim3 grid;
  Dim3 block;
  u64 shared_mem_bytes = 0;

  u64 total_threads() const { return grid.total() * block.total(); }
  friend bool operator==(const LaunchConfig&, const LaunchConfig&) = default;
};

/// One marshaled kernel argument: a device pointer, a 64-bit scalar, or an
/// access-hint annotation.
///
/// Device pointers come in two kinds: `dev` (the kernel may only read
/// through this argument) and `dev_out` (the kernel writes through it).
/// The distinction is the kernel *write-set* annotation the memory manager
/// uses to mark only output buffers dirty at launch. A launch with no
/// `dev_out` argument is treated as unannotated: every pointer argument is
/// conservatively assumed written (Figure 4's assumption), so existing
/// kernels stay correct without changes. Encoding the annotation as an
/// argument kind keeps the wire and trace formats unchanged (kind byte +
/// 64 payload bits).
///
/// `AccessHint` refines the annotation to byte ranges for the paged memory
/// engine: appended after the real arguments (so body argument indices are
/// untouched), each hint declares that the kernel only touches
/// [offset, offset+length) through pointer argument `arg` -- with `written`
/// set, that it writes that range. The paged engine uploads and dirties
/// only the hinted pages; the entry-granular engine (and unhinted entries)
/// ignore hints entirely, so a wrong hint can only mislead a run that opted
/// into paging. Payload packing: arg index [63:57], written flag [56],
/// offset [55:28], length [27:0] (offsets/lengths cap at 256 MiB, far
/// beyond any scaled simulation buffer).
struct KernelArg {
  enum class Kind : u8 { DevPtr = 0, I64 = 1, F64 = 2, DevPtrOut = 3, AccessHint = 4 };

  Kind kind = Kind::I64;
  u64 bits = 0;

  static KernelArg dev(DevicePtr p) { return {Kind::DevPtr, p}; }
  static KernelArg dev_out(DevicePtr p) { return {Kind::DevPtrOut, p}; }
  static KernelArg i64v(i64 v) { return {Kind::I64, static_cast<u64>(v)}; }
  static KernelArg f64v(double v) {
    KernelArg a{Kind::F64, 0};
    std::memcpy(&a.bits, &v, sizeof v);
    return a;
  }
  static KernelArg access_hint(u64 arg, u64 offset, u64 length, bool written = false) {
    KernelArg a{Kind::AccessHint, 0};
    a.bits = (arg & 0x7f) << 57 | (written ? 1ull << 56 : 0) |
             (offset & 0xfffffff) << 28 | (length & 0xfffffff);
    return a;
  }

  /// A kind byte off the wire names one of the kinds above.
  static bool valid_kind(u8 raw) { return raw <= static_cast<u8>(Kind::AccessHint); }

  /// Any device-pointer kind (read-only or written).
  bool is_dev_ptr() const { return kind == Kind::DevPtr || kind == Kind::DevPtrOut; }
  /// Annotated as written by the kernel.
  bool is_written() const { return kind == Kind::DevPtrOut; }
  bool is_access_hint() const { return kind == Kind::AccessHint; }

  DevicePtr as_ptr() const { return bits; }
  i64 as_i64() const { return static_cast<i64>(bits); }
  double as_f64() const {
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  u64 hint_arg() const { return bits >> 57 & 0x7f; }
  bool hint_written() const { return (bits >> 56 & 1) != 0; }
  u64 hint_offset() const { return bits >> 28 & 0xfffffff; }
  u64 hint_length() const { return bits & 0xfffffff; }

  friend bool operator==(const KernelArg&, const KernelArg&) = default;
};

/// Resolved view a body receives: device-pointer args become writable byte
/// spans into the device's backing store; scalars pass through.
class KernelExecContext {
 public:
  using Resolver = std::function<std::span<std::byte>(DevicePtr)>;

  KernelExecContext(const LaunchConfig& config, std::vector<KernelArg> args,
                    std::vector<std::span<std::byte>> buffers, Resolver resolver = {})
      : config_(config),
        args_(std::move(args)),
        buffers_(std::move(buffers)),
        resolver_(std::move(resolver)) {}

  const LaunchConfig& config() const { return config_; }
  size_t arg_count() const { return args_.size(); }
  const KernelArg& arg(size_t i) const { return args_.at(i); }

  /// Backing bytes of argument i (must be a DevPtr argument). The span
  /// starts at the pointed-to offset and extends to the end of the
  /// allocation, so interior pointers work.
  std::span<std::byte> bytes(size_t i) const { return buffers_.at(i); }

  template <typename T>
  std::span<T> buffer(size_t i) const {
    auto raw = bytes(i);
    return {reinterpret_cast<T*>(raw.data()), raw.size() / sizeof(T)};
  }

  i64 scalar_i64(size_t i) const { return args_.at(i).as_i64(); }
  double scalar_f64(size_t i) const { return args_.at(i).as_f64(); }

  /// Follows a raw device pointer read out of a buffer (nested data
  /// structures). Empty span when the pointer is invalid.
  std::span<std::byte> deref(DevicePtr ptr) const {
    return resolver_ ? resolver_(ptr) : std::span<std::byte>{};
  }

  template <typename T>
  std::span<T> deref_as(DevicePtr ptr) const {
    auto raw = deref(ptr);
    return {reinterpret_cast<T*>(raw.data()), raw.size() / sizeof(T)};
  }

 private:
  LaunchConfig config_;
  std::vector<KernelArg> args_;
  std::vector<std::span<std::byte>> buffers_;  // empty span for scalar args
  Resolver resolver_;
};

using KernelBody = std::function<Status(KernelExecContext&)>;
using KernelCostFn =
    std::function<KernelCost(const LaunchConfig&, const std::vector<KernelArg>&)>;

/// Definition of a kernel implementation, keyed by symbol name. Shared
/// ownership, as the registry holds it, gives a def the identity SimGpu's
/// launch reuse keys on (`weak_from_this`).
struct KernelDef : std::enable_shared_from_this<KernelDef> {
  std::string name;
  KernelBody body;
  KernelCostFn cost;
  /// Kernel dereferences pointers stored inside device buffers. Such
  /// structures must be registered with the runtime API (paper section 1).
  bool uses_nested_pointers = false;
  /// Kernel allocates device memory from device code (CUDA in-kernel
  /// malloc). The paper excludes such applications from sharing and
  /// dynamic scheduling; the runtime pins them.
  bool uses_device_malloc = false;
  /// Running the kernel twice on the same arguments leaves device memory as
  /// running it once does. SimGpu::launch then skips the body of a relaunch
  /// that repeats the last successful run over the same allocations while
  /// none of their bytes has been written since: the body would store the
  /// bytes already there. Only a def owned by a shared_ptr (the registry's
  /// are) is reused. KernelBodies.IdempotentKernelsArePureFunctionsOfTheirInputs
  /// holds every registered kernel that sets it to a stronger property: its
  /// outputs are a function of its inputs alone.
  bool idempotent = false;
};

/// Process-wide registry of kernel implementations, analogous to the pool
/// of device code that fat binaries carry. Thread safe.
class KernelRegistry {
 public:
  /// Registers (or replaces) a kernel implementation.
  void add(KernelDef def);

  /// Looks up by symbol name; nullptr if unknown.
  std::shared_ptr<const KernelDef> find(const std::string& name) const;

  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const KernelDef>> defs_;
};

/// Convenience cost function: `flops_per_thread * threads` compute and
/// `bytes_per_thread * threads` DRAM traffic, both from the launch geometry.
KernelCostFn per_thread_cost(double flops_per_thread, double bytes_per_thread);

}  // namespace gpuvm::sim
