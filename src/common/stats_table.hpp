// Stats tables: each layer keeps its counts in one plain struct
// (RuntimeStats, SchedulerStats, MemStats, GpuStats, vt ClockStats), and
// a table of (name, member) beside the struct lists its fields once. The
// table drives both the layer's stats() copy, where the struct is shared
// between threads, and the layer's rows in a QueryStats reply
// ("stats.<layer>.<name>", Runtime::stats_snapshot). Adding a count means
// one struct field and one table row.
//
// Counts that threads bump without a common lock stay plain u64 fields and
// are updated through std::atomic_ref (bump) and copied out the same way
// (load_stats): there is no second struct of atomics to keep in step.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>

#include "common/types.hpp"

namespace gpuvm {

/// One field of stats struct `S`: a u64 count or a double (modeled
/// seconds, a current quantum). Only the reader for the field's own type
/// is instantiated, so a struct of counts has no double read on any path
/// (GCC flags such a dead read as maybe-uninitialized).
template <class S>
struct StatField {
  constexpr StatField(const char* field_name, u64 S::*field)
      : name(field_name), count(field), read(&read_count) {}
  constexpr StatField(const char* field_name, double S::*field)
      : name(field_name), real(field), read(&read_real) {}

  double value(const S& stats) const { return read(stats, *this); }

  const char* name;
  u64 S::*count = nullptr;  ///< null for a double field
  double S::*real = nullptr;
  double (*read)(const S&, const StatField&);

 private:
  static double read_count(const S& s, const StatField& f) {
    return static_cast<double>(s.*f.count);
  }
  static double read_real(const S& s, const StatField& f) { return s.*f.real; }
};

static_assert(std::atomic_ref<u64>::required_alignment == alignof(u64),
              "stats fields are bumped in place through std::atomic_ref");

/// Relaxed atomic add to a count that several threads bump concurrently.
inline void bump(u64& count, u64 delta = 1) {
  std::atomic_ref<u64>(count).fetch_add(delta, std::memory_order_relaxed);
}

/// Copies every count `table` lists from `live`, each with a relaxed atomic
/// load (the counterpart of bump). Other fields stay zero.
template <class S, std::size_t N>
S load_stats(S& live, const std::array<StatField<S>, N>& table) {
  S out{};
  for (const StatField<S>& field : table) {
    if (field.count != nullptr) {
      out.*field.count = std::atomic_ref<u64>(live.*field.count).load(std::memory_order_relaxed);
    }
  }
  return out;
}

}  // namespace gpuvm
