// Causal trace contexts: the cross-process identity of one job's timeline.
//
// A TraceContext is minted once per job at cluster admit (or per tenant in
// the chaos harness) and then *propagated*: installed on the thread that
// drives the job, carried over the wire in the Hello handshake (behind
// protocol caps::kTraceContext), and re-installed on the daemon thread that
// services the connection. Every span or instant recorded while a context
// is installed is stamped with the trace id and its position in the parent/
// child chain, so the flat per-process event streams merge into one causal
// Perfetto timeline: admit -> head-node queue -> offload hop -> destination
// bind -> H2D/launch/D2H -> swap.
//
// Determinism contract: ids are pure hashes of (trace id, parent span,
// per-thread child ordinal) -- no wall clocks, no addresses -- so two runs
// of the same seed mint bit-identical ids and the exported trace diffs
// clean. The per-thread ordinal restarts whenever a context is installed,
// which is itself a deterministic program point.
#pragma once

#include "common/types.hpp"

namespace gpuvm::obs {

/// Compact wire-portable causal identity. trace_id == 0 means "no trace":
/// instrumentation stamps nothing and peers ignore the fields.
struct TraceContext {
  u64 trace_id = 0;
  u64 parent_span = 0;

  bool valid() const { return trace_id != 0; }

  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

/// Deterministic 64-bit mix (splitmix-style) used for trace and span ids.
/// Never returns 0 (0 is the "no trace" sentinel).
u64 mix_ids(u64 a, u64 b);

/// Mints a fresh trace id from stable job identity (seed, job ordinal).
inline u64 mint_trace_id(u64 seed, u64 job) { return mix_ids(seed, job); }

/// Span id of the `ordinal`-th child the current thread opens under
/// (trace_id, parent_span).
u64 mint_span_id(u64 trace_id, u64 parent_span, u64 ordinal);

/// The calling thread's installed context. parent_span tracks the
/// innermost open SpanScope; invalid (trace_id 0) when nothing installed.
TraceContext current_trace();

/// Installs `ctx` on the calling thread and restarts its child ordinal.
void set_current_trace(const TraceContext& ctx);

/// Ids claimed by begin_span(): the new span plus the parent it nests
/// under. trace_id == 0 when no context is installed (record nothing).
struct SpanIds {
  u64 trace_id = 0;
  u64 span = 0;
  u64 parent = 0;
};

/// Claims the next child span id under the thread's context and pushes it
/// as the context's parent (so nested spans chain). Pair with end_span().
SpanIds begin_span();

/// Pops a span pushed by begin_span(), restoring `parent` as the thread's
/// open parent.
void end_span(u64 parent);

/// Installs a context for a scope (job thread, daemon call or connection),
/// restoring the previous context -- and its child ordinal -- on exit.
/// Given `ordinal`, the scope resumes that child ordinal and stores it back
/// on exit: a daemon connection served one call at a time, each on its
/// caller's thread, then mints the ids one thread serving it throughout
/// would, never the same id twice.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx, u64* ordinal = nullptr);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext prev_;
  u64 prev_ordinal_;
  u64* ordinal_;
};

}  // namespace gpuvm::obs
