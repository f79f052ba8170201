#include "obs/span.hpp"

namespace gpuvm::obs {

namespace {

/// Per-thread propagation state. ordinal counts the children this thread
/// opened under the installed context since it was installed; ids derive
/// from it, so they replay bit-identically as long as each thread performs
/// the same instrumented work in the same order (the repo's determinism
/// contract already guarantees exactly that).
struct ThreadTraceState {
  TraceContext ctx;
  u64 ordinal = 0;
};

thread_local ThreadTraceState t_trace;

}  // namespace

u64 mix_ids(u64 a, u64 b) {
  // splitmix64 finalizer over the two halves; bias away from 0 afterwards.
  u64 x = a * 0x9e3779b97f4a7c15ull + b + 0x7f4a7c15ull;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

u64 mint_span_id(u64 trace_id, u64 parent_span, u64 ordinal) {
  return mix_ids(mix_ids(trace_id, parent_span), ordinal);
}

TraceContext current_trace() { return t_trace.ctx; }

void set_current_trace(const TraceContext& ctx) {
  t_trace.ctx = ctx;
  t_trace.ordinal = 0;
}

SpanIds begin_span() {
  if (!t_trace.ctx.valid()) return {};
  SpanIds ids;
  ids.trace_id = t_trace.ctx.trace_id;
  ids.parent = t_trace.ctx.parent_span;
  ids.span = mint_span_id(ids.trace_id, ids.parent, ++t_trace.ordinal);
  t_trace.ctx.parent_span = ids.span;  // children opened next nest under us
  return ids;
}

void end_span(u64 parent) {
  if (t_trace.ctx.valid()) t_trace.ctx.parent_span = parent;
}

ScopedTraceContext::ScopedTraceContext(const TraceContext& ctx, u64* ordinal)
    : prev_(t_trace.ctx), prev_ordinal_(t_trace.ordinal), ordinal_(ordinal) {
  set_current_trace(ctx);
  if (ordinal_ != nullptr) t_trace.ordinal = *ordinal_;
}

ScopedTraceContext::~ScopedTraceContext() {
  if (ordinal_ != nullptr) *ordinal_ = t_trace.ordinal;
  t_trace.ctx = prev_;
  t_trace.ordinal = prev_ordinal_;
}

}  // namespace gpuvm::obs
