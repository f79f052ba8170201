// Tests for the observability layer (src/obs): trace recorder thread
// safety under vt threads, histogram bucket semantics, Chrome-JSON
// well-formedness, the QueryStats wire round-trip, and the guarantee that
// instrumentation with tracing disabled never allocates.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "common/vt.hpp"
#include "common/wire.hpp"
#include "core/frontend.hpp"
#include "core/runtime.hpp"
#include "cudart/cudart.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/machine.hpp"

// GCC flags every delete of memory from the replacement operator new below
// as mismatched, but both sides are malloc/free-backed.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

// ---- allocation counting (for the disabled-path test) ----------------------
// Replacement global operator new that counts allocations while armed. The
// disabled trace path promises "one relaxed load and a branch" -- zero
// allocations -- and this is the only way to actually check that.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::size_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n ? n : 1);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new[](std::size_t n) { return operator new(n); }
// The nothrow forms must be replaced too: libstdc++'s get_temporary_buffer
// (used by std::stable_sort) allocates through operator new(nothrow), and a
// partial replacement would pair the library's allocator with our free-based
// operator delete -- an alloc/dealloc mismatch under ASan.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace gpuvm {
namespace {

// ---- TraceRecorder ---------------------------------------------------------

TEST(TraceRecorder, ConcurrentRecordingFromVtThreads) {
  vt::Domain dom;
  obs::TraceRecorder rec(dom);
  constexpr int kThreads = 8;
  constexpr int kEach = 400;
  {
    std::vector<vt::Thread> threads;
    {
      vt::HoldGuard hold(dom);  // common virtual start for the batch
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back(dom, [&, t] {
          for (int i = 0; i < kEach; ++i) {
            const vt::TimePoint start = dom.now();
            dom.sleep_for(vt::from_micros(10));
            rec.span("work", "test", obs::kRuntimePid, static_cast<u64>(t), start,
                     dom.now() - start, static_cast<u64>(t));
          }
        });
      }
    }
  }  // joins
  EXPECT_EQ(rec.size(), static_cast<size_t>(kThreads * kEach));
  EXPECT_EQ(rec.dropped(), 0u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads * kEach));
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_ns, events[i].ts_ns) << "events() must be sorted by timestamp";
  }
  for (const auto& ev : events) {
    EXPECT_STREQ(ev.name, "work");
    EXPECT_GT(ev.dur_ns, 0);
  }
}

TEST(TraceRecorder, CapacityTurnsOverflowIntoCountedDrops) {
  vt::Domain dom;
  // Capacity is clamped up to one chunk (4096 events); record past that.
  obs::TraceRecorder rec(dom, /*capacity=*/1);
  constexpr size_t kTotal = 10000;
  obs::TraceEvent ev;
  ev.set_name("e");
  ev.set_cat("test");
  for (size_t i = 0; i < kTotal; ++i) {
    ev.ts_ns = static_cast<i64>(i);
    ev.dur_ns = 1;
    rec.record(ev);
  }
  EXPECT_LE(rec.size(), 4096u);
  EXPECT_GT(rec.dropped(), 0u);
  EXPECT_EQ(rec.size() + rec.dropped(), kTotal);
}

TEST(TraceRecorder, TruncatesOverlongNames) {
  vt::Domain dom;
  obs::TraceRecorder rec(dom);
  const std::string long_name(200, 'x');
  rec.span(long_name, "test", 0, 0, vt::kTimeZero, vt::from_micros(1));
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].name).size(), sizeof(events[0].name) - 1);
}

// ---- Chrome JSON export ----------------------------------------------------

// Minimal JSON syntax checker (objects, arrays, strings, numbers,
// true/false/null). Enough to prove the export is loadable: Perfetto's
// importer starts with exactly this grammar.
class JsonScanner {
 public:
  explicit JsonScanner(const std::string& text) : p_(text.data()), end_(text.data() + text.size()) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return p_ == end_;
  }

 private:
  void skip_ws() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) ++p_;
  }

  bool literal(const char* word) {
    const size_t len = std::strlen(word);
    if (static_cast<size_t>(end_ - p_) < len || std::strncmp(p_, word, len) != 0) return false;
    p_ += len;
    return true;
  }

  bool string() {
    if (p_ >= end_ || *p_ != '"') return false;
    ++p_;
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ >= end_) return false;
      }
      ++p_;
    }
    if (p_ >= end_) return false;
    ++p_;  // closing quote
    return true;
  }

  bool number() {
    const char* start = p_;
    if (p_ < end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    bool digits = false;
    while (p_ < end_ && (std::isdigit(static_cast<unsigned char>(*p_)) || *p_ == '.' ||
                         *p_ == 'e' || *p_ == 'E' || *p_ == '-' || *p_ == '+')) {
      digits = digits || std::isdigit(static_cast<unsigned char>(*p_));
      ++p_;
    }
    return digits && p_ != start;
  }

  bool members(char close, bool with_keys) {
    skip_ws();
    if (p_ < end_ && *p_ == close) {
      ++p_;
      return true;
    }
    while (true) {
      skip_ws();
      if (with_keys) {
        if (!string()) return false;
        skip_ws();
        if (p_ >= end_ || *p_ != ':') return false;
        ++p_;
        skip_ws();
      }
      if (!value()) return false;
      skip_ws();
      if (p_ < end_ && *p_ == ',') {
        ++p_;
        continue;
      }
      if (p_ < end_ && *p_ == close) {
        ++p_;
        return true;
      }
      return false;
    }
  }

  bool value() {
    if (p_ >= end_) return false;
    switch (*p_) {
      case '{': ++p_; return members('}', true);
      case '[': ++p_; return members(']', false);
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  const char* p_;
  const char* end_;
};

TEST(TraceRecorder, ExportsWellFormedChromeJson) {
  vt::Domain dom;
  obs::TraceRecorder rec(dom);
  rec.set_process_name(obs::kRuntimePid, "gpuvm runtime");
  rec.set_process_name(1, "GPU 1 (\"quoted\" \\ model)");  // must be escaped
  rec.set_thread_name(1, obs::kComputeEngineTid, "compute engine");
  rec.span("kernel\nwith\tcontrol", "kernel", 1, obs::kComputeEngineTid, vt::from_micros(5),
           vt::from_micros(10), 7, 4096);
  rec.span("queue-wait", "sched", obs::kRuntimePid, 7, vt::kTimeZero, vt::from_micros(5), 7);
  rec.instant("bind", "sched", obs::kRuntimePid, 7, 7);

  const std::string json = rec.export_chrome_json();
  EXPECT_TRUE(JsonScanner(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete spans
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instants
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // track metadata
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("queue-wait"), std::string::npos);
  // Control characters and quotes in names must come out escaped.
  EXPECT_EQ(json.find("kernel\nwith"), std::string::npos);
  EXPECT_NE(json.find("kernel\\nwith\\tcontrol"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\" \\\\ model"), std::string::npos);
}

// ---- Histogram -------------------------------------------------------------

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds) {
  obs::Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0
  h.observe(1.0);    // bucket 0 (inclusive edge)
  h.observe(1.001);  // bucket 1
  h.observe(10.0);   // bucket 1
  h.observe(100.0);  // bucket 2
  h.observe(101.0);  // overflow
  h.observe(1e12);   // overflow
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 edges + overflow
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 2u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_NEAR(h.sum(), 0.5 + 1.0 + 1.001 + 10.0 + 100.0 + 101.0 + 1e12, 1.0);
}

TEST(Histogram, DefaultEdgesAreSortedAscending) {
  for (auto edges : {obs::default_seconds_edges(), obs::default_bytes_edges()}) {
    ASSERT_FALSE(edges.empty());
    for (size_t i = 1; i < edges.size(); ++i) EXPECT_LT(edges[i - 1], edges[i]);
  }
}

TEST(Registry, ResetKeepsHandlesValid) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("c");
  obs::Histogram& h = reg.histogram("h", obs::default_seconds_edges());
  c.add(3);
  h.observe(0.5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  c.add(1);  // handle still live after reset
  EXPECT_EQ(reg.snapshot().counter_value("c"), 1u);
}

// ---- Snapshot wire round-trip ----------------------------------------------

TEST(Snapshot, EncodeDecodeRoundTrip) {
  obs::MetricsRegistry reg;
  reg.counter("a.count").add(42);
  reg.gauge("b.gauge").set(2.5);
  obs::Histogram& h = reg.histogram("c.hist", obs::default_seconds_edges());
  h.observe(0.002);
  h.observe(5.0);
  const obs::MetricsSnapshot snap = reg.snapshot();

  WireWriter w;
  snap.encode(w);
  WireReader r(w.bytes());
  const auto decoded = obs::MetricsSnapshot::decode(r);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->values.size(), snap.values.size());
  EXPECT_EQ(decoded->counter_value("a.count"), 42u);
  EXPECT_DOUBLE_EQ(decoded->gauge_value("b.gauge"), 2.5);
  const obs::MetricValue* hist = decoded->find("c.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->kind, obs::MetricKind::Histogram);
  EXPECT_EQ(hist->count, 2u);
  EXPECT_DOUBLE_EQ(hist->sum, 5.002);
  EXPECT_EQ(hist->edges.size(), obs::default_seconds_edges().size());
  u64 total = 0;
  for (u64 b : hist->buckets) total += b;
  EXPECT_EQ(total, 2u);
}

// ---- QueryStats over the wire protocol --------------------------------------

TEST(QueryStats, DaemonSnapshotAgreesWithRuntimeStats) {
  obs::metrics().reset();  // the registry is process-global; isolate this test
  vt::Domain dom;
  vt::AttachGuard guard(dom);
  sim::SimMachine machine(dom, sim::SimParams{1});
  machine.add_gpu(sim::test_gpu(8 << 20));

  sim::KernelDef addone;
  addone.name = "t_addone";
  addone.body = [](sim::KernelExecContext& kc) {
    for (auto& v : kc.buffer<float>(0)) v += 1.0f;
    return Status::Ok;
  };
  addone.cost = sim::per_thread_cost(1.0, 4.0);
  machine.kernels().add(addone);

  auto rt = std::make_unique<cudart::CudaRt>(machine, cudart::CudaRtConfig{4 * 1024, 8});
  auto runtime = std::make_unique<core::Runtime>(*rt);

  {
    core::FrontendApi api(runtime->connect());
    ASSERT_TRUE(api.connected());
    ASSERT_EQ(api.register_kernels({"t_addone"}), Status::Ok);
    auto buf = api.malloc(32 * sizeof(float));
    ASSERT_TRUE(buf);
    std::vector<float> data(32, 1.0f);
    ASSERT_EQ(api.copy_in(buf.value(), data), Status::Ok);
    ASSERT_EQ(api.launch("t_addone", {{1, 1, 1}, {32, 1, 1}}, {sim::KernelArg::dev(buf.value())}),
              Status::Ok);
    ASSERT_EQ(api.free(buf.value()), Status::Ok);
  }

  core::FrontendApi api(runtime->connect());
  ASSERT_TRUE(api.connected());
  auto snap = api.query_stats();
  ASSERT_TRUE(snap) << to_string(snap.status());
  const obs::MetricsSnapshot& s = snap.value();

  // The daemon publishes its stats structs right before snapshotting, so
  // the wire copy must agree with the in-process Runtime::stats().
  const core::RuntimeStats stats = runtime->stats();
  EXPECT_EQ(s.gauge_value("stats.runtime.launches"), static_cast<double>(stats.launches));
  EXPECT_EQ(s.gauge_value("stats.runtime.connections"), static_cast<double>(stats.connections));
  EXPECT_GE(s.gauge_value("stats.sched.binds"), 1.0);
  EXPECT_GE(s.counter_value("cudart.calls"), 1u);
  const obs::MetricValue* wait = s.find("sched.queue_wait_seconds");
  ASSERT_NE(wait, nullptr);
  EXPECT_GE(wait->count, 1u);
  EXPECT_FALSE(s.to_text().empty());
}

// ---- Disabled-path guarantees ----------------------------------------------

TEST(DisabledPath, SpanScopeAndCachedHandlesDoNotAllocate) {
  ASSERT_EQ(obs::tracer(), nullptr) << "tracing must be off for this test";
  obs::Counter& counter = obs::metrics().counter("test.disabled_path");      // cached handle,
  obs::Histogram& hist =                                                     // taken before
      obs::metrics().histogram("test.disabled_hist", obs::default_seconds_edges());  // arming

  g_allocs.store(0, std::memory_order_relaxed);
  g_count_allocs.store(true, std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    obs::SpanScope span("kernel", "cat", 1, obs::kComputeEngineTid, 7, 4096);
    span.set_bytes(8192);
    span.set_track(2, obs::kCopyEngineTid);
    counter.add(1);
    hist.observe(0.001 * i);
  }
  g_count_allocs.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0u)
      << "instrumentation with tracing disabled must not allocate";
  EXPECT_EQ(counter.value(), 1000u);
}

}  // namespace
}  // namespace gpuvm
