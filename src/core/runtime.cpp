#include "core/runtime.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
#include <set>
#include <utility>

#include "common/log.hpp"
#include "common/wire.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace gpuvm::core {

using transport::Message;
using transport::Opcode;

namespace {

obs::Histogram& launch_seconds_hist() {
  static obs::Histogram& h =
      obs::metrics().histogram(obs::names::kRuntimeLaunchSeconds, obs::default_seconds_edges());
  return h;
}

/// Appends one gauge per field `table` lists, named `prefix` + the field's
/// name and valued from `stats`: a layer's rows in a QueryStats reply.
template <class S, size_t N>
void append_stat_gauges(std::vector<obs::MetricValue>& rows, const std::string& prefix,
                        const S& stats, const std::array<StatField<S>, N>& table) {
  for (const StatField<S>& field : table) {
    obs::MetricValue& row = rows.emplace_back();
    row.name = prefix + field.name;
    row.kind = obs::MetricKind::Gauge;
    row.gauge = field.value(stats);
  }
}

obs::Histogram& dispatch_lock_wait_hist() {
  static obs::Histogram& h = obs::metrics().histogram(
      obs::names::kRuntimeDispatchLockWaitSeconds, obs::default_seconds_edges());
  return h;
}

obs::Counter& migration_bytes_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kMigrationBytes);
  return c;
}

obs::Counter& migration_precopy_bytes_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kMigrationPrecopyBytes);
  return c;
}

obs::Counter& migration_stop_copy_bytes_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kMigrationStopCopyBytes);
  return c;
}

obs::Histogram& migration_stop_copy_ms_hist() {
  static obs::Histogram& h = obs::metrics().histogram(obs::names::kMigrationStopCopyMs,
                                                      obs::default_seconds_edges());
  return h;
}

// Live migration (migrate_context): pre-copy rounds after the round-0
// image, the delta size at which pre-copy counts as converged, and the
// attempts to catch the connection idle before the stop-and-copy gives up.
constexpr int kMaxPrecopyRounds = 3;
constexpr u64 kStopCopyThresholdBytes = 4096;
constexpr int kMaxQuiesceAttempts = 50;

/// Publishes "a call is in flight" for the quiescence handshake with
/// migrate_context, around the read of `migrated` (both seq_cst). The
/// committer does the mirror image -- stores `migrated`, then requires the
/// count to be zero -- so a racing call either sees the flag (and forwards
/// to the target) or is counted (and the committer rolls back and retries).
/// Retiring the count to zero wakes a quiescing migrator at this exact
/// instant, also when the call throws.
class CallInFlight {
 public:
  explicit CallInFlight(Context& ctx) : ctx_(ctx) {
    ctx_.calls_in_flight.fetch_add(1, std::memory_order_seq_cst);
  }
  ~CallInFlight() {
    if (ctx_.calls_in_flight.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      std::lock_guard<std::mutex> quiesce_lk(ctx_.quiesce_mu);
      ctx_.quiesce_cv.notify_all();
    }
  }
  CallInFlight(const CallInFlight&) = delete;
  CallInFlight& operator=(const CallInFlight&) = delete;

 private:
  Context& ctx_;
};

}  // namespace

/// One connection's state and per-message logic, shared by both drivers:
/// the sink of an in-process channel (connect_with) and the serving thread
/// of any other channel (serve_channel). It awaits the Hello, then serves a
/// context, proxies to a peer daemon or sends load reports until it closes.
/// Calls arrive one at a time; on_close() may arrive from any thread, also
/// re-entrantly from a call that closes its own channel. Whoever lets go of
/// the session last -- the closer, the call in progress or the heartbeat
/// timer -- tears it down, exactly once.
class Runtime::Session {
 public:
  Session(Runtime& rt, std::unique_ptr<transport::MessageChannel> channel)
      : rt_(rt), channel_(std::move(channel)) {}

  /// Joins the serving thread and waits out the teardown of a subscription
  /// that ended inside a tick, then detaches the sink, which waits out a
  /// sender still on its way out of a call, so nothing refers to the session
  /// afterwards.
  ~Session() {
    join_serving_thread();
    vt::Thread ending;
    {
      std::scoped_lock lk(mu_);
      ending = std::move(ending_);
    }
    if (ending.joinable()) ending.join();
    channel_->set_sink({});
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  transport::MessageChannel& channel() { return *channel_; }

  /// Serves the channel on a thread of its own until it closes
  /// (serve_channel, Runtime::mu_ held). The thread's last act marks it
  /// returned.
  void serve_on_thread(vt::Domain& dom) {
    server_ = vt::Thread(dom, [this] {
      while (auto msg = channel_->receive()) {
        deliver(std::move(*msg), vt::kTimeZero);  // receive() slept already
      }
      on_close();
      server_returned_.store(true, std::memory_order_release);
    });
  }

  /// Joins the serving thread, if any. One that has returned is joined
  /// without marking the caller idle, so the clock stays where it is.
  void join_serving_thread() {
    if (!server_.joinable()) return;
    if (server_returned_.load(std::memory_order_acquire)) {
      server_.join_returned();
    } else {
      server_.join();
    }
  }

  /// Finished, and freeing it joins no thread that could still run
  /// (Runtime::mu_ held): a serving thread must have returned. A
  /// subscription that ended inside a tick keeps its teardown thread until
  /// the daemon goes: joining it lets the clock run on while the joiner
  /// waits in real time, so the caller that freed it would resume at an
  /// instant the host chose.
  bool reclaimable() {
    std::scoped_lock lk(mu_);
    return finished_.load(std::memory_order_acquire) && !ending_.joinable() &&
           (!server_.joinable() || server_returned_.load(std::memory_order_acquire));
  }

  /// Serves one request delivered at `at`: the sink sleeps until then (a
  /// serving thread's receive() already has).
  void deliver(Message msg, vt::TimePoint at);

  /// The node's load changed at `now` (Runtime::load_changed, reports_mu_
  /// held): arms the report for the first grid instant strictly after now,
  /// unless one is due sooner or the tick that owns the timer will see it.
  void load_changed_locked(vt::TimePoint now);

  /// The channel closed: tears the session down now, or when the call in
  /// progress lets go of it. A heartbeat timer is cancelled first (waiting
  /// out a running tick), so the closer must hold no lock a tick takes.
  /// Idempotent.
  void on_close();

 private:
  enum class Phase { AwaitHello, Serving, Proxying, Subscribed };

  void on_hello(const Message& msg);
  bool offload(const Message& msg, const transport::HelloPayload& hello, u32 caps);
  void open_context(const transport::HelloPayload& hello, u32 caps);
  void serve(const Message& msg);
  void proxy(Message msg);

  /// Arms the heartbeat timer once the subscribing call's trace scope has
  /// handed the ordinal back; from then on the timer holds the session.
  void start_heartbeat();
  /// One report (the timer's callback, on whichever thread advances the
  /// clock): samples, encodes and sends a LoadReport -- or retransmits a
  /// dropped one at its backoff instant -- and re-arms. A report sent at s
  /// starts a grid s + k * interval: the next report is due one interval on
  /// if the load changed meanwhile, otherwise at the keepalive, s +
  /// keepalive, unless a change pulls it to the first grid instant after
  /// it (load_changed_locked). A change at an instant t is thus reported at
  /// the instant where a report every interval would first have sampled
  /// it: the directory's view is the same at every instant. It never
  /// blocks and takes only leaf locks (vt::Timer's contract).
  void tick();

  /// Starts the grid at `sent`, a report's send instant or the first
  /// snapshot's, and arms the next report: one interval on if the load
  /// changed since the sample, else at the keepalive (reports_mu_ held).
  void schedule_from_locked(vt::TimePoint sent);

  /// Enters and leaves Runtime::reporting_ (idempotent).
  void start_reports();
  void stop_reports();

  /// Closes the channel from the daemon's side; the session ends once the
  /// call in progress returns.
  void close() {
    channel_->close();
    on_close();
  }
  bool enter();
  void leave();
  void teardown();

  Runtime& rt_;
  const std::unique_ptr<transport::MessageChannel> channel_;
  Phase phase_ = Phase::AwaitHello;  // read and written by calls only

  /// The connection's causal identity and its running child ordinal,
  /// installed for every call on whichever thread serves it.
  obs::TraceContext trace_;
  u64 trace_ordinal_ = 0;

  /// Subscribed: the heartbeat timer and what it carries from tick to tick.
  struct Heartbeat {
    Heartbeat(vt::Domain& dom, std::function<void()> tick, ConnectionId conn_,
              vt::Duration interval_, vt::Duration keepalive_)
        : conn(conn_), interval(interval_), keepalive(keepalive_), timer(dom, std::move(tick)) {}

    const ConnectionId conn;
    const vt::Duration interval;
    const vt::Duration keepalive;  ///< longest gap between two reports
    // Guarded by Runtime::reports_mu_ (load_changed_locked reads them).
    bool changed = false;  ///< the load changed since the last sample
    /// The timer is armed on the grid (at `due`), so a change may pull it
    /// earlier: not before start_heartbeat, while a dropped report awaits
    /// its retransmit, or once the subscription ended.
    bool on_grid = false;
    vt::TimePoint anchor{};  ///< send instant of the last report: the grid
    vt::TimePoint due{};     ///< instant the timer is armed for
    // The tick's own.
    /// Queue-wait buckets at the previous report: each report's p50 covers
    /// the waits observed since, not the daemon's lifetime.
    std::vector<u64> prev_waits;
    u64 seq = 0;
    std::optional<Message> report;  ///< dropped on the wire, awaiting a retry
    int drops = 0;                  ///< of `report` so far
    vt::Timer timer;
  };
  std::optional<Heartbeat> heartbeat_;

  /// Serving: the context (shared with other connections in CUDA-4 mode).
  std::shared_ptr<Context> ctx_;
  bool shared_ = false;
  u64 app_id_ = 0;

  /// Proxying: the peer daemon's channel and the span over the whole hop.
  std::unique_ptr<transport::MessageChannel> peer_;
  std::optional<obs::SpanScope> offload_span_;

  std::mutex mu_;  // guards the three below and ending_; never held across a call
  int active_ = 0;  // calls in progress, plus the heartbeat timer
  bool closing_ = false;
  bool timer_holds_ = false;  // the heartbeat timer still counts in active_
  std::atomic<bool> finished_{false};
  /// A subscription that ends inside a tick closes and tears down on this
  /// thread, started at the tick's instant: a tick must not block.
  vt::Thread ending_;
  /// serve_channel's serving thread: set under Runtime::mu_ before any
  /// reclaimable() reads it.
  vt::Thread server_;
  std::atomic<bool> server_returned_{false};  // the serving thread's last store
};

Runtime::Runtime(cudart::CudaRt& rt, RuntimeConfig config)
    : rt_(&rt),
      config_(config),
      mm_(std::make_unique<MemoryManager>(rt, [&config] {
        MemoryManager::Config mc;
        mc.defer_transfers = config.defer_transfers;
        mc.direct_peer_transfers = config.cuda4_semantics;
        mc.async_writeback = config.async_writeback;
        mc.incremental_swap = config.incremental_swap;
        mc.paging = config.paging;
        mc.page_bytes = config.page_bytes;
        mc.eviction_policy = config.eviction_policy;
        mc.prefetch_policy = config.prefetch_policy;
        return mc;
      }())),
      scheduler_(std::make_unique<Scheduler>(rt, *mm_, config.scheduler)),
      drained_cv_(rt.machine().domain()) {
  // vGPUs for the devices installed at startup.
  const auto all = rt_->machine().all_gpus();
  for (size_t i = 0; i < all.size(); ++i) {
    const sim::SimGpu* dev = rt_->machine().gpu(all[i]);
    if (dev != nullptr && dev->healthy()) {
      scheduler_->add_device(static_cast<int>(i), all[i]);
    }
  }
  rt_->machine().subscribe(
      [this](sim::TopologyEvent event, GpuId gpu) { on_topology_event(event, gpu); });
  // The scheduler's quantum pump knows *when* to preempt; the runtime owns
  // *how* (the ContextLock discipline around the swap engine).
  scheduler_->set_preempt_executor([this](ContextId id) { return preempt_context(id); });
  scheduler_->set_load_listener([this] { load_changed(); });
}

Runtime::~Runtime() {
  std::vector<std::unique_ptr<Session>> sessions;
  {
    std::unique_lock lk(mu_);
    shutting_down_ = true;
    sessions.swap(sessions_);
  }
  // Closing every channel tears its session down (a late client send()
  // returns false), ends its serving thread and cancels its heartbeat
  // timer. Sessions are freed only once no thread can use them.
  for (const auto& session : sessions) session->channel().close();
  for (const auto& session : sessions) session->join_serving_thread();
  if (memory_listener_ != 0) rt_->machine().unsubscribe_memory(memory_listener_);
}

void Runtime::on_topology_event(sim::TopologyEvent event, GpuId gpu) {
  switch (event) {
    case sim::TopologyEvent::GpuAdded: {
      const auto all = rt_->machine().all_gpus();
      const auto it = std::find(all.begin(), all.end(), gpu);
      if (it != all.end()) {
        scheduler_->add_device(static_cast<int>(it - all.begin()), gpu);
        log::info("runtime: GPU %llu added, vGPUs spawned",
                  static_cast<unsigned long long>(gpu.value));
      }
      break;
    }
    case sim::TopologyEvent::GpuRemoved:
    case sim::TopologyEvent::GpuFailed:
      scheduler_->remove_device(gpu);
      log::info("runtime: GPU %llu lost, contexts will recover onto surviving devices",
                static_cast<unsigned long long>(gpu.value));
      break;
  }
}

std::unique_ptr<transport::MessageChannel> Runtime::connect() {
  return connect_with(transport::ChannelCosts::local_socket());
}

std::unique_ptr<transport::MessageChannel> Runtime::connect_with(
    transport::ChannelCosts costs) {
  auto [client_end, server_end] = transport::make_local_pair(rt_->machine().domain(), costs);
  std::vector<std::unique_ptr<Session>> finished;
  Session* session = nullptr;
  {
    std::unique_lock lk(mu_);
    session = open_session_locked(std::move(server_end), finished);
  }
  finished.clear();  // outside mu_: each detaches its sink first
  if (session != nullptr) {
    // Served on the sending thread: the client's send() runs the request at
    // its delivery instant and returns once the reply is queued.
    session->channel().set_sink([session](std::optional<Message> msg, vt::TimePoint at) {
      if (msg.has_value()) {
        session->deliver(std::move(*msg), at);
      } else {
        session->on_close();
      }
    });
  }
  return std::move(client_end);
}

void Runtime::serve_channel(std::unique_ptr<transport::MessageChannel> channel) {
  std::vector<std::unique_ptr<Session>> finished;  // freed after lk, outside mu_
  std::unique_lock lk(mu_);
  Session* session = open_session_locked(std::move(channel), finished);
  if (session != nullptr) session->serve_on_thread(rt_->machine().domain());
}

Runtime::Session* Runtime::open_session_locked(
    std::unique_ptr<transport::MessageChannel> channel,
    std::vector<std::unique_ptr<Session>>& finished) {
  const auto open = std::partition(sessions_.begin(), sessions_.end(),
                                   [](const auto& s) { return !s->reclaimable(); });
  finished.insert(finished.end(), std::make_move_iterator(open),
                  std::make_move_iterator(sessions_.end()));
  sessions_.erase(open, sessions_.end());
  if (shutting_down_) {
    channel->close();
    return nullptr;
  }
  ++open_connections_;
  bump(stats_.connections);
  sessions_.push_back(std::make_unique<Session>(*this, std::move(channel)));
  return sessions_.back().get();
}

void Runtime::set_offload_peer(
    std::function<std::unique_ptr<transport::MessageChannel>()> factory) {
  std::unique_lock lk(mu_);
  peer_factory_ = std::move(factory);
}

int Runtime::load() const {
  const int active = static_cast<int>(contexts_.size());
  return std::max(scheduler_->waiting_count(), active - scheduler_->vgpu_count());
}

void Runtime::set_node_identity(u64 id) { node_id_ = id; }

void Runtime::load_changed() {
  // A subscription registers before its first snapshot is sampled, so a
  // change made after that sample finds it here. (A change racing the
  // registration on another thread may read a stale false: the next
  // keepalive carries it.)
  if (!any_reporting_.load(std::memory_order_relaxed)) return;
  const vt::TimePoint now = rt_->machine().domain().now();
  std::scoped_lock lk(reports_mu_);
  for (Session* session : reporting_) session->load_changed_locked(now);
}

transport::LoadSnapshot Runtime::load_snapshot() const {
  // Heartbeat ticks call this on whichever thread advances the clock, which
  // may hold the scheduler's mu_ or this daemon's mu_ inside a wait: every
  // read below is atomic or under a leaf lock (the scheduler's published
  // counts, the context table's shards, the machine's and devices' locks).
  const Scheduler::LoadCounts counts = scheduler_->load_counts();
  transport::LoadSnapshot snap;
  snap.node = node_id_;
  snap.vt_ns = rt_->machine().domain().now().count();
  snap.pending_contexts = counts.waiting;
  snap.bound_contexts = counts.bound;
  snap.active_contexts = static_cast<int>(contexts_.size());
  snap.vgpu_count = counts.vgpus;
  const obs::Histogram& waits = scheduler_->queue_wait_local();
  snap.queue_wait_p50_seconds =
      obs::histogram_quantile(waits.edges(), waits.bucket_counts(), 0.5);
  for (const Scheduler::DeviceSlots& slots : counts.devices) {
    transport::DeviceLoad dev;
    dev.gpu = slots.gpu.value;
    dev.vgpus = slots.vgpus;
    dev.bound = slots.bound;
    if (const sim::SimGpu* gpu = rt_->machine().gpu(slots.gpu); gpu != nullptr) {
      dev.free_bytes = gpu->free_bytes();
      dev.total_bytes = gpu->capacity_bytes();
    }
    snap.devices.push_back(dev);
  }
  // Tenant table (gpuvm_top): reads only immutable ids and atomic state --
  // a context mid-construction or mid-teardown snapshots race-free. Sorted
  // so snapshots are independent of shard hashing.
  contexts_.for_each([&](const ContextId& id, const std::shared_ptr<Context>& ctx) {
    if (ctx == nullptr) return;
    transport::TenantLoad tenant;
    tenant.ctx = id.value;
    tenant.state = static_cast<i32>(ctx->state.load(std::memory_order_acquire));
    snap.tenants.push_back(tenant);
  });
  std::sort(snap.tenants.begin(), snap.tenants.end(),
            [](const transport::TenantLoad& a, const transport::TenantLoad& b) {
              return a.ctx < b.ctx;
            });
  return snap;
}

RuntimeStats Runtime::stats() const { return load_stats(stats_, kRuntimeStatsFields); }

void Runtime::timed_lock(ContextLock& lk) const {
  if (lk.try_lock()) return;
  bump(stats_.dispatch_lock_contended);
  vt::StopWatch watch(rt_->machine().domain());
  lk.lock();
  dispatch_lock_wait_hist().observe(watch.elapsed_seconds());
}

std::unique_lock<ContextLock> Runtime::lock_context(ContextLock& lk) const {
  timed_lock(lk);
  return std::unique_lock<ContextLock>(lk, std::adopt_lock);
}

obs::MetricsSnapshot Runtime::stats_snapshot() const {
  obs::MetricsSnapshot snap = obs::metrics().snapshot();
  std::vector<obs::MetricValue>& rows = snap.values;
  append_stat_gauges(rows, obs::names::kStatsRuntimePrefix, stats(), kRuntimeStatsFields);
  append_stat_gauges(rows, obs::names::kStatsSchedPrefix, scheduler_->stats(),
                     kSchedulerStatsFields);
  append_stat_gauges(rows, obs::names::kStatsMmPrefix, mm_->stats(), kMemStatsFields);
  append_stat_gauges(rows, obs::names::kStatsVtPrefix, rt_->machine().domain().clock_stats(),
                     vt::kClockStatsFields);
  for (const GpuId gpu : rt_->machine().all_gpus()) {
    const sim::SimGpu* dev = rt_->machine().gpu(gpu);
    if (dev == nullptr) continue;
    append_stat_gauges(rows, obs::names::kStatsGpuPrefix + std::to_string(gpu.value) + ".",
                       dev->stats(), sim::kGpuStatsFields);
  }
  std::sort(rows.begin(), rows.end(), [](const obs::MetricValue& a, const obs::MetricValue& b) {
    return a.name < b.name;
  });
  return snap;
}

void Runtime::drain() {
  // Callers are usually unattached (test mains, tools). Parking on a vt
  // condition variable must be accounted against the domain -- an idle wait
  // from an unattached thread would push the running count negative and
  // freeze the clock, deadlocking the very connections being waited on.
  // A heartbeat subscription never finishes on its own: close it first
  // (NodeDirectory::stop), which tears it down on the closing thread.
  std::optional<vt::AttachGuard> attach;
  if (vt::Domain::current() == nullptr) attach.emplace(rt_->machine().domain());
  std::unique_lock lk(mu_);
  drained_cv_.wait(lk, [&] { return open_connections_ == 0; });
}

std::shared_ptr<Context> Runtime::find_context(ContextId id) {
  return contexts_.find(id);
}

bool Runtime::Session::enter() {
  std::scoped_lock lk(mu_);
  if (closing_) return false;
  ++active_;
  return true;
}

void Runtime::Session::leave() {
  {
    std::scoped_lock lk(mu_);
    if (--active_ > 0 || !closing_) return;
  }
  teardown();
}

void Runtime::Session::on_close() {
  bool heartbeat = false;
  {
    std::scoped_lock lk(mu_);
    if (closing_) return;
    closing_ = true;
    heartbeat = timer_holds_;
    if (!heartbeat && active_ > 0) return;  // the call in progress tears down
  }
  if (!heartbeat) {
    teardown();
    return;
  }
  // Outside mu_, which a running tick takes: once no change can re-arm the
  // timer, wait out a running tick and disarm, then let go of the session
  // for the timer -- unless that tick ended the subscription and handed the
  // teardown to ending_ already.
  stop_reports();
  heartbeat_->timer.cancel();
  {
    std::scoped_lock lk(mu_);
    if (!std::exchange(timer_holds_, false)) return;
  }
  leave();
}

void Runtime::Session::deliver(Message msg, vt::TimePoint at) {
  if (!enter()) return;  // closing: a late request gets no reply
  rt_.rt_->machine().domain().sleep_until(at);
  // Once subscribed, the heartbeat timer owns the connection (and its trace
  // ordinal): nothing else is spoken.
  if (phase_ != Phase::Subscribed) {
    const ConnectionId conn = msg.connection;
    // Last line of defence: a call that throws must take down neither the
    // daemon nor -- served inline -- the client's own send(). It gets an
    // ErrorProtocol reply and the connection closes.
    const auto refuse = [&](const char* what) {
      log::warn("runtime: a call threw (%s), closing the connection", what);
      channel_->send(transport::make_reply(conn, Status::ErrorProtocol));
      close();
    };
    try {
      obs::ScopedTraceContext scoped_trace(trace_, &trace_ordinal_);
      if (phase_ == Phase::AwaitHello) {
        on_hello(msg);
      } else if (phase_ == Phase::Proxying) {
        proxy(std::move(msg));
      } else {
        serve(msg);
      }
    } catch (const std::exception& e) {
      refuse(e.what());
    } catch (...) {
      refuse("unknown exception");
    }
    if (phase_ == Phase::Subscribed) start_heartbeat();
  }
  leave();
}

void Runtime::Session::on_hello(const Message& msg) {
  if (msg.op != Opcode::Hello) {
    close();
    return;
  }
  // Protocol handshake: reject pre-handshake (v1) or incompatible peers
  // with a clean ErrorProtocolMismatch instead of misparsing their frames.
  auto hello = transport::decode_hello(msg.payload);
  if (!hello) {
    channel_->send(transport::make_reply(msg.connection, hello.status()));
    log::info("runtime: rejected peer with incompatible handshake (%s)",
              to_string(hello.status()));
    close();
    return;
  }
  // Negotiated capability set: what both sides speak (caps_mask lets tests
  // and deployments emulate an older daemon by withholding bits).
  const u32 caps = hello->caps & protocol::caps::kAll & rt_.config_.caps_mask;

  // Causal trace propagation: when both sides speak kTraceContext, the
  // client's trace identity is installed for every call of the connection
  // -- every span/instant recorded while serving it joins the job's
  // cross-process timeline. Without the bit (masked daemon, old peer) the
  // fields are ignored and events stay unstamped.
  if ((caps & protocol::caps::kTraceContext) != 0 && hello->trace_id != 0) {
    trace_ = obs::TraceContext{hello->trace_id, hello->parent_span};
  }
  obs::set_current_trace(trace_);  // the call's scope stores the ordinal back
  if (offload(msg, *hello, caps)) return;
  open_context(*hello, caps);
  transport::HelloReply hr;
  hr.context_id = ctx_->id.value;
  hr.caps = ctx_->caps.load(std::memory_order_acquire);
  channel_->send(transport::make_reply(msg.connection, Status::Ok,
                                       transport::encode_hello_reply(hr)));
}

bool Runtime::Session::offload(const Message& msg, const transport::HelloPayload& hello,
                               u32 caps) {
  // Inter-node offloading: if this node is overloaded and a peer exists,
  // the whole connection is proxied there (section 4.7). Only the CUDA
  // calls move; the application's CPU phases stay where the job runs. A
  // connection already forwarded from a peer is never shed again
  // (prevents offload ping-pong between mutually overloaded nodes).
  std::function<std::unique_ptr<transport::MessageChannel>()> factory;
  {
    std::unique_lock lk(rt_.mu_);
    factory = rt_.peer_factory_;
  }
  if (hello.forwarded || (caps & protocol::caps::kOffload) == 0 || !factory ||
      rt_.config_.offload_threshold < 0 || rt_.load() < rt_.config_.offload_threshold) {
    return false;
  }
  // A mesh factory may *decline* (the directory's hysteresis found no
  // suitable peer): nullptr on the first call means "serve locally by
  // choice", which is not an offload fallback -- no counter, no log.
  auto first = factory();
  if (first == nullptr) return false;
  // The peer handshake runs over a ReconnectingChannel seeded with the
  // already-open channel: a forwarded Hello lost to a broken link is resent
  // on a fresh channel. Once a session is established, a mid-session break
  // surfaces to the client as a closed connection (the proxy carries no
  // replayable state).
  auto seed = std::make_shared<std::unique_ptr<transport::MessageChannel>>(std::move(first));
  auto peer = std::make_unique<transport::ReconnectingChannel>([seed, factory]() {
    if (*seed != nullptr) return std::move(*seed);
    return factory();
  });
  if (!peer->closed()) {
    // Offload session span: covers the whole proxied connection. Its span
    // id replaces the forwarded Hello's parent, so the destination daemon's
    // spans nest under the hop in the merged cluster trace.
    offload_span_.emplace("offload-session", "offload", obs::kRuntimePid,
                          obs::kOffloadTidBase + msg.connection.value);
    const u64 span = offload_span_->span_id();
    Message fwd = msg;
    transport::HelloPayload fwd_hello = hello;
    fwd_hello.forwarded = true;  // the peer must not shed it again
    if (span != 0) fwd_hello.parent_span = span;
    fwd.payload = transport::encode_hello(fwd_hello);
    if (peer->send(std::move(fwd))) {
      if (auto reply = peer->receive(); reply.has_value()) {
        if (trace_.valid()) {
          // Destination without kTraceContext ignores the forwarded trace;
          // annotate the causal gap so the merged trace says why the remote
          // half is missing.
          auto hr = transport::decode_hello_reply(transport::reply_payload(*reply));
          if (hr.has_value() && (hr->caps & protocol::caps::kTraceContext) == 0) {
            obs::emit_instant("trace-gap: offload peer lacks kTraceContext", "trace",
                              obs::kRuntimePid, obs::kOffloadTidBase + msg.connection.value);
          }
        }
        bump(rt_.stats_.offloaded_connections);
        // Every later call relays under the session span.
        if (span != 0) trace_.parent_span = span;
        peer_ = std::move(peer);
        phase_ = Phase::Proxying;
        channel_->send(std::move(*reply));
        return true;
      }
    }
    offload_span_.reset();
  }
  peer->close();
  // Peer unreachable: degrade gracefully by servicing the connection
  // locally instead of abandoning the application.
  bump(rt_.stats_.offload_fallbacks);
  log::info("runtime: offload peer unreachable, serving connection locally");
  return false;
}

void Runtime::Session::open_context(const transport::HelloPayload& hello, u32 caps) {
  // Local servicing: create the context -- or, in CUDA 4 mode, join the
  // application's shared context ("all threads belonging to the same
  // application are mapped onto the same CUDA context", section 4.8).
  app_id_ = hello.app_id;
  shared_ = rt_.config_.cuda4_semantics && app_id_ != 0;
  bool fresh = true;
  if (shared_) {
    std::unique_lock lk(rt_.mu_);
    const auto it = rt_.app_contexts_.find(app_id_);
    if (it != rt_.app_contexts_.end()) {
      ctx_ = it->second;
      ctx_->connection_refs.fetch_add(1, std::memory_order_acq_rel);
      // The shared context speaks the intersection of all its connections.
      ctx_->caps.fetch_and(caps, std::memory_order_acq_rel);
      fresh = false;
    } else {
      const ContextId id{rt_.next_context_.fetch_add(1, std::memory_order_relaxed)};
      ctx_ = std::make_shared<Context>(id, rt_.rt_->machine().domain());
      rt_.contexts_.emplace(id, ctx_);
      rt_.app_contexts_.emplace(app_id_, ctx_);
    }
  } else {
    const ContextId id{rt_.next_context_.fetch_add(1, std::memory_order_relaxed)};
    ctx_ = std::make_shared<Context>(id, rt_.rt_->machine().domain());
    rt_.contexts_.emplace(id, ctx_);
  }
  phase_ = Phase::Serving;
  if (!fresh) return;
  Context& ctx = *ctx_;
  if (obs::TraceRecorder* tr = obs::tracer()) {
    tr->set_thread_name(obs::kRuntimePid, ctx.id.value, "ctx " + std::to_string(ctx.id.value));
  }
  obs::emit_instant("connect", "conn", obs::kRuntimePid, ctx.id.value, ctx.id.value);
  rt_.mm_->add_context(ctx.id);
  ctx.arrival = rt_.rt_->machine().domain().now();
  ctx.job_cost_hint_seconds = hello.job_cost_hint_seconds;
  ctx.deadline_seconds = hello.deadline_seconds;
  ctx.app_id = app_id_;
  // Remember the trace identity: a later migration of this context
  // re-propagates it to the target so the job's timeline stays one trace.
  if (trace_.valid()) {
    ctx.trace_id = trace_.trace_id;
    ctx.parent_span = trace_.parent_span;
  }
  ctx.caps.store(caps, std::memory_order_release);
  ctx.state.store(ContextState::Detached, std::memory_order_release);
  rt_.load_changed();  // the table grew by this context
  // Shared contexts have several channels; the idle probe used by
  // inter-application swap only applies to exclusive contexts.
  if (!shared_) ctx.channel.store(channel_.get(), std::memory_order_release);
}

void Runtime::Session::serve(const Message& msg) {
  Context& ctx = *ctx_;
  if (msg.op == Opcode::Goodbye) {
    // A migrated context's teardown must reach the target too, or its
    // replica would linger there forever.
    if (ctx.migrated.load(std::memory_order_seq_cst)) {
      (void)rt_.forward_migrated(ctx, *channel_, msg);
    }
    channel_->send(transport::make_reply(msg.connection, Status::Ok));
    close();
    return;
  }
  if (msg.op == Opcode::QueryLoad) {
    // Handled outside handle(): a subscription (interval > 0) takes over
    // the connection -- the daemon streams LoadReport frames on it until
    // it closes, and nothing else is spoken.
    if ((ctx.caps.load(std::memory_order_acquire) & protocol::caps::kQueryLoad) == 0) {
      channel_->send(transport::make_reply(msg.connection, Status::ErrorNotSupported));
      return;
    }
    const auto request = transport::decode_query_load(msg.payload);
    if (!request) {
      channel_->send(transport::make_reply(msg.connection, request.status()));
      return;
    }
    if (request->interval_ns > 0) {
      phase_ = Phase::Subscribed;
      heartbeat_.emplace(rt_.rt_->machine().domain(), [this] { tick(); }, msg.connection,
                         vt::Duration(request->interval_ns), vt::Duration(request->keepalive_ns));
      start_reports();  // before the first snapshot: a later change is reported
    }
    channel_->send(transport::make_reply(msg.connection, Status::Ok,
                                         transport::encode_load(rt_.load_snapshot())));
    return;
  }
  Message out = [&] {
    CallInFlight in_flight(ctx);
    return ctx.migrated.load(std::memory_order_seq_cst) ? rt_.forward_migrated(ctx, *channel_, msg)
                                                        : rt_.handle(ctx, *channel_, msg);
  }();
  channel_->send(std::move(out));
}

void Runtime::Session::proxy(Message msg) {
  // Strict request/reply: each call relays one message and its reply.
  const bool goodbye = msg.op == Opcode::Goodbye;
  obs::SpanScope hop("offload-hop", "offload", obs::kRuntimePid,
                     obs::kOffloadTidBase + msg.connection.value, 0, msg.payload.size());
  std::optional<Message> reply;
  if (peer_->send(std::move(msg))) reply = peer_->receive();
  if (!reply.has_value()) {
    close();
    return;
  }
  channel_->send(std::move(*reply));
  if (goodbye) close();
}

void Runtime::Session::start_heartbeat() {
  Heartbeat& hb = *heartbeat_;
  hb.prev_waits = rt_.scheduler_->queue_wait_local().bucket_counts();
  std::scoped_lock lk(mu_);
  if (closing_) return;  // closed during the subscribing call: leave() tears down
  ++active_;
  timer_holds_ = true;
  std::scoped_lock reports_lk(rt_.reports_mu_);
  schedule_from_locked(rt_.rt_->machine().domain().now());  // the first snapshot's instant
}

void Runtime::Session::schedule_from_locked(vt::TimePoint sent) {
  Heartbeat& hb = *heartbeat_;
  hb.anchor = sent;
  hb.due = sent + (hb.changed ? hb.interval : hb.keepalive);
  hb.on_grid = true;
  hb.timer.arm(hb.due);
}

void Runtime::Session::start_reports() {
  // Outside reports_mu_, which a memory listener takes under the machine's
  // memory lock.
  std::call_once(rt_.memory_hook_, [&rt = rt_] {
    rt.memory_listener_ = rt.rt_->machine().subscribe_memory([&rt] { rt.load_changed(); });
  });
  std::scoped_lock lk(rt_.reports_mu_);
  rt_.reporting_.push_back(this);
  rt_.any_reporting_.store(true, std::memory_order_relaxed);
}

void Runtime::Session::stop_reports() {
  std::scoped_lock lk(rt_.reports_mu_);
  std::erase(rt_.reporting_, this);
  rt_.any_reporting_.store(!rt_.reporting_.empty(), std::memory_order_relaxed);
}

void Runtime::Session::load_changed_locked(vt::TimePoint now) {
  Heartbeat& hb = *heartbeat_;
  if (std::exchange(hb.changed, true) || !hb.on_grid) return;
  const i64 steps = std::max<i64>((now - hb.anchor) / hb.interval, 0) + 1;
  const vt::TimePoint at = hb.anchor + hb.interval * steps;
  if (at < hb.due) {
    hb.due = at;
    hb.timer.arm(at);
  }
}

void Runtime::Session::tick() {
  using Outcome = transport::MessageChannel::SendAttempt::Outcome;
  Heartbeat& hb = *heartbeat_;
  vt::Domain& dom = rt_.rt_->machine().domain();
  transport::MessageChannel::SendAttempt attempt{Outcome::Closed};
  if (hb.report.has_value() || !channel_->closed()) {
    // Scoped to the send: the teardown below reads the ordinal back.
    obs::ScopedTraceContext scoped_trace(trace_, &trace_ordinal_);
    if (!hb.report.has_value()) {
      {
        // A change from here on goes into the next report.
        std::scoped_lock lk(rt_.reports_mu_);
        hb.changed = false;
      }
      transport::LoadSnapshot snap = rt_.load_snapshot();
      snap.seq = ++hb.seq;
      const obs::Histogram& waits = rt_.scheduler_->queue_wait_local();
      std::vector<u64> now_waits = waits.bucket_counts();
      snap.queue_wait_p50_seconds =
          obs::histogram_quantile_delta(waits.edges(), now_waits, hb.prev_waits, 0.5);
      hb.prev_waits = std::move(now_waits);
      hb.report.emplace();
      hb.report->op = Opcode::LoadReport;
      hb.report->connection = hb.conn;
      hb.report->payload = transport::encode_load(snap);
      hb.drops = 0;
    }
    attempt = channel_->try_send(*hb.report, hb.drops);
  }
  if (attempt.outcome == Outcome::Sent) {
    hb.report.reset();
    std::scoped_lock lk(rt_.reports_mu_);
    schedule_from_locked(dom.now());
  } else if (attempt.outcome == Outcome::Dropped) {
    std::scoped_lock lk(rt_.reports_mu_);
    hb.on_grid = false;
    hb.due = dom.now() + attempt.backoff;
    hb.timer.arm(hb.due);  // the retransmit, same report
  } else {
    // The subscription ended. Closing and tearing down wait in virtual
    // time, so a thread started at this instant does both.
    stop_reports();
    std::scoped_lock lk(mu_);
    if (!std::exchange(timer_holds_, false)) return;  // a closer took over
    ending_ = vt::Thread(dom, [this] {
      close();
      leave();
    });
  }
}

void Runtime::Session::teardown() {
  {
    // The closing thread may be unattached (a test's main thread, ~Runtime),
    // and the context lock below waits in virtual time.
    std::optional<vt::AttachGuard> attach;
    if (vt::Domain::current() == nullptr) attach.emplace(rt_.rt_->machine().domain());
    obs::ScopedTraceContext scoped_trace(trace_, &trace_ordinal_);
    if (heartbeat_.has_value()) stop_reports();  // subscribed, maybe never started
    if (peer_ != nullptr) {
      offload_span_.reset();
      peer_->close();
    }
    // The last connection of the context releases its binding and frees
    // its memory (a shared CUDA 4 context outlives individual threads).
    if (ctx_ != nullptr && ctx_->connection_refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Context& ctx = *ctx_;
      rt_.scheduler_->release(ctx);
      {
        std::scoped_lock ctx_lock(ctx.lock);
        ctx.channel.store(nullptr, std::memory_order_release);
        // A migrated context's memory left with the commit; remove_context
        // tolerates the second call. The forwarding channel closes here --
        // the target sees the disconnect and tears the replica down.
        if (ctx.fwd != nullptr) {
          ctx.fwd->close();
          ctx.fwd.reset();
        }
        rt_.mm_->remove_context(ctx.id);
      }
      ctx.state.store(ContextState::Done, std::memory_order_release);
      obs::emit_instant("disconnect", "conn", obs::kRuntimePid, ctx.id.value, ctx.id.value);
      rt_.contexts_.take(ctx.id);
      rt_.load_changed();
      if (shared_) {
        std::unique_lock lk(rt_.mu_);
        rt_.app_contexts_.erase(app_id_);
      }
    }
    channel_->close();
    std::unique_lock lk(rt_.mu_);
    --rt_.open_connections_;
    rt_.drained_cv_.notify_all();
  }
  // Last: once finished, the session may be freed under any caller.
  finished_.store(true, std::memory_order_release);
}

Message Runtime::forward_migrated(Context& ctx, transport::MessageChannel& channel,
                                  const Message& msg) {
  {
    const auto ctx_lock = lock_context(ctx.lock);
    if (ctx.migrated.load(std::memory_order_seq_cst) && ctx.fwd != nullptr) {
      obs::SpanScope hop("migrate-hop", "migrate", obs::kRuntimePid,
                        obs::kOffloadTidBase + ctx.id.value, ctx.id.value,
                        msg.payload.size());
      Message copy = msg;
      if (!ctx.fwd->send(std::move(copy))) {
        return transport::make_reply(msg.connection, Status::ErrorConnectionClosed);
      }
      auto reply = ctx.fwd->receive();
      if (!reply.has_value()) {
        return transport::make_reply(msg.connection, Status::ErrorConnectionClosed);
      }
      reply->connection = msg.connection;
      return std::move(*reply);
    }
  }
  // The migration rolled back between the caller's flag check and the lock
  // acquisition: serve locally. handle() takes ctx.lock itself for memory
  // ops, so it must run with the lock released.
  return handle(ctx, channel, msg);
}

Status Runtime::apply_migrate_chunk(Context& ctx, const Message& msg) {
  auto chunk = transport::decode_migrate_chunk(msg.payload);
  if (!chunk) return chunk.status();
  if (chunk->round == 0) return mm_->import_image(ctx.id, chunk->image);
  return mm_->apply_migration_delta(ctx.id, chunk->image);
}

Status Runtime::apply_migrate_resume(Context& ctx, const Message& msg) {
  auto resume = transport::decode_migrate_resume(msg.payload);
  if (!resume) return resume.status();
  for (const transport::MigrateArg& arg : resume->pending_args) {
    if (!sim::KernelArg::valid_kind(arg.kind)) return Status::ErrorProtocol;
  }
  if (!resume->delta.empty()) {
    const Status s = mm_->apply_migration_delta(ctx.id, resume->delta);
    if (!ok(s)) return s;
  }
  // Execution state: registered symbols, module handles, and any half-built
  // launch (ConfigureCall + SetupArguments without the Launch yet).
  for (const transport::MigrateFunction& fn : resume->functions) {
    ctx.functions[fn.handle] = fn.name;
  }
  for (const u64 module : resume->modules) ctx.modules.insert(module);
  ctx.next_module = std::max(ctx.next_module, resume->next_module);
  ctx.pinned = ctx.pinned || resume->pinned;
  ctx.gpu_time_used_seconds += resume->gpu_time_used_seconds;
  if (resume->has_pending_config) {
    if (resume->pending_config.size() != sizeof(sim::LaunchConfig)) {
      return Status::ErrorProtocol;
    }
    sim::LaunchConfig config;
    std::memcpy(&config, resume->pending_config.data(), sizeof(config));
    ctx.pending_config = config;
    ctx.pending_args.clear();
    for (const transport::MigrateArg& arg : resume->pending_args) {
      sim::KernelArg ka;
      ka.kind = static_cast<sim::KernelArg::Kind>(arg.kind);
      ka.bits = arg.bits;
      ctx.pending_args.push_back(ka);
    }
  }
  bump(stats_.migrations_in);
  obs::emit_instant("migrate-resume", "migrate", obs::kRuntimePid, ctx.id.value,
                    ctx.id.value);
  log::info("runtime: resumed migrated ctx %llu (%zu entries of delta)",
            static_cast<unsigned long long>(ctx.id.value), resume->delta.size());
  return Status::Ok;
}

StatusOr<MigrationReport> Runtime::migrate_context(
    ContextId id, const std::function<std::unique_ptr<transport::MessageChannel>()>& factory) {
  vt::Domain& dom = rt_->machine().domain();
  // Callable from unattached threads (tests, tools): channel costs and the
  // quiesce backoff sleep in virtual time, which must be accounted.
  std::optional<vt::AttachGuard> attach;
  if (vt::Domain::current() == nullptr) attach.emplace(dom);

  const auto refuse = [&](Status s) -> StatusOr<MigrationReport> {
    bump(stats_.migrations_refused);
    return s;
  };

  std::shared_ptr<Context> ctx = find_context(id);
  if (ctx == nullptr) return Status::ErrorInvalidValue;
  // Pinned contexts are excluded from dynamic scheduling (in-kernel malloc:
  // device state the swap image cannot capture); shared CUDA-4 contexts
  // have several connections to quiesce at once -- both stay put.
  if (ctx->pinned) return refuse(Status::ErrorNotSupported);
  if (ctx->connection_refs.load(std::memory_order_acquire) > 1) {
    return refuse(Status::ErrorNotSupported);
  }
  if (ctx->migrated.load(std::memory_order_seq_cst)) {
    return refuse(Status::ErrorNotSupported);
  }

  // Join the job's causal trace: the migration session span parents both
  // the local shipping spans and (via the forwarded Hello) the target's.
  obs::TraceContext trace;
  if (ctx->trace_id != 0) trace = obs::TraceContext{ctx->trace_id, ctx->parent_span};
  obs::ScopedTraceContext scoped_trace(trace);
  obs::SpanScope session("migrate-session", "migrate", obs::kRuntimePid,
                         obs::kOffloadTidBase + id.value, id.value);

  std::unique_ptr<transport::MessageChannel> peer = factory ? factory() : nullptr;
  if (peer == nullptr) return refuse(Status::ErrorNotSupported);

  // Handshake with the target daemon. `forwarded` stops it from shedding or
  // re-migrating the incoming job (no migration ping-pong).
  const ConnectionId conn{id.value};
  {
    transport::HelloPayload hello;
    hello.version = protocol::kProtocolVersion;
    hello.caps = protocol::caps::kAll & config_.caps_mask;
    hello.job_cost_hint_seconds = ctx->job_cost_hint_seconds;
    hello.forwarded = true;
    hello.deadline_seconds = ctx->deadline_seconds;
    hello.trace_id = ctx->trace_id;
    hello.parent_span = session.span_id() != 0 ? session.span_id() : ctx->parent_span;
    transport::Message m;
    m.op = Opcode::Hello;
    m.connection = conn;
    m.payload = transport::encode_hello(hello);
    if (!peer->send(std::move(m))) return refuse(Status::ErrorConnectionClosed);
  }
  u32 peer_caps = 0;
  {
    auto reply = peer->receive();
    if (!reply.has_value() || !ok(transport::reply_status(*reply))) {
      return refuse(Status::ErrorConnectionClosed);
    }
    auto hr = transport::decode_hello_reply(transport::reply_payload(*reply));
    if (!hr.has_value()) return refuse(Status::ErrorProtocol);
    peer_caps = hr->caps;
  }
  if ((peer_caps & protocol::caps::kMigrate) == 0) {
    // v3 peer (or a daemon masking the bit): refuse gracefully. The job
    // keeps running here; the target reaps the empty context on Goodbye.
    transport::Message bye;
    bye.op = Opcode::Goodbye;
    bye.connection = conn;
    if (peer->send(std::move(bye))) (void)peer->receive();
    peer->close();
    log::info("runtime: migration refused, peer lacks kMigrate (ctx %llu)",
              static_cast<unsigned long long>(id.value));
    return refuse(Status::ErrorNotSupported);
  }

  MigrationReport report;
  const auto ship = [&](u32 round, std::vector<u8> bytes) -> Status {
    transport::MigrateChunkPayload chunk;
    chunk.round = round;
    chunk.image = std::move(bytes);
    obs::SpanScope sp(round == 0 ? "migrate-image" : "migrate-precopy", "migrate",
                      obs::kRuntimePid, obs::kOffloadTidBase + id.value, id.value,
                      chunk.image.size());
    transport::Message m;
    m.op = Opcode::MigrateChunk;
    m.connection = conn;
    m.payload = transport::encode_migrate_chunk(chunk);
    if (!peer->send(std::move(m))) return Status::ErrorConnectionClosed;
    auto reply = peer->receive();
    if (!reply.has_value()) return Status::ErrorConnectionClosed;
    return transport::reply_status(*reply);
  };
  const auto abort_migration = [&](Status s) -> StatusOr<MigrationReport> {
    {
      const auto ctx_lock = lock_context(ctx->lock);
      mm_->end_migration(id);
    }
    peer->close();
    log::info("runtime: migration of ctx %llu aborted (%s), job continues locally",
              static_cast<unsigned long long>(id.value), to_string(s));
    return refuse(s);
  };

  // Round 0: arm dirty tracking and export the sparse image under one lock
  // hold (no mutation falls between them), then ship it while the job keeps
  // running. export_image syncs device-dirty ranges to swap first, so the
  // image is complete as of this instant; everything written afterwards
  // lands in the armed epoch.
  {
    StatusOr<std::vector<u8>> image = [&]() -> StatusOr<std::vector<u8>> {
      const auto ctx_lock = lock_context(ctx->lock);
      if (const Status s = mm_->begin_migration(id); !ok(s)) return s;
      auto img = mm_->export_image(id);
      if (!img) mm_->end_migration(id);
      return img;
    }();
    if (!image) {
      peer->close();
      return refuse(image.status());
    }
    report.image_bytes = image.value().size();
    report.precopy_bytes = image.value().size();
    if (const Status s = ship(0, std::move(image).value()); !ok(s)) {
      return abort_migration(s);
    }
  }

  // Pre-copy rounds: drain and ship the dirty deltas while the job runs;
  // converged once a round comes in under the threshold. Every collected
  // delta must ship (collect clears the epoch), so a transport failure
  // after a successful collect aborts the whole attempt.
  for (int round = 1; round <= kMaxPrecopyRounds; ++round) {
    StatusOr<std::vector<u8>> delta = [&] {
      const auto ctx_lock = lock_context(ctx->lock);
      return mm_->collect_migration_delta(id);
    }();
    if (!delta) return abort_migration(delta.status());
    report.precopy_rounds = round;
    report.precopy_bytes += delta.value().size();
    const u64 delta_size = delta.value().size();
    log::debug("runtime: migration ctx %llu pre-copy round %d, %llu bytes",
               static_cast<unsigned long long>(id.value), round,
               static_cast<unsigned long long>(delta_size));
    if (const Status s = ship(static_cast<u32>(round), std::move(delta).value()); !ok(s)) {
      return abort_migration(s);
    }
    if (delta_size <= kStopCopyThresholdBytes) break;
  }

  // Stop-and-copy. Flip the forwarding flag, then require the connection
  // idle (see the connection loop's mirror image); a call that slipped in
  // forces a rollback. The retry does not poll on a fixed pace -- it waits
  // on the context's quiesce CV, so it reruns at the exact virtual instant
  // the blocking call retires (its completion instant is part of the
  // simulation schedule, which keeps the quiesce outcome replay-stable;
  // a paced poll samples at instants that can tie with unrelated events
  // and turn the flag flip into a real race). From here the job is frozen:
  // its next request blocks on the context lock we hold.
  int attempts = 0;
  for (;;) {
    timed_lock(ctx->lock);
    ctx->migrated.store(true, std::memory_order_seq_cst);
    if (ctx->calls_in_flight.load(std::memory_order_seq_cst) == 0) break;
    ctx->migrated.store(false, std::memory_order_seq_cst);
    ctx->lock.unlock();
    log::debug("runtime: migration ctx %llu quiesce rollback (attempt %d)",
               static_cast<unsigned long long>(id.value), attempts + 1);
    if (++attempts >= kMaxQuiesceAttempts) {
      return abort_migration(Status::ErrorNotSupported);
    }
    {
      std::unique_lock<std::mutex> quiesce_lk(ctx->quiesce_mu);
      ctx->quiesce_cv.wait(quiesce_lk, [&] {
        return ctx->calls_in_flight.load(std::memory_order_seq_cst) == 0;
      });
    }
  }
  // Holding ctx->lock with migrated set and no call in flight. A rollback
  // from here on must clear the flag before unlocking.
  vt::StopWatch stop_watch(dom);
  report.naive_bytes = mm_->naive_image_bytes(id);
  StatusOr<std::vector<u8>> final_delta = mm_->collect_migration_delta(id);
  if (!final_delta) {
    ctx->migrated.store(false, std::memory_order_seq_cst);
    ctx->lock.unlock();
    return abort_migration(final_delta.status());
  }

  transport::MigrateResumePayload resume;
  resume.delta = std::move(final_delta).value();
  for (const auto& [handle, name] : ctx->functions) {
    transport::MigrateFunction fn;
    fn.handle = handle;
    fn.name = name;
    resume.functions.push_back(std::move(fn));
  }
  resume.modules.assign(ctx->modules.begin(), ctx->modules.end());
  resume.next_module = ctx->next_module;
  resume.pinned = ctx->pinned;
  resume.gpu_time_used_seconds = ctx->gpu_time_used_seconds;
  if (ctx->pending_config.has_value()) {
    resume.has_pending_config = true;
    resume.pending_config.resize(sizeof(sim::LaunchConfig));
    std::memcpy(resume.pending_config.data(), &*ctx->pending_config,
                sizeof(sim::LaunchConfig));
    for (const sim::KernelArg& arg : ctx->pending_args) {
      transport::MigrateArg ma;
      ma.kind = static_cast<u8>(arg.kind);
      ma.bits = arg.bits;
      resume.pending_args.push_back(ma);
    }
  }
  transport::Message m;
  m.op = Opcode::MigrateResume;
  m.connection = conn;
  m.payload = transport::encode_migrate_resume(resume);
  report.stop_copy_bytes = m.payload.size();
  if (!peer->send(std::move(m))) {
    // The resume frame never reached the wire: rolling back is safe.
    ctx->migrated.store(false, std::memory_order_seq_cst);
    ctx->lock.unlock();
    return abort_migration(Status::ErrorConnectionClosed);
  }
  auto ack = peer->receive();
  if (ack.has_value() && !ok(transport::reply_status(*ack))) {
    // Explicit refusal: the target did not resume the job (its half-built
    // replica dies with the channel). Roll back and keep running here.
    const Status s = transport::reply_status(*ack);
    ctx->migrated.store(false, std::memory_order_seq_cst);
    ctx->lock.unlock();
    return abort_migration(s);
  }
  // Committed -- including on a lost ack: the resume frame may have been
  // applied, and running the job here as well would duplicate it. The
  // never-both invariant tolerates a lost job, never a duplicated one.
  mm_->end_migration(id);
  scheduler_->release(*ctx);
  mm_->remove_context(id);
  ctx->fwd = std::move(peer);
  report.stop_copy_seconds = stop_watch.elapsed_seconds();
  ctx->lock.unlock();

  bump(stats_.migrations_out);
  const u64 total = report.precopy_bytes + report.stop_copy_bytes;
  migration_bytes_counter().add(total);
  migration_precopy_bytes_counter().add(report.precopy_bytes);
  migration_stop_copy_bytes_counter().add(report.stop_copy_bytes);
  migration_stop_copy_ms_hist().observe(report.stop_copy_seconds * 1e3);
  session.set_bytes(total);
  obs::emit_instant("migrate-commit", "migrate", obs::kRuntimePid, id.value, id.value);
  log::info("runtime: migrated ctx %llu (%llu bytes shipped, naive image %llu, "
            "stop-and-copy %llu bytes)",
            static_cast<unsigned long long>(id.value),
            static_cast<unsigned long long>(total),
            static_cast<unsigned long long>(report.naive_bytes),
            static_cast<unsigned long long>(report.stop_copy_bytes));
  return report;
}

Message Runtime::handle(Context& ctx, transport::MessageChannel& channel, const Message& msg) {
  WireReader r(msg.payload);
  const ConnectionId conn = msg.connection;
  auto reply = [&](Status s, std::vector<u8> payload = {}) {
    if (!ok(s)) ctx.last_error = s;
    return transport::make_reply(conn, s, std::move(payload));
  };
  const u32 caps = ctx.caps.load(std::memory_order_acquire);

  switch (msg.op) {
    // ---- Registration: issued eagerly, before any binding exists. -----------
    // Under the context lock: threads of a CUDA-4 application register
    // into their shared context concurrently.
    case Opcode::RegisterFatBinary: {
      const auto ctx_lock = lock_context(ctx.lock);
      const u64 module = ctx.next_module++;
      ctx.modules.insert(module);
      WireWriter w;
      w.put<u64>(module);
      return reply(Status::Ok, w.take());
    }
    case Opcode::UnregisterFatBinary: {
      const u64 module = r.get<u64>();
      const auto ctx_lock = lock_context(ctx.lock);
      return reply(ctx.modules.erase(module) != 0 ? Status::Ok : Status::ErrorInvalidValue);
    }
    case Opcode::RegisterFunction: {
      const u64 module = r.get<u64>();
      const u64 handle = r.get<u64>();
      const std::string name = r.get_string();
      if (!r.ok()) return reply(Status::ErrorInvalidValue);
      const auto ctx_lock = lock_context(ctx.lock);
      if (ctx.modules.count(module) == 0) return reply(Status::ErrorInvalidValue);
      ctx.functions[handle] = name;
      return reply(Status::Ok);
    }
    case Opcode::RegisterVar:
    case Opcode::RegisterTexture:
      return reply(Status::Ok);

    // ---- Device management: overridden to hide the hardware (sec. 4.3). -----
    case Opcode::GetDeviceCount: {
      WireWriter w;
      w.put<i32>(scheduler_->vgpu_count());  // virtual, not physical, GPUs
      return reply(Status::Ok, w.take());
    }
    case Opcode::SetDevice:
      // Ignored by design: the runtime owns the application-to-GPU mapping.
      return reply(Status::Ok);
    case Opcode::GetDevice: {
      WireWriter w;
      w.put<i32>(0);
      return reply(Status::Ok, w.take());
    }

    // ---- Memory: virtual addresses only, via the memory manager. ------------
    case Opcode::Malloc: {
      const u64 size = r.get<u64>();
      if (!r.ok()) return reply(Status::ErrorProtocol);
      const auto ctx_lock = lock_context(ctx.lock);
      auto vptr = mm_->on_malloc(ctx.id, size);
      if (!vptr) return reply(vptr.status());
      WireWriter w;
      w.put<u64>(vptr.value());
      return reply(Status::Ok, w.take());
    }
    case Opcode::Free: {
      const u64 ptr = r.get<u64>();
      if (!r.ok()) return reply(Status::ErrorProtocol);
      const auto ctx_lock = lock_context(ctx.lock);
      return reply(mm_->on_free(ctx.id, ptr));
    }
    case Opcode::MemcpyH2D: {
      const u64 dst = r.get<u64>();
      const auto data = r.get_span();
      if (!r.ok()) return reply(Status::ErrorProtocol);
      const auto ctx_lock = lock_context(ctx.lock);
      std::optional<ClientId> bound;
      if (auto binding = scheduler_->binding_of(ctx.id)) bound = binding->client;
      return reply(mm_->on_copy_h2d(ctx.id, dst,
                                    std::as_bytes(std::span(data.data(), data.size())), bound));
    }
    case Opcode::MemcpyD2H: {
      const u64 src = r.get<u64>();
      const u64 size = r.get<u64>();
      if (!r.ok()) return reply(Status::ErrorProtocol);
      const auto ctx_lock = lock_context(ctx.lock);
      // The reply payload is sized once, [i32 status][u64 length][bytes],
      // and on_copy_d2h writes the bytes into its tail. No copy can exceed
      // the context's footprint: a larger size gets an empty tail, which
      // on_copy_d2h rejects, instead of an allocation.
      constexpr size_t kHead = sizeof(i32) + sizeof(u64);
      Message out;
      out.op = Opcode::Reply;
      out.connection = conn;
      out.payload.resize(kHead + (size <= mm_->mem_usage(ctx.id) ? size : 0));
      const Status s = mm_->on_copy_d2h(
          ctx.id, std::as_writable_bytes(std::span(out.payload).subspan(kHead)), src, size);
      if (!ok(s)) return reply(s);
      const i32 status = static_cast<i32>(Status::Ok);
      std::memcpy(out.payload.data(), &status, sizeof status);
      std::memcpy(out.payload.data() + sizeof status, &size, sizeof size);
      return out;
    }
    case Opcode::MemcpyD2D: {
      const u64 dst = r.get<u64>();
      const u64 src = r.get<u64>();
      const u64 size = r.get<u64>();
      if (!r.ok()) return reply(Status::ErrorProtocol);
      const auto ctx_lock = lock_context(ctx.lock);
      return reply(mm_->on_copy_d2d(ctx.id, dst, src, size));
    }
    case Opcode::RegisterNested: {
      if ((caps & protocol::caps::kRegisterNested) == 0) {
        return reply(Status::ErrorNotSupported);
      }
      const u64 parent = r.get<u64>();
      const u64 count = r.get_count(2 * sizeof(u64));
      std::vector<NestedRef> refs;
      refs.reserve(count);
      for (u64 i = 0; i < count && r.ok(); ++i) {
        NestedRef ref;
        ref.offset = r.get<u64>();
        ref.target = r.get<u64>();
        refs.push_back(ref);
      }
      if (!r.ok()) return reply(Status::ErrorProtocol);
      const auto ctx_lock = lock_context(ctx.lock);
      return reply(mm_->register_nested(ctx.id, parent, refs));
    }
    case Opcode::Checkpoint: {
      if ((caps & protocol::caps::kCheckpoint) == 0) return reply(Status::ErrorNotSupported);
      const auto ctx_lock = lock_context(ctx.lock);
      return reply(mm_->checkpoint(ctx.id));
    }

    // ---- Execution -----------------------------------------------------------
    case Opcode::ConfigureCall: {
      ctx.pending_config = r.get<sim::LaunchConfig>();
      ctx.pending_args.clear();
      return reply(r.ok() ? Status::Ok : Status::ErrorProtocol);
    }
    case Opcode::SetupArgument: {
      if (!ctx.pending_config.has_value()) return reply(Status::ErrorInvalidConfiguration);
      const u8 kind = r.get<u8>();
      sim::KernelArg arg;
      arg.bits = r.get<u64>();
      if (!r.ok() || !sim::KernelArg::valid_kind(kind)) return reply(Status::ErrorProtocol);
      arg.kind = static_cast<sim::KernelArg::Kind>(kind);
      ctx.pending_args.push_back(arg);
      return reply(Status::Ok);
    }
    case Opcode::Launch: {
      const std::string name = r.get_string();
      const auto config = r.get<sim::LaunchConfig>();
      const u64 argc = r.get_count(sizeof(u8) + sizeof(u64));
      std::vector<sim::KernelArg> args;
      args.reserve(argc);
      for (u64 i = 0; i < argc && r.ok(); ++i) {
        const u8 kind = r.get<u8>();
        if (!sim::KernelArg::valid_kind(kind)) return reply(Status::ErrorProtocol);
        sim::KernelArg arg;
        arg.kind = static_cast<sim::KernelArg::Kind>(kind);
        arg.bits = r.get<u64>();
        args.push_back(arg);
      }
      if (!r.ok()) return reply(Status::ErrorProtocol);
      return reply(do_launch(ctx, channel, name, config, args));
    }
    case Opcode::Synchronize: {
      if (auto binding = scheduler_->binding_of(ctx.id)) {
        return reply(rt_->device_synchronize(binding->client));
      }
      return reply(Status::Ok);
    }
    case Opcode::GetLastError:
      return transport::make_reply(conn, ctx.last_error.exchange(Status::Ok));

    // ---- Live migration (target side; protocol v4) ---------------------------
    case Opcode::MigrateChunk: {
      if ((caps & protocol::caps::kMigrate) == 0) return reply(Status::ErrorNotSupported);
      const auto ctx_lock = lock_context(ctx.lock);
      return reply(apply_migrate_chunk(ctx, msg));
    }
    case Opcode::MigrateResume: {
      if ((caps & protocol::caps::kMigrate) == 0) return reply(Status::ErrorNotSupported);
      const auto ctx_lock = lock_context(ctx.lock);
      return reply(apply_migrate_resume(ctx, msg));
    }

    // ---- Observability -------------------------------------------------------
    case Opcode::QueryStats: {
      // Optional op: only peers that negotiated the capability may ask.
      if ((caps & protocol::caps::kQueryStats) == 0) return reply(Status::ErrorNotSupported);
      WireWriter w;
      stats_snapshot().encode(w);
      return reply(Status::Ok, w.take());
    }
    default:
      return reply(Status::ErrorProtocol);
  }
}

bool Runtime::evict_one_victim(GpuId gpu, u64 needed, ContextId requester) {
  // Inter-application swap (section 4.5): ask one co-resident application
  // holding enough memory to vacate the device. Only applications in a CPU
  // phase (unbound) accept; a busy or locked victim refuses, and if freeing
  // the memory would take multiple victims we do not swap at all.
  for (ContextId vid : mm_->victim_candidates(gpu, needed, requester)) {
    auto victim = find_context(vid);
    if (victim == nullptr || victim->pinned) continue;
    if (!victim->lock.try_lock()) continue;  // mid-call: refuses; never block
    // Under the victim's lock its connection cannot start a new call,
    // so "bound but idle" is stable. A victim accepts when it is not in the
    // middle of a GPU phase: either unbound, or bound with no pending
    // requests on its connection (a CPU phase).
    bool accepts = !scheduler_->context_bound(vid);
    if (!accepts) {
      transport::MessageChannel* victim_channel =
          victim->channel.load(std::memory_order_acquire);
      accepts = victim_channel != nullptr && !victim_channel->pending();
    }
    if (accepts) {
      (void)mm_->swap_context(vid);
      mm_->count_inter_app_swap();
      scheduler_->release(*victim);  // "temporarily unbound from the GPU"
      victim->lock.unlock();
      log::debug("inter-app swap: evicted ctx %llu from gpu %llu",
                 static_cast<unsigned long long>(vid.value),
                 static_cast<unsigned long long>(gpu.value));
      return true;
    }
    victim->lock.unlock();
  }
  return false;
}

bool Runtime::preempt_context(ContextId id) {
  // Mirrors the evict_one_victim discipline: never block on a busy victim
  // (its call in progress yields at the kernel boundary instead, via
  // Scheduler::quantum_expired), and do all memory work under the
  // ContextLock so the swap cannot race a call.
  auto victim = find_context(id);
  if (victim == nullptr || victim->pinned) return false;
  if (!victim->lock.try_lock()) return false;  // mid-call: refuses; never block
  if (!scheduler_->context_bound(id)) {
    victim->lock.unlock();  // released/preempted while we were acquiring
    return true;
  }
  {
    obs::SpanScope span("preempt", "sched", obs::kRuntimePid, id.value, id.value);
    (void)mm_->preempt_swap_out(id);
  }
  (void)scheduler_->preempt(*victim);
  victim->lock.unlock();
  log::debug("preempt: quantum expired, ctx %llu swapped out",
             static_cast<unsigned long long>(id.value));
  return true;
}

StatusOr<int> Runtime::preempt_now() { return scheduler_->force_preempt_sweep(); }

Status Runtime::do_launch(Context& ctx, transport::MessageChannel& channel,
                          const std::string& name, const sim::LaunchConfig& config,
                          const std::vector<sim::KernelArg>& args) {
  // The dispatcher validated registrations long before binding; a launch of
  // an unregistered symbol never reaches the device.
  const bool registered = [&] {
    const auto ctx_lock = lock_context(ctx.lock);
    return std::any_of(ctx.functions.begin(), ctx.functions.end(),
                       [&](const auto& kv) { return kv.second == name; });
  }();
  if (!registered) return Status::ErrorUnknownSymbol;
  const auto def = rt_->machine().kernels().find(name);
  if (def == nullptr) return Status::ErrorUnknownSymbol;
  if (def->uses_device_malloc && !ctx.pinned) {
    // In-kernel allocation detected: the paper excludes such applications
    // from sharing and dynamic scheduling -- pin to a dedicated vGPU.
    ctx.pinned = true;
    log::info("ctx %llu uses in-kernel malloc: pinned to its vGPU",
              static_cast<unsigned long long>(ctx.id.value));
  }

  vt::Domain& dom = rt_->machine().domain();
  bump(stats_.launches);
  // End-to-end launch latency: queueing for a vGPU, materialization and
  // swaps, the kernel itself, any recovery replays.
  obs::SpanScope launch_span(name, "launch", obs::kRuntimePid, ctx.id.value, ctx.id.value);
  vt::StopWatch launch_watch(dom);

  int recovery_attempts = 0;
  for (;;) {
    // Delayed/dynamic binding: a vGPU is held only for the duration of the
    // GPU phase. acquire() is idempotent when already bound.
    auto acquired = scheduler_->acquire(ctx);
    if (!acquired) return acquired.status();
    const Scheduler::Binding binding = acquired.value();
    if (binding.recovered_from_failure) {
      bump(stats_.recoveries);
      obs::emit_instant("recovery-replay", "recover", obs::kRuntimePid, ctx.id.value,
                        ctx.id.value);
    }

    enum class Next { Done, RebindAfterFailure, BackoffRetry };
    Next next = Next::Done;
    Status result = Status::Ok;
    {
      const auto ctx_lock = lock_context(ctx.lock);
      auto prep = mm_->prepare_launch(ctx.id, binding.gpu, binding.client, args);
      switch (prep.outcome) {
        case MemoryManager::PrepareOutcome::WouldBlock: {
          if (evict_one_victim(binding.gpu, prep.needed_bytes, ctx.id)) {
            next = Next::RebindAfterFailure;  // stay bound; loop retries prepare
            result = Status::Ok;
            break;
          }
          if (log::enabled(log::Level::Debug)) {
            const sim::SimGpu* dev = rt_->machine().gpu(binding.gpu);
            log::debug("swap backoff: ctx %llu needs %llu bytes on gpu %llu "
                       "(free %llu, largest hole %llu)",
                       static_cast<unsigned long long>(ctx.id.value),
                       static_cast<unsigned long long>(prep.needed_bytes),
                       static_cast<unsigned long long>(binding.gpu.value),
                       static_cast<unsigned long long>(dev ? dev->free_bytes() : 0),
                       static_cast<unsigned long long>(dev ? dev->largest_free_block() : 0));
          }
          next = Next::BackoffRetry;
          break;
        }
        case MemoryManager::PrepareOutcome::Error: {
          if (prep.error == Status::ErrorDeviceUnavailable) {
            mm_->on_device_lost(ctx.id, binding.gpu);
            next = Next::RebindAfterFailure;
            ++recovery_attempts;
          } else {
            return prep.error;
          }
          break;
        }
        case MemoryManager::PrepareOutcome::Ready: {
          vt::StopWatch watch(dom);
          result = rt_->launch_by_name(binding.client, name, config, prep.translated);
          const double elapsed = watch.elapsed_seconds();
          if (result == Status::ErrorDeviceUnavailable) {
            // GPU died under us: roll residency back to the swap copies and
            // replay on a surviving device ("resilient to GPU failures").
            mm_->on_device_lost(ctx.id, binding.gpu);
            next = Next::RebindAfterFailure;
            ++recovery_attempts;
            obs::emit_instant("kernel-lost", "recover", obs::kRuntimePid, ctx.id.value,
                              ctx.id.value);
            bump(stats_.recoveries);
            break;
          }
          ctx.gpu_time_used_seconds += elapsed;
          if (config_.auto_checkpoint_after_kernel_seconds > 0.0 &&
              elapsed >= config_.auto_checkpoint_after_kernel_seconds) {
            // Automatic checkpoint after long kernels bounds the restart
            // penalty of a later failure (section 4.6).
            (void)mm_->checkpoint(ctx.id);
            bump(stats_.auto_checkpoints);
          }
          next = Next::Done;
          break;
        }
      }
    }

    switch (next) {
      case Next::Done: {
        // A vGPU is held for the application's lifetime (Figure 7: with one
        // vGPU, execution is strictly serialized even across CPU phases).
        // The only voluntary release is migration: the application is in a
        // CPU phase and a strictly faster device sits idle (Figure 9).
        // Involuntary unbinding happens through inter-application swap --
        // or, under a preemptive policy, through quantum expiry: the pump
        // cannot preempt a context mid-call, so a holder whose quantum ran
        // out during the kernel yields here, at the kernel boundary.
        if (!ctx.pinned && scheduler_->quantum_expired(ctx.id)) {
          {
            const auto ctx_lock = lock_context(ctx.lock);
            obs::SpanScope preempt_span("preempt", "sched", obs::kRuntimePid, ctx.id.value,
                                        ctx.id.value);
            (void)mm_->preempt_swap_out(ctx.id);
          }
          (void)scheduler_->preempt(ctx);
        } else if (!ctx.pinned && !channel.pending() &&
                   scheduler_->faster_gpu_idle(binding.gpu)) {
          scheduler_->release(ctx);
        }
        launch_seconds_hist().observe(launch_watch.elapsed_seconds());
        return result;
      }
      case Next::RebindAfterFailure: {
        if (recovery_attempts > config_.max_recovery_attempts) {
          ctx.state.store(ContextState::Failed, std::memory_order_release);
          load_changed();
          return Status::ErrorDeviceUnavailable;
        }
        // Either an eviction freed memory (stay bound and retry), or the
        // device died (binding is stale; acquire() re-binds elsewhere).
        continue;
      }
      case Next::BackoffRetry: {
        // Nobody honored the swap request: the calling application unbinds
        // from the virtual GPU and retries later (section 4.5). Releasing
        // its own partial materialization keeps a backing-off job from
        // hogging memory it cannot yet use (and from deadlocking against
        // another partial holder); the retry pace is matched to kernel
        // durations, not a busy spin.
        {
          const auto ctx_lock = lock_context(ctx.lock);
          (void)mm_->swap_context(ctx.id);
        }
        scheduler_->release(ctx);
        bump(stats_.swap_retry_backoffs);
        dom.sleep_for(vt::from_millis(400));
        continue;
      }
    }
  }
}

}  // namespace gpuvm::core
