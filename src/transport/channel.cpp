#include "transport/channel.hpp"

#include <atomic>
#include <deque>
#include <mutex>

#include "common/rng.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gpuvm::transport {

namespace {

obs::Counter& messages_sent_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kTransportMessagesSent);
  return c;
}

obs::Counter& bytes_sent_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kTransportBytesSent);
  return c;
}

obs::Counter& retries_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kTransportRetries);
  return c;
}

obs::Counter& dropped_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kTransportDroppedMessages);
  return c;
}

obs::Counter& broken_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kTransportBrokenChannels);
  return c;
}

obs::Counter& reconnects_counter() {
  static obs::Counter& c = obs::metrics().counter(obs::names::kTransportReconnects);
  return c;
}

/// A message dropped this many times in a row breaks the channel (the
/// modeled peer is unreachable, like TCP giving up after max retransmits).
constexpr int kMaxRetransmits = 6;

vt::Duration retransmit_backoff(int attempt) {
  // 50us, 100us, 200us, ... exponential, matched to the modeled link
  // latencies (tens of microseconds per hop).
  return vt::from_micros(50.0 * static_cast<double>(1 << (attempt - 1)));
}

std::atomic<FaultInjector*> g_fault_injector{nullptr};

/// One synthetic trace tid per Pipe so each direction of each channel gets
/// its own transit track under the runtime pid. The tid doubles as the
/// FaultInjector drop-hash stream key, so reset_channel_serial() below must
/// be able to rewind it for repeatable chaos scenarios.
std::atomic<u64> g_channel_serial{0};

u64 next_channel_tid() {
  return obs::kChannelTidBase + g_channel_serial.fetch_add(1, std::memory_order_relaxed);
}

/// State shared by both endpoints: one costed queue per direction.
class Pipe {
 public:
  Pipe(vt::Domain& dom, ChannelCosts costs)
      : dom_(&dom), costs_(costs), cv_(dom), trace_tid_(next_channel_tid()) {}

  bool send(Message msg) {
    int drops = 0;
    for (;;) {
      const MessageChannel::SendAttempt attempt = try_send(msg, drops);
      if (attempt.outcome != MessageChannel::SendAttempt::Outcome::Dropped) {
        return attempt.outcome == MessageChannel::SendAttempt::Outcome::Sent;
      }
      dom_->sleep_for(attempt.backoff);
    }
  }

  /// MessageChannel::try_send on this direction: one attempt, no sleeping.
  MessageChannel::SendAttempt try_send(Message& msg, int& drops) {
    using Outcome = MessageChannel::SendAttempt::Outcome;
    if (drops == 0) {
      messages_sent_counter().add(1);
      bytes_sent_counter().add(msg.payload.size());
    }
    vt::Duration transit = transit_time(msg);
    // Chaos fault injection: a degraded wire drops send attempts; the
    // sender detects the loss and retransmits after an exponential backoff
    // (costing virtual time), breaking the channel once the budget is
    // exhausted. Drop decisions are pure (seed, stream, attempt#) hashes,
    // so replays with the same seed behave identically. Whether the wire
    // is degraded is decided at a message's first attempt.
    FaultInjector* fi = fault_injector();
    if (fi != nullptr && (drops > 0 || fi->active())) {
      const u64 seq = send_seq_.fetch_add(1, std::memory_order_relaxed);
      if (fi->should_drop(trace_tid_, seq)) {
        dropped_counter().add(1);
        if (++drops > kMaxRetransmits) {
          broken_counter().add(1);
          close();
          return {Outcome::Closed};
        }
        retries_counter().add(1);
        return {Outcome::Dropped, retransmit_backoff(drops)};
      }
      transit += fi->extra_delay();
    }
    if (!has_sink_.load(std::memory_order_acquire)) {
      std::unique_lock lk(mu_);
      if (closed_) return {Outcome::Closed};
      if (!has_sink_) {
        items_.push_back(Entry{std::move(msg), dom_->now(), dom_->now() + transit});
        cv_.notify_one();
        return {Outcome::Sent};
      }
    }
    // To a sink without mu_, the lock receive() waits with: a vt::Timer
    // callback may send here (it may take no lock held across a vt wait).
    if (closed_.load(std::memory_order_acquire)) return {Outcome::Closed};
    const vt::TimePoint now = dom_->now();
    std::scoped_lock sink_lock(sink_mu_);
    if (!sink_) return {Outcome::Closed};  // detached since the check above
    to_sink(Entry{std::move(msg), now, now + transit});
    return {Outcome::Sent};
  }

  std::optional<Message> receive() {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return !items_.empty() || closed_; });
    if (items_.empty()) return std::nullopt;
    Entry entry = std::move(items_.front());
    items_.pop_front();
    lk.unlock();
    // Model transit: the message is visible only once its latency elapsed.
    dom_->sleep_until(entry.deliver_at);
    emit_transit(entry);
    return std::move(entry.msg);
  }

  /// MessageChannel::set_sink on this direction. sink_mu_ is held from the
  /// attach through the backlog hand-off, so a send that finds the sink
  /// attached waits until the backlog has reached it.
  void set_sink(MessageChannel::Sink sink) {
    std::scoped_lock sink_lock(sink_mu_);
    std::deque<Entry> backlog;
    {
      std::unique_lock lk(mu_);
      has_sink_ = static_cast<bool>(sink);
      if (has_sink_) {
        backlog.swap(items_);
      } else {
        closed_ = true;
        cv_.notify_all();
      }
      sink_ = std::move(sink);
    }
    for (Entry& entry : backlog) to_sink(std::move(entry));
  }

  void close() {
    MessageChannel::Sink sink;
    {
      std::unique_lock lk(mu_);
      if (closed_) return;
      closed_ = true;
      cv_.notify_all();
      if (has_sink_) sink = sink_;
    }
    // Without sink_mu_: the closing thread may be inside a sink call
    // already (a consumer closing its own channel), or another thread's
    // call may be blocked in virtual time while holding it.
    if (sink) sink(std::nullopt, dom_->now());
  }

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  bool has_items() const {
    std::unique_lock lk(mu_);
    return !items_.empty();
  }

 private:
  struct Entry {
    Message msg;
    vt::TimePoint sent_at;
    vt::TimePoint deliver_at;
  };

  vt::Duration transit_time(const Message& msg) const {
    vt::Duration t = costs_.latency;
    if (costs_.bandwidth_gbps > 0.0) {
      t += vt::from_seconds(static_cast<double>(msg.payload.size()) /
                            (costs_.bandwidth_gbps * 1e9));
    }
    return t;
  }

  void emit_transit(const Entry& entry) const {
    // Stamped with the consuming thread's trace context (the receiver, or
    // the sender for a sink): transit time is part of whichever causal
    // chain consumes the message.
    obs::emit_span("msg-transit", "transport", obs::kRuntimePid, trace_tid_, entry.sent_at,
                   entry.deliver_at - entry.sent_at, 0, entry.msg.payload.size());
  }

  void to_sink(Entry entry) {  // sink_mu_ held
    emit_transit(entry);
    sink_(std::move(entry.msg), entry.deliver_at);
  }

  vt::Domain* dom_;
  ChannelCosts costs_;
  mutable std::mutex mu_;
  vt::ConditionVariable cv_;
  const u64 trace_tid_;
  std::atomic<u64> send_seq_{0};  // per-stream attempt counter (fault hashing)
  std::deque<Entry> items_;
  // Written under mu_ (has_sink_ under sink_mu_ too); sends to a sink and
  // closed() read them without it.
  std::atomic<bool> closed_{false};
  std::atomic<bool> has_sink_{false};  // sends then bypass items_
  std::mutex sink_mu_;     // serializes sink calls against set_sink
  MessageChannel::Sink sink_;  // written under mu_ and sink_mu_, read under either
};

class LocalEndpoint : public MessageChannel {
 public:
  LocalEndpoint(std::shared_ptr<Pipe> tx, std::shared_ptr<Pipe> rx)
      : tx_(std::move(tx)), rx_(std::move(rx)) {}

  ~LocalEndpoint() override { close(); }

  bool send(Message msg) override { return tx_->send(std::move(msg)); }
  SendAttempt try_send(Message& msg, int& drops) override { return tx_->try_send(msg, drops); }
  std::optional<Message> receive() override { return rx_->receive(); }

  void close() override {
    tx_->close();
    rx_->close();
  }

  bool closed() const override { return tx_->closed(); }

  bool pending() const override { return rx_->has_items(); }

  bool set_sink(Sink sink) override {
    rx_->set_sink(std::move(sink));
    return true;
  }

 private:
  std::shared_ptr<Pipe> tx_;
  std::shared_ptr<Pipe> rx_;
};

}  // namespace

std::pair<std::unique_ptr<MessageChannel>, std::unique_ptr<MessageChannel>> make_local_pair(
    vt::Domain& dom, ChannelCosts costs) {
  auto a_to_b = std::make_shared<Pipe>(dom, costs);
  auto b_to_a = std::make_shared<Pipe>(dom, costs);
  return {std::make_unique<LocalEndpoint>(a_to_b, b_to_a),
          std::make_unique<LocalEndpoint>(b_to_a, a_to_b)};
}

MessageChannel::SendAttempt MessageChannel::try_send(Message& msg, int& /*drops*/) {
  return {send(std::move(msg)) ? SendAttempt::Outcome::Sent : SendAttempt::Outcome::Closed};
}

// ---- FaultInjector ----------------------------------------------------------

void FaultInjector::degrade(double drop_rate, vt::Duration extra_delay) {
  drop_rate_.store(drop_rate, std::memory_order_release);
  extra_delay_ns_.store(extra_delay.count(), std::memory_order_release);
  active_.store(true, std::memory_order_release);
}

void FaultInjector::heal() {
  active_.store(false, std::memory_order_release);
  drop_rate_.store(0.0, std::memory_order_release);
  extra_delay_ns_.store(0, std::memory_order_release);
}

bool FaultInjector::should_drop(u64 stream, u64 seq) const {
  const double rate = drop_rate_.load(std::memory_order_acquire);
  if (rate <= 0.0) return false;
  // Stateless hash (splitmix64 over seed/stream/seq) -> uniform in [0,1).
  u64 h = seed_ ^ (stream * 0x9e3779b97f4a7c15ULL) ^ (seq + 0x632be59bd9b4e019ULL);
  const u64 mixed = splitmix64(h);
  const double u = static_cast<double>(mixed >> 11) * 0x1.0p-53;
  return u < rate;
}

FaultInjector* fault_injector() {
  return g_fault_injector.load(std::memory_order_acquire);
}

void reset_channel_serial() { g_channel_serial.store(0, std::memory_order_relaxed); }

ScopedFaultInjector::ScopedFaultInjector(u64 seed)
    : injector_(std::make_unique<FaultInjector>(seed)) {
  g_fault_injector.store(injector_.get(), std::memory_order_release);
}

ScopedFaultInjector::~ScopedFaultInjector() {
  g_fault_injector.store(nullptr, std::memory_order_release);
}

// ---- ReconnectingChannel ----------------------------------------------------

ReconnectingChannel::ReconnectingChannel(Factory factory, int max_reconnects)
    : factory_(std::move(factory)), max_reconnects_(max_reconnects) {
  inner_ = factory_();
}

ReconnectingChannel::~ReconnectingChannel() { close(); }

bool ReconnectingChannel::reopen() {
  if (reconnects_used_.load(std::memory_order_acquire) >= max_reconnects_) return false;
  auto fresh = factory_();
  if (fresh == nullptr || fresh->closed()) return false;
  reconnects_used_.fetch_add(1, std::memory_order_acq_rel);
  reconnects_counter().add(1);
  inner_ = std::move(fresh);
  return true;
}

bool ReconnectingChannel::send(Message msg) {
  if (closed_.load(std::memory_order_acquire)) return false;
  for (;;) {
    if (inner_ != nullptr && !inner_->closed()) {
      Message copy = msg;  // keep the original for a possible resend
      if (inner_->send(std::move(copy))) return true;
    }
    if (closed_.load(std::memory_order_acquire)) return false;
    if (!reopen()) return false;
  }
}

std::optional<Message> ReconnectingChannel::receive() {
  if (inner_ == nullptr) return std::nullopt;
  return inner_->receive();
}

void ReconnectingChannel::close() {
  closed_.store(true, std::memory_order_release);
  if (inner_ != nullptr) inner_->close();
}

bool ReconnectingChannel::closed() const {
  return closed_.load(std::memory_order_acquire) ||
         (inner_ != nullptr && inner_->closed());
}

bool ReconnectingChannel::pending() const {
  return inner_ != nullptr && inner_->pending();
}

}  // namespace gpuvm::transport
