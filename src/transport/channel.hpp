// Duplex message channels connecting frontends, daemons and nodes.
//
// A MessageChannel is one endpoint of a connected pair. The in-process
// implementation (make_local_pair) carries modeled latency and bandwidth so
// that interception overhead (AF_UNIX hop, the paper's gVirtuS transport)
// and inter-node links (TCP) cost virtual time like the real thing. Its
// receiving side can also deliver through a sink callback (set_sink): the
// consumer -- a directory folding heartbeats, a daemon serving a call --
// then runs on the sending thread and needs no thread of its own.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "common/vt.hpp"
#include "transport/message.hpp"

namespace gpuvm::transport {

class MessageChannel {
 public:
  /// Receives each incoming message on the *sending* thread, stamped with
  /// the virtual instant the cost model delivers it at, and std::nullopt
  /// once when the direction closes (see set_sink).
  using Sink = std::function<void(std::optional<Message> msg, vt::TimePoint delivered_at)>;

  virtual ~MessageChannel() = default;

  /// Sends a message to the peer. Returns false if the channel is closed.
  virtual bool send(Message msg) = 0;

  /// What one try_send() did.
  struct SendAttempt {
    enum class Outcome { Sent, Closed, Dropped } outcome;
    vt::Duration backoff{};  ///< Dropped: retry this much later
  };

  /// One send attempt that never blocks in virtual time, for a sender that
  /// must not sleep (a vt::Timer callback). Where send() sleeps out a
  /// retransmit backoff, this returns Dropped with the backoff instead; the
  /// caller tries again at that instant with the same `msg` and `drops`
  /// (drops so far, 0 at first), which makes the drop decisions send()
  /// makes. `msg` is consumed only when Sent; a message whose retransmit
  /// budget runs out breaks the channel (Closed). The in-process pipe hands
  /// a message to a sink without the lock receive() waits with, so a timer
  /// may try_send on a direction that delivers to a sink; without one, it
  /// queues under that lock. The default is one blocking send().
  virtual SendAttempt try_send(Message& msg, int& drops);

  /// Blocks until a message arrives (nullopt when the peer closed and the
  /// queue is drained).
  virtual std::optional<Message> receive() = 0;

  /// Hands incoming messages to `sink` instead of queueing them for
  /// receive(). Contract:
  ///   - the peer's send() calls the sink itself, after fault injection,
  ///     outside the channel's queue lock, one call at a time, and returns
  ///     when the sink does;
  ///   - `delivered_at` = send instant + latency + payload / bandwidth (+ the
  ///     FaultInjector's extra delay while degraded) -- possibly in the
  ///     future: the consumer decides when the message becomes visible;
  ///   - the sink may block in virtual time, and the sender blocks with it
  ///     (a daemon's service time); it may send on the reverse direction
  ///     and close the channel, but must not detach itself;
  ///   - the first close() of this direction calls the sink once with
  ///     std::nullopt, on the closing thread and outside the channel's
  ///     locks -- so also re-entrantly, when a sink closes its own channel;
  ///   - messages already queued when the sink attaches are handed to it
  ///     first, in order, before set_sink returns;
  ///   - an empty sink detaches: it waits for a call in progress to finish
  ///     and closes this direction, so later sends return false. A detaching
  ///     thread blocks on a plain mutex, so never detach while a call that
  ///     may block in virtual time can be in progress: the clock would stall.
  /// Returns false when the channel cannot deliver to a sink (the default).
  virtual bool set_sink(Sink /*sink*/) { return false; }

  /// Closes both directions; blocked receivers wake.
  virtual void close() = 0;

  virtual bool closed() const = 0;

  /// True when at least one message is already queued/readable. The daemon
  /// uses this to detect an application's CPU phase (no pending requests).
  /// Always false on a direction that delivers to a sink.
  virtual bool pending() const = 0;
};

struct ChannelCosts {
  /// One-way delivery latency added to every message.
  vt::Duration latency{};
  /// Payload throughput; 0 = infinite.
  double bandwidth_gbps = 0.0;

  /// Cost profile of a local AF_UNIX interposition hop (gVirtuS-like).
  static ChannelCosts local_socket() { return {vt::from_micros(20), 0.0}; }
  /// Cost profile of a gigabit-Ethernet cluster link.
  static ChannelCosts cluster_link() { return {vt::from_micros(80), 1.0}; }
  /// Free channel (unit tests).
  static ChannelCosts free() { return {}; }
};

/// Creates a connected in-process endpoint pair with the given cost model.
std::pair<std::unique_ptr<MessageChannel>, std::unique_ptr<MessageChannel>> make_local_pair(
    vt::Domain& dom, ChannelCosts costs = ChannelCosts::free());

// ---- Fault injection (chaos testing) ---------------------------------------

/// Deterministic transport-fault model consulted by in-process pipes.
/// While degraded, each send attempt may be "dropped on the wire" and
/// retransmitted after a backoff; deliveries pay `extra_delay` on top of the
/// channel's cost model. Drop decisions are pure hashes of
/// (seed, stream serial, per-stream attempt number) — no shared RNG state —
/// so a replay with the same seed and the same channel-creation order makes
/// the identical decisions regardless of thread interleaving.
class FaultInjector {
 public:
  explicit FaultInjector(u64 seed) : seed_(seed) {}

  /// Enters (or adjusts) a degrade window.
  void degrade(double drop_rate, vt::Duration extra_delay);
  /// Ends the degrade window; traffic is clean again.
  void heal();

  bool active() const { return active_.load(std::memory_order_acquire); }
  vt::Duration extra_delay() const {
    return vt::Duration{extra_delay_ns_.load(std::memory_order_acquire)};
  }
  /// Deterministic drop decision for attempt `seq` on stream `stream`.
  bool should_drop(u64 stream, u64 seq) const;

 private:
  u64 seed_;
  std::atomic<bool> active_{false};
  std::atomic<double> drop_rate_{0.0};
  std::atomic<i64> extra_delay_ns_{0};
};

/// Process-global injector; nullptr when no chaos run is active (the common
/// case — pipes then pay one relaxed load). Mirrors the obs::tracer() idiom.
FaultInjector* fault_injector();

/// Resets the process-global channel stream-id serial (it doubles as the
/// FaultInjector drop-hash stream key). Chaos harnesses call this at
/// scenario start so a scenario replayed later in the same process sees the
/// same stream ids -- and therefore the same drop decisions.
void reset_channel_serial();

/// Installs a FaultInjector for the guard's lifetime (chaos runs, tests).
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(u64 seed);
  ~ScopedFaultInjector();
  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;

  FaultInjector& injector() { return *injector_; }

 private:
  std::unique_ptr<FaultInjector> injector_;
};

// ---- Reconnection ----------------------------------------------------------

/// Wraps a channel factory with transparent reconnection: when a send fails
/// because the underlying channel broke (e.g. dropped past the transport's
/// retransmission budget), the wrapper opens a fresh channel via the factory
/// and resends the message, up to `max_reconnects` times over its lifetime.
/// receive()/pending() forward to the current underlying channel.
///
/// Intended for single-user channels (one thread sending/receiving), which
/// is how every MessageChannel in the stack is driven.
class ReconnectingChannel : public MessageChannel {
 public:
  using Factory = std::function<std::unique_ptr<MessageChannel>()>;

  explicit ReconnectingChannel(Factory factory, int max_reconnects = 3);
  ~ReconnectingChannel() override;

  bool send(Message msg) override;
  std::optional<Message> receive() override;
  void close() override;
  bool closed() const override;
  bool pending() const override;

  int reconnects_used() const { return reconnects_used_.load(std::memory_order_acquire); }

 private:
  bool reopen();  // calling thread only

  Factory factory_;
  const int max_reconnects_;
  std::atomic<int> reconnects_used_{0};
  std::atomic<bool> closed_{false};
  std::unique_ptr<MessageChannel> inner_;
};

}  // namespace gpuvm::transport
