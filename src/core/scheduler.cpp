#include "core/scheduler.hpp"

#include <algorithm>
#include <limits>

#include "common/log.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gpuvm::core {

namespace {

obs::Histogram& queue_wait_hist() {
  static obs::Histogram& h = obs::metrics().histogram(obs::names::kSchedQueueWaitSeconds,
                                                      obs::default_seconds_edges());
  return h;
}

obs::Histogram& held_hist() {
  static obs::Histogram& h = obs::metrics().histogram(obs::names::kSchedHeldSeconds,
                                                      obs::default_seconds_edges());
  return h;
}

}  // namespace

double ThrashGovernor::on_window(u64 swap_bytes_delta, u64 binds_delta) {
  const double per_bind = static_cast<double>(swap_bytes_delta) /
                          static_cast<double>(binds_delta == 0 ? 1 : binds_delta);
  if (per_bind > config_.bytes_per_bind_threshold) {
    calm_windows_ = 0;
    if (quantum_ < config_.max_quantum_seconds) {
      quantum_ = std::min(quantum_ * config_.escalation, config_.max_quantum_seconds);
      ++trips_;
    }
  } else if (quantum_ > config_.base_quantum_seconds) {
    if (++calm_windows_ >= config_.calm_windows_before_decay) {
      calm_windows_ = 0;
      quantum_ = std::max(config_.base_quantum_seconds, quantum_ / config_.escalation);
    }
  } else {
    calm_windows_ = 0;
  }
  return quantum_;
}

Scheduler::Scheduler(cudart::CudaRt& rt, MemoryManager& mm, Config config)
    : rt_(&rt),
      mm_(&mm),
      config_(std::move(config)),
      governor_(ThrashGovernor::Config{.base_quantum_seconds = config_.quantum_seconds,
                                       .max_quantum_seconds = config_.max_quantum_seconds}),
      cv_(rt.machine().domain()),
      queue_wait_local_(std::vector<double>(obs::default_seconds_edges().begin(),
                                            obs::default_seconds_edges().end())),
      pump_cv_(rt.machine().domain()) {
  auto policy = make_scheduling_policy(config_.policy);
  if (policy.has_value()) {
    policy_ = std::move(policy).value();
  } else {
    // Keep the daemon schedulable, but surface the typed error through
    // policy_status() so callers that can refuse (flag parsing, the chaos
    // harness) do so instead of this silent fallback.
    policy_status_ = policy.status();
    log::error("scheduler: unknown policy '%s', falling back to fcfs",
               config_.policy.c_str());
    policy_ = std::move(make_scheduling_policy("fcfs").value());
  }
  if (policy_->preemptive()) {
    pump_ = vt::Thread(rt_->machine().domain(), [this] { pump_loop(); });
  }
}

Scheduler::~Scheduler() {
  {
    std::unique_lock lk(mu_);
    stop_pump_ = true;
    pump_cv_.notify_all();
  }
  if (pump_.joinable()) pump_.join();
  for (const auto& slot : slots_) rt_->destroy_client(slot->client);
}

void Scheduler::set_preempt_executor(PreemptExecutor executor) {
  std::unique_lock lk(mu_);
  preempt_executor_ = std::move(executor);
}

void Scheduler::set_load_listener(std::function<void()> listener) {
  std::unique_lock lk(mu_);
  load_listener_ = std::move(listener);
}

void Scheduler::add_device(int device_index, GpuId gpu) {
  const sim::SimGpu* dev = rt_->machine().gpu(gpu);
  const double speed = dev != nullptr ? dev->spec().compute_power() : 0.0;
  std::unique_lock lk(mu_);
  for (int i = 0; i < config_.vgpus_per_device; ++i) {
    auto slot = std::make_unique<Slot>();
    slot->index = static_cast<int>(slots_.size());
    slot->gpu = gpu;
    slot->device_index = device_index;
    slot->speed = speed;
    // One cudaSetDevice at startup statically binds the vGPU's CUDA client
    // to its physical device (paper section 4.4).
    slot->client = rt_->create_client();
    (void)rt_->set_device(slot->client, device_index);
    slots_.push_back(std::move(slot));
  }
  match_locked();
}

void Scheduler::remove_device(GpuId gpu) {
  std::unique_lock lk(mu_);
  for (const auto& slot : slots_) {
    if (slot->gpu != gpu) continue;
    slot->alive = false;
    if (slot->bound.valid()) {
      // Eagerly unbind: the context re-queues instead of aborting, and its
      // next acquire() reports recovered_from_failure so the launch loop
      // replays from the swap copy (respecting max_recovery_attempts).
      recovering_.insert(slot->bound);
      bindings_.erase(slot->bound);
      unbind_slot_locked(slot.get());
      ++stats_.requeues;
    }
  }
  match_locked();
}

Scheduler::SlotPick Scheduler::pick_slot_locked(Context& ctx) {
  SlotPick pick;
  const std::optional<GpuId> residency = mm_->residency(ctx.id);
  const bool residency_alive =
      residency.has_value() && [&] {
        const sim::SimGpu* dev = rt_->machine().gpu(*residency);
        return dev != nullptr && dev->healthy();
      }();

  // Free slots per GPU and current load. Under an exclusive-device policy
  // (preemptive rotation) a GPU with any bound context offers no free slot
  // at all: each tenant in turn gets the whole device for its quantum.
  const bool exclusive = policy_->exclusive_device();
  std::map<GpuId, int> load;
  std::map<GpuId, double> speed;
  for (const auto& slot : slots_) {
    if (!slot->alive) continue;
    speed[slot->gpu] = slot->speed;
    load.try_emplace(slot->gpu, 0);
    if (slot->bound.valid()) ++load[slot->gpu];
  }
  std::map<GpuId, Slot*> free_slot;
  for (const auto& slot : slots_) {
    if (!slot->alive || slot->bound.valid()) continue;
    if (exclusive && load[slot->gpu] > 0) continue;
    free_slot.try_emplace(slot->gpu, slot.get());
  }
  if (free_slot.empty()) return pick;

  if (residency_alive) {
    // Migration first: an idle, strictly faster device beats staying home
    // (the paper migrates running jobs from slow to fast GPUs as the fast
    // ones become idle). Only ever slow->fast, so no ping-pong.
    if (config_.enable_migration) {
      Slot* best = nullptr;
      for (const auto& [gpu, slot] : free_slot) {
        if (speed[gpu] <= speed[*residency]) continue;
        if (best == nullptr || speed[gpu] > best->speed) best = slot;
      }
      if (best != nullptr) {
        pick.slot = best;
        pick.migrated = true;
        return pick;
      }
    }
    // Affinity: the context's data is resident there; rebinding elsewhere
    // costs a full swap-out/swap-in cycle.
    const auto it = free_slot.find(*residency);
    if (it != free_slot.end()) pick.slot = it->second;
    return pick;  // else wait for our device
  }

  // No residency (or the device died -- data recovers from swap anywhere):
  // balance load across devices, preferring the least-loaded, breaking
  // ties toward the faster device.
  Slot* best = nullptr;
  int best_load = 0;
  for (const auto& [gpu, slot] : free_slot) {
    const int gpu_load = load[gpu];
    if (best == nullptr || gpu_load < best_load ||
        (gpu_load == best_load && slot->speed > best->speed)) {
      best = slot;
      best_load = gpu_load;
    }
  }
  pick.slot = best;
  if (best != nullptr && residency.has_value() && !residency_alive) pick.migrated = true;
  return pick;
}

void Scheduler::match_locked() {
  // Greedy policy-priority matching: highest-priority waiter first, each
  // takes its preferred free slot if one exists. A waiter whose preferred
  // device is busy does not block lower-priority waiters that can use a
  // different device (no head-of-line blocking across devices).
  std::vector<Waiter*> order = waiting_;
  std::sort(order.begin(), order.end(), [&](const Waiter* a, const Waiter* b) {
    return policy_->priority(*a->ctx) < policy_->priority(*b->ctx);
  });
  const bool any_alive =
      std::any_of(slots_.begin(), slots_.end(), [](const auto& s) { return s->alive; });
  const vt::TimePoint now = rt_->machine().domain().now();
  bool granted_any = false;
  bool armed_quantum = false;
  for (Waiter* waiter : order) {
    if (waiter->granted.has_value() || waiter->hopeless) continue;
    if (!any_alive) {
      // With a grace period configured the timed wait in acquire() decides
      // when a device-less waiter gives up (the device may come back).
      if (config_.device_wait_grace_seconds > 0.0) continue;
      waiter->hopeless = true;
      granted_any = true;  // wake it so it can fail
      continue;
    }
    const SlotPick pick = pick_slot_locked(*waiter->ctx);
    if (pick.slot == nullptr) continue;
    Slot* slot = pick.slot;
    slot->bound = waiter->ctx->id;
    slot->bound_at = now;
    if (policy_->preemptive()) {
      slot->expires = now + vt::from_seconds(governor_.quantum_seconds());
      slot->next_sweep = vt::TimePoint{};
      armed_quantum = true;
    }
    bindings_[waiter->ctx->id] = slot;
    policy_->on_bind(*waiter->ctx, now);
    waiter->granted = Binding{slot->index, slot->gpu, slot->client, pick.migrated};
    granted_any = true;
  }
  if (granted_any) cv_.notify_all();
  if (armed_quantum) pump_cv_.notify_all();
  publish_load_locked();
}

void Scheduler::publish_load_locked() {
  {
    std::scoped_lock load_lock(load_mu_);
    load_.vgpus = 0;
    load_.waiting = static_cast<int>(waiting_.size());
    load_.bound = static_cast<int>(bindings_.size());
    load_.devices.clear();  // keeps its capacity: no allocation per publish
    for (const auto& slot : slots_) {
      if (!slot->alive) continue;
      ++load_.vgpus;
      auto dev = std::find_if(load_.devices.begin(), load_.devices.end(),
                              [&](const DeviceSlots& d) { return d.gpu == slot->gpu; });
      if (dev == load_.devices.end()) dev = load_.devices.insert(dev, DeviceSlots{slot->gpu});
      ++dev->vgpus;
      if (slot->bound.valid()) ++dev->bound;
    }
    std::sort(load_.devices.begin(), load_.devices.end(),
              [](const DeviceSlots& a, const DeviceSlots& b) { return a.gpu < b.gpu; });
  }
  if (load_listener_) load_listener_();
}

Result<Scheduler::Binding> Scheduler::acquire(Context& ctx) {
  std::unique_lock lk(mu_);
  bool recovered = recovering_.erase(ctx.id) > 0;
  if (const auto it = bindings_.find(ctx.id); it != bindings_.end()) {
    Slot* slot = it->second;
    if (slot->alive) {
      return Binding{slot->index, slot->gpu, slot->client, false, recovered};
    }
    // Bound to a dead device (remove_device normally unbinds eagerly; this
    // covers a slot dying between unlock and re-acquire): drop the stale
    // binding and re-acquire.
    unbind_slot_locked(slot);
    bindings_.erase(it);
    recovered = true;
  }

  Waiter waiter{&ctx, std::nullopt, false};
  waiting_.push_back(&waiter);
  ctx.state.store(ContextState::Waiting, std::memory_order_release);
  match_locked();
  vt::Domain& dom = rt_->machine().domain();
  const vt::TimePoint wait_start = dom.now();
  const auto granted_or_hopeless = [&] {
    return waiter.granted.has_value() || waiter.hopeless;
  };
  if (config_.device_wait_grace_seconds <= 0.0) {
    cv_.wait(lk, granted_or_hopeless);
  } else {
    // Graceful degradation: survive windows with no alive vGPU (a node
    // dark between crash and rejoin) by waiting out the grace period; give
    // up only if a full grace elapses while the cluster is still dark.
    const vt::Duration grace = vt::from_seconds(config_.device_wait_grace_seconds);
    while (!granted_or_hopeless()) {
      if (cv_.wait_for(lk, grace, granted_or_hopeless)) break;
      const bool any_alive = std::any_of(slots_.begin(), slots_.end(),
                                         [](const auto& s) { return s->alive; });
      if (!any_alive) {
        waiter.hopeless = true;
        break;
      }
    }
  }
  waiting_.erase(std::find(waiting_.begin(), waiting_.end(), &waiter));
  ctx.state.store(waiter.hopeless ? ContextState::Failed : ContextState::Assigned,
                  std::memory_order_release);
  publish_load_locked();
  const vt::Duration waited = dom.now() - wait_start;
  queue_wait_hist().observe(vt::to_seconds(waited));
  queue_wait_local_.observe(vt::to_seconds(waited));
  // On the per-context track: a slot track could show overlapping spans
  // (the previous holder's kernel vs. this waiter), which breaks nesting.
  obs::emit_span("queue-wait", "sched", obs::kRuntimePid, ctx.id.value, wait_start, waited,
                 ctx.id.value);
  if (waiter.hopeless) return Status::ErrorDeviceUnavailable;
  ++stats_.binds;
  if (waiter.granted->migrated && !recovered) ++stats_.migrations;
  waiter.granted->recovered_from_failure = recovered;
  obs::emit_instant(waiter.granted->migrated ? "bind (migrated)" : "bind", "sched",
                    obs::kRuntimePid, ctx.id.value, ctx.id.value);
  return *waiter.granted;
}

void Scheduler::unbind_slot_locked(Slot* slot) {
  slot->bound = ContextId{};
  slot->bound_at = vt::TimePoint{};
  slot->expires = vt::TimePoint{};
  slot->next_sweep = vt::TimePoint{};
}

void Scheduler::release(Context& ctx) {
  std::unique_lock lk(mu_);
  recovering_.erase(ctx.id);  // a departing context has nothing to recover
  const auto it = bindings_.find(ctx.id);
  if (it == bindings_.end()) return;
  held_hist().observe(
      vt::to_seconds(rt_->machine().domain().now() - it->second->bound_at));
  unbind_slot_locked(it->second);
  bindings_.erase(it);
  ctx.state.store(ContextState::Detached, std::memory_order_release);
  ++stats_.unbinds;
  obs::emit_instant("unbind", "sched", obs::kRuntimePid, ctx.id.value, ctx.id.value);
  match_locked();
}

Status Scheduler::preempt(Context& ctx) {
  std::unique_lock lk(mu_);
  const auto it = bindings_.find(ctx.id);
  if (it == bindings_.end()) return Status::ErrorInvalidValue;
  const vt::TimePoint now = rt_->machine().domain().now();
  held_hist().observe(vt::to_seconds(now - it->second->bound_at));
  unbind_slot_locked(it->second);
  bindings_.erase(it);
  ctx.state.store(ContextState::Detached, std::memory_order_release);
  ++stats_.unbinds;
  ++stats_.preemptions;
  obs::emit_instant("preempt", "sched", obs::kRuntimePid, ctx.id.value, ctx.id.value);
  policy_->on_preempt(ctx, now);
  // Every preemption closes one rotation window for the governor.
  governor_window_locked();
  match_locked();
  return Status::Ok;
}

bool Scheduler::quantum_expired(ContextId ctx) const {
  std::unique_lock lk(mu_);
  const auto it = bindings_.find(ctx);
  if (it == bindings_.end()) return false;
  const Slot* slot = it->second;
  if (slot->expires == vt::TimePoint{}) return false;
  if (waiting_.empty()) return false;  // nothing to rotate to
  return rt_->machine().domain().now() >= slot->expires;
}

void Scheduler::governor_window_locked() {
  const MemStats ms = mm_->stats();
  const u64 bytes = ms.swap_out_bytes + ms.swap_in_bytes;
  const u64 binds = stats_.binds;
  const double quantum =
      governor_.on_window(bytes - window_swap_bytes_, binds - window_binds_);
  window_swap_bytes_ = bytes;
  window_binds_ = binds;
  if (governor_.trips() != stats_.thrash_trips) {
    stats_.thrash_trips = governor_.trips();
    log::info("scheduler: thrash governor raised quantum to %.3f ms",
              quantum * 1e3);
  }
}

std::optional<vt::TimePoint> Scheduler::next_pump_wake_locked() const {
  std::optional<vt::TimePoint> wake;
  for (const auto& slot : slots_) {
    if (!slot->alive || !slot->bound.valid()) continue;
    if (slot->expires == vt::TimePoint{}) continue;
    const vt::TimePoint due = std::max(slot->expires, slot->next_sweep);
    if (!wake.has_value() || due < *wake) wake = due;
  }
  return wake;
}

void Scheduler::pump_loop() {
  // Quantum-expiry pump: wakes exactly at binding deadlines (no paced
  // polling -- sample instants that tie with unrelated workload events
  // would make the replay wake order unspecified) and asks the installed
  // executor to swap the expired holder out. A victim mid-call refuses the
  // try_lock; next_sweep keeps the pump retrying while quantum_expired()
  // lets the victim's own launch loop yield at the kernel boundary.
  vt::Domain& dom = rt_->machine().domain();
  std::unique_lock lk(mu_);
  while (!stop_pump_) {
    const auto wake = next_pump_wake_locked();
    if (!wake.has_value()) {
      pump_cv_.wait(lk, [&] {
        return stop_pump_ || next_pump_wake_locked().has_value();
      });
      continue;
    }
    if (dom.now() < *wake) {
      lk.unlock();
      dom.sleep_until(*wake);
      lk.lock();
      continue;  // bindings may have churned during the sleep; recompute
    }
    const vt::TimePoint now = dom.now();
    const vt::Duration quantum = vt::from_seconds(governor_.quantum_seconds());
    std::vector<ContextId> victims;
    for (const auto& slot : slots_) {
      if (!slot->alive || !slot->bound.valid()) continue;
      if (slot->expires == vt::TimePoint{}) continue;
      if (now < std::max(slot->expires, slot->next_sweep)) continue;
      if (waiting_.empty()) {
        // Uncontended: nothing to rotate to; re-arm the window so a later
        // waiter is served at most one quantum after it arrives.
        slot->expires = now + quantum;
        slot->next_sweep = vt::TimePoint{};
        continue;
      }
      victims.push_back(slot->bound);
      slot->next_sweep = now + quantum;  // retry pace if the victim refuses
    }
    if (victims.empty()) continue;
    const PreemptExecutor executor = preempt_executor_;
    lk.unlock();
    for (const ContextId id : victims) {
      if (executor) (void)executor(id);
    }
    lk.lock();
  }
}

StatusOr<int> Scheduler::force_preempt_sweep() {
  if (!policy_->preemptive()) return 0;
  PreemptExecutor executor;
  std::vector<ContextId> victims;
  {
    std::unique_lock lk(mu_);
    if (!preempt_executor_) return Status::ErrorNotSupported;
    executor = preempt_executor_;
    for (const auto& slot : slots_) {
      if (slot->alive && slot->bound.valid()) victims.push_back(slot->bound);
    }
  }
  int preempted = 0;
  for (const ContextId id : victims) {
    if (executor(id)) ++preempted;
  }
  return preempted;
}

std::optional<Scheduler::Binding> Scheduler::binding_of(ContextId ctx) const {
  std::unique_lock lk(mu_);
  const auto it = bindings_.find(ctx);
  if (it == bindings_.end()) return std::nullopt;
  return Binding{it->second->index, it->second->gpu, it->second->client, false, false};
}

bool Scheduler::context_bound(ContextId ctx) const {
  std::unique_lock lk(mu_);
  return bindings_.count(ctx) != 0;
}

int Scheduler::vgpu_count() const {
  std::scoped_lock lk(load_mu_);
  return load_.vgpus;
}

int Scheduler::waiting_count() const {
  std::scoped_lock lk(load_mu_);
  return load_.waiting;
}

int Scheduler::bound_count() const {
  std::scoped_lock lk(load_mu_);
  return load_.bound;
}

bool Scheduler::has_waiters() const { return waiting_count() > 0; }

Scheduler::LoadCounts Scheduler::load_counts() const {
  std::scoped_lock lk(load_mu_);
  return load_;
}

std::map<GpuId, int> Scheduler::load_by_gpu() const {
  std::unique_lock lk(mu_);
  std::map<GpuId, int> load;
  for (const auto& slot : slots_) {
    if (!slot->alive) continue;
    load.try_emplace(slot->gpu, 0);
    if (slot->bound.valid()) ++load[slot->gpu];
  }
  return load;
}

bool Scheduler::faster_gpu_idle(GpuId current) const {
  if (!config_.enable_migration) return false;
  std::unique_lock lk(mu_);
  double current_speed = 0.0;
  for (const auto& slot : slots_) {
    if (slot->gpu == current) {
      current_speed = slot->speed;
      break;
    }
  }
  for (const auto& slot : slots_) {
    if (slot->alive && !slot->bound.valid() && slot->speed > current_speed) return true;
  }
  return false;
}

SchedulerStats Scheduler::stats() const {
  std::unique_lock lk(mu_);
  SchedulerStats out = stats_;
  out.quantum_ns = governor_.quantum_seconds() * 1e9;
  return out;
}

std::vector<Scheduler::SlotSnapshot> Scheduler::slots_snapshot() const {
  std::unique_lock lk(mu_);
  std::vector<SlotSnapshot> out;
  out.reserve(slots_.size());
  for (const auto& slot : slots_) {
    out.push_back(SlotSnapshot{slot->index, slot->gpu, slot->alive, slot->bound});
  }
  return out;
}

}  // namespace gpuvm::core
