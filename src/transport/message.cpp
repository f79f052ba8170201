#include "transport/message.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

namespace gpuvm::transport {

namespace {
constexpr u32 kMagic = 0x6776764d;  // "gvvM"
constexpr u64 kMaxFrameBytes = 1ull << 30;
}  // namespace

std::vector<u8> encode_frame(const Message& msg) {
  WireWriter w;
  w.put<u32>(kMagic);
  w.put<u16>(static_cast<u16>(msg.op));
  w.put<u64>(msg.connection.value);
  w.put<u64>(msg.payload.size());
  auto out = w.take();
  out.insert(out.end(), msg.payload.begin(), msg.payload.end());
  return out;
}

bool FrameDecoder::feed(std::span<const u8> data, std::vector<Message>& out) {
  if (poisoned_) return false;
  buf_.insert(buf_.end(), data.begin(), data.end());
  constexpr size_t kHeader = 4 + 2 + 8 + 8;
  size_t pos = 0;
  while (buf_.size() - pos >= kHeader) {
    WireReader r(std::span<const u8>(buf_).subspan(pos));
    const u32 magic = r.get<u32>();
    const u16 op = r.get<u16>();
    const u64 conn = r.get<u64>();
    const u64 len = r.get<u64>();
    if (magic != kMagic || len > kMaxFrameBytes) {
      poisoned_ = true;
      buf_.clear();
      return false;
    }
    if (buf_.size() - pos - kHeader < len) break;  // incomplete frame
    Message msg;
    msg.op = static_cast<Opcode>(op);
    msg.connection = ConnectionId{conn};
    msg.payload.assign(buf_.begin() + static_cast<long>(pos + kHeader),
                       buf_.begin() + static_cast<long>(pos + kHeader + len));
    out.push_back(std::move(msg));
    pos += kHeader + len;
  }
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(pos));
  return true;
}

Message make_reply(ConnectionId conn, Status status, std::vector<u8> payload) {
  Message msg;
  msg.op = Opcode::Reply;
  msg.connection = conn;
  WireWriter w;
  w.put<i32>(static_cast<i32>(status));
  msg.payload = w.take();
  msg.payload.insert(msg.payload.end(), payload.begin(), payload.end());
  return msg;
}

Status reply_status(const Message& reply) {
  WireReader r(reply.payload);
  const i32 s = r.get<i32>();
  if (!r.ok()) return Status::ErrorProtocol;
  return static_cast<Status>(s);
}

std::span<const u8> reply_payload(const Message& reply) {
  if (reply.payload.size() < sizeof(i32)) return {};
  return std::span<const u8>(reply.payload).subspan(sizeof(i32));
}

std::vector<u8> encode_hello(const HelloPayload& hello) {
  WireWriter w;
  w.put<u32>(protocol::kHandshakeMagic);
  w.put<u16>(hello.version);
  w.put<u32>(hello.caps);
  w.put<double>(hello.job_cost_hint_seconds);
  w.put<u8>(hello.forwarded ? 1 : 0);
  w.put<u64>(hello.app_id);
  w.put<double>(hello.deadline_seconds);
  // Trailing trace context (caps::kTraceContext). Decoders that predate it
  // stop reading before these words; everyone else reads them iff present.
  w.put<u64>(hello.trace_id);
  w.put<u64>(hello.parent_span);
  return w.take();
}

StatusOr<HelloPayload> decode_hello(std::span<const u8> payload) {
  WireReader r(payload);
  const u32 magic = r.get<u32>();
  if (!r.ok() || magic != protocol::kHandshakeMagic) {
    return Status::ErrorProtocolMismatch;  // pre-handshake (v1) or alien peer
  }
  HelloPayload hello;
  hello.version = r.get<u16>();
  hello.caps = r.get<u32>();
  if (!r.ok()) return Status::ErrorProtocol;
  if (hello.version < protocol::kMinProtocolVersion ||
      hello.version > protocol::kProtocolVersion) {
    return Status::ErrorProtocolMismatch;
  }
  hello.job_cost_hint_seconds = r.get<double>();
  hello.forwarded = r.get<u8>() != 0;
  hello.app_id = r.get<u64>();
  hello.deadline_seconds = r.get<double>();
  if (!r.ok()) return Status::ErrorProtocol;
  // Optional trailing trace context: absent from peers that predate
  // caps::kTraceContext (their payload ends here), zero when the client
  // has no trace installed.
  if (r.remaining() >= 2 * sizeof(u64)) {
    hello.trace_id = r.get<u64>();
    hello.parent_span = r.get<u64>();
    if (!r.ok()) return Status::ErrorProtocol;
  }
  return hello;
}

std::vector<u8> encode_hello_reply(const HelloReply& reply) {
  WireWriter w;
  w.put<u64>(reply.context_id);
  w.put<u16>(reply.version);
  w.put<u32>(reply.caps);
  return w.take();
}

StatusOr<HelloReply> decode_hello_reply(std::span<const u8> payload) {
  WireReader r(payload);
  HelloReply reply;
  reply.context_id = r.get<u64>();
  reply.version = r.get<u16>();
  reply.caps = r.get<u32>();
  if (!r.ok()) return Status::ErrorProtocol;
  return reply;
}

double LoadSnapshot::load_score() const {
  if (vgpu_count <= 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(pending_contexts + active_contexts) /
         static_cast<double>(vgpu_count);
}

u64 LoadSnapshot::max_free_bytes() const {
  u64 best = 0;
  for (const DeviceLoad& dev : devices) best = std::max(best, dev.free_bytes);
  return best;
}

std::vector<u8> encode_load(const LoadSnapshot& load) {
  WireWriter w;
  w.put<u64>(load.node);
  w.put<u64>(load.seq);
  w.put<i64>(load.vt_ns);
  w.put<i32>(load.pending_contexts);
  w.put<i32>(load.bound_contexts);
  w.put<i32>(load.active_contexts);
  w.put<i32>(load.vgpu_count);
  w.put<double>(load.queue_wait_p50_seconds);
  w.put<u64>(load.devices.size());
  for (const DeviceLoad& dev : load.devices) {
    w.put<u64>(dev.gpu);
    w.put<u64>(dev.free_bytes);
    w.put<u64>(dev.total_bytes);
    w.put<i32>(dev.vgpus);
    w.put<i32>(dev.bound);
  }
  // Trailing tenant table: older decoders stop at the device list.
  w.put<u64>(load.tenants.size());
  for (const TenantLoad& tenant : load.tenants) {
    w.put<u64>(tenant.ctx);
    w.put<i32>(tenant.state);
  }
  return w.take();
}

StatusOr<LoadSnapshot> decode_load(std::span<const u8> payload) {
  WireReader r(payload);
  LoadSnapshot load;
  load.node = r.get<u64>();
  load.seq = r.get<u64>();
  load.vt_ns = r.get<i64>();
  load.pending_contexts = r.get<i32>();
  load.bound_contexts = r.get<i32>();
  load.active_contexts = r.get<i32>();
  load.vgpu_count = r.get<i32>();
  load.queue_wait_p50_seconds = r.get<double>();
  const u64 devices = r.get_count(3 * sizeof(u64) + 2 * sizeof(i32));
  if (!r.ok() || devices > (1u << 16)) return Status::ErrorProtocol;
  load.devices.reserve(devices);
  for (u64 i = 0; i < devices; ++i) {
    DeviceLoad dev;
    dev.gpu = r.get<u64>();
    dev.free_bytes = r.get<u64>();
    dev.total_bytes = r.get<u64>();
    dev.vgpus = r.get<i32>();
    dev.bound = r.get<i32>();
    load.devices.push_back(dev);
  }
  if (!r.ok()) return Status::ErrorProtocol;
  // Optional trailing tenant table (absent from pre-trace daemons).
  if (r.remaining() > 0) {
    const u64 tenants = r.get_count(sizeof(u64) + sizeof(i32));
    if (!r.ok() || tenants > (1u << 20)) return Status::ErrorProtocol;
    load.tenants.reserve(tenants);
    for (u64 i = 0; i < tenants; ++i) {
      TenantLoad tenant;
      tenant.ctx = r.get<u64>();
      tenant.state = r.get<i32>();
      load.tenants.push_back(tenant);
    }
    if (!r.ok()) return Status::ErrorProtocol;
  }
  return load;
}

std::vector<u8> encode_query_load(i64 interval_ns) {
  WireWriter w;
  w.put<i64>(interval_ns);
  return w.take();
}

StatusOr<i64> decode_query_load(std::span<const u8> payload) {
  // An empty payload is a plain one-shot poll (forward compatibility).
  if (payload.empty()) return i64{0};
  WireReader r(payload);
  const i64 interval = r.get<i64>();
  if (!r.ok() || interval < 0) return Status::ErrorProtocol;
  return interval;
}

std::vector<u8> encode_migrate_chunk(const MigrateChunkPayload& chunk) {
  WireWriter w;
  w.put<u32>(chunk.round);
  w.put_bytes(chunk.image);
  return w.take();
}

StatusOr<MigrateChunkPayload> decode_migrate_chunk(std::span<const u8> payload) {
  WireReader r(payload);
  MigrateChunkPayload chunk;
  chunk.round = r.get<u32>();
  auto image = r.get_bytes();
  if (!r.ok()) return Status::ErrorProtocol;
  chunk.image.assign(image.begin(), image.end());
  return chunk;
}

std::vector<u8> encode_migrate_resume(const MigrateResumePayload& resume) {
  WireWriter w;
  w.put_bytes(resume.delta);
  w.put<u64>(resume.functions.size());
  for (const MigrateFunction& fn : resume.functions) {
    w.put<u64>(fn.handle);
    w.put_string(fn.name);
  }
  w.put<u64>(resume.modules.size());
  for (u64 module : resume.modules) w.put<u64>(module);
  w.put<u64>(resume.next_module);
  w.put<u8>(resume.pinned ? 1 : 0);
  w.put<double>(resume.gpu_time_used_seconds);
  w.put<u8>(resume.has_pending_config ? 1 : 0);
  w.put_bytes(resume.pending_config);
  w.put<u64>(resume.pending_args.size());
  for (const MigrateArg& arg : resume.pending_args) {
    w.put<u8>(arg.kind);
    w.put<u64>(arg.bits);
  }
  return w.take();
}

StatusOr<MigrateResumePayload> decode_migrate_resume(std::span<const u8> payload) {
  WireReader r(payload);
  MigrateResumePayload resume;
  auto delta = r.get_bytes();
  if (!r.ok()) return Status::ErrorProtocol;
  resume.delta.assign(delta.begin(), delta.end());
  const u64 functions = r.get_count(2 * sizeof(u64));  // handle + name length
  if (!r.ok() || functions > (1u << 20)) return Status::ErrorProtocol;
  resume.functions.reserve(functions);
  for (u64 i = 0; i < functions; ++i) {
    MigrateFunction fn;
    fn.handle = r.get<u64>();
    fn.name = r.get_string();
    resume.functions.push_back(std::move(fn));
  }
  const u64 modules = r.get_count(sizeof(u64));
  if (!r.ok() || modules > (1u << 20)) return Status::ErrorProtocol;
  resume.modules.reserve(modules);
  for (u64 i = 0; i < modules; ++i) resume.modules.push_back(r.get<u64>());
  resume.next_module = r.get<u64>();
  resume.pinned = r.get<u8>() != 0;
  resume.gpu_time_used_seconds = r.get<double>();
  resume.has_pending_config = r.get<u8>() != 0;
  auto config = r.get_bytes();
  if (!r.ok()) return Status::ErrorProtocol;
  resume.pending_config.assign(config.begin(), config.end());
  const u64 args = r.get_count(sizeof(u8) + sizeof(u64));
  if (!r.ok() || args > (1u << 16)) return Status::ErrorProtocol;
  resume.pending_args.reserve(args);
  for (u64 i = 0; i < args; ++i) {
    MigrateArg arg;
    arg.kind = r.get<u8>();
    arg.bits = r.get<u64>();
    resume.pending_args.push_back(arg);
  }
  if (!r.ok()) return Status::ErrorProtocol;
  return resume;
}

}  // namespace gpuvm::transport
