// Wire message frames for the interposition protocol.
//
// Mirrors the gVirtuS design the paper builds on: the frontend library
// intercepts CUDA calls and ships them as opcode + payload frames to the
// runtime daemon, which replies with a status + payload frame. The same
// frames travel node-to-node for inter-node offloading.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"
#include "common/wire.hpp"

namespace gpuvm::transport {

enum class Opcode : u16 {
  // Connection control
  Hello = 1,         ///< opens a connection (one per application thread)
  Goodbye = 2,       ///< orderly teardown
  // Registration (issued before any context exists)
  RegisterFatBinary = 10,
  UnregisterFatBinary = 11,
  RegisterFunction = 12,
  RegisterVar = 13,
  RegisterTexture = 14,
  // Device management
  GetDeviceCount = 20,
  SetDevice = 21,
  GetDevice = 22,
  // Memory
  Malloc = 30,
  Free = 31,
  MemcpyH2D = 32,
  MemcpyD2H = 33,
  MemcpyD2D = 34,
  // Execution
  ConfigureCall = 40,
  SetupArgument = 41,
  Launch = 42,
  Synchronize = 43,
  GetLastError = 44,
  // gpuvm runtime extensions
  RegisterNested = 50,   ///< declare a nested data structure (paper's API)
  Checkpoint = 51,       ///< explicit user checkpoint
  // Inter-node offloading control
  OffloadConnection = 60,
  // Observability
  QueryStats = 70,  ///< returns a MetricsSnapshot of the daemon's registry
  // Load telemetry (protocol v3, gated by caps::kQueryLoad)
  QueryLoad = 71,   ///< returns a LoadSnapshot; interval > 0 subscribes
  LoadReport = 72,  ///< unsolicited daemon->client heartbeat (LoadSnapshot)
  // Live migration (protocol v4, gated by caps::kMigrate)
  MigrateChunk = 81,   ///< pre-copy round: sparse image (round 0) or delta
  MigrateResume = 82,  ///< stop-and-copy: final delta + context metadata
  // Replies
  Reply = 100,
};

struct Message {
  Opcode op = Opcode::Reply;
  ConnectionId connection{};
  std::vector<u8> payload;
};

/// Encodes a message into a length-prefixed frame suitable for a byte
/// stream (unix socket / TCP stand-in).
std::vector<u8> encode_frame(const Message& msg);

/// Incremental frame decoder for stream transports.
class FrameDecoder {
 public:
  /// Feed raw bytes; complete messages are appended to `out`. Returns
  /// false (and poisons the decoder) on a malformed frame.
  bool feed(std::span<const u8> data, std::vector<Message>& out);

  bool poisoned() const { return poisoned_; }

 private:
  std::vector<u8> buf_;
  bool poisoned_ = false;
};

/// Helpers for the common reply shape: status + optional payload.
Message make_reply(ConnectionId conn, Status status, std::vector<u8> payload = {});
Status reply_status(const Message& reply);
/// Payload bytes after the leading status word.
std::span<const u8> reply_payload(const Message& reply);

// ---- Handshake (Hello / Hello reply) ---------------------------------------
//
// Since protocol version 2 the Hello payload leads with a magic word, the
// speaker's protocol version and its capability bits; the daemon replies
// with the context id, its own version and the negotiated (intersected)
// capability set. Optional ops like QueryStats may only be issued when
// their bit survived negotiation. A payload without the magic word comes
// from a pre-handshake (version 1) peer and is rejected with
// ErrorProtocolMismatch.

struct HelloPayload {
  u16 version = protocol::kProtocolVersion;
  u32 caps = protocol::caps::kAll;  ///< capabilities the client supports
  double job_cost_hint_seconds = 0.0;
  bool forwarded = false;  ///< set by a proxying daemon (offload)
  u64 app_id = 0;
  double deadline_seconds = 0.0;
  /// Causal trace identity (caps::kTraceContext), trailing so pre-span
  /// decoders skip it: the daemon stamps the connection's obs events with
  /// this trace, parenting them under the client-side span that opened the
  /// connection. 0 = no trace.
  u64 trace_id = 0;
  u64 parent_span = 0;
};

std::vector<u8> encode_hello(const HelloPayload& hello);
/// ErrorProtocolMismatch: missing magic (old peer) or unsupported version.
/// ErrorProtocol: truncated/garbled payload.
StatusOr<HelloPayload> decode_hello(std::span<const u8> payload);

struct HelloReply {
  u64 context_id = 0;
  u16 version = protocol::kProtocolVersion;  ///< daemon's protocol version
  u32 caps = 0;                              ///< negotiated capability set
};

std::vector<u8> encode_hello_reply(const HelloReply& reply);
StatusOr<HelloReply> decode_hello_reply(std::span<const u8> payload);

// ---- Load telemetry (QueryLoad / LoadReport, protocol v3) ------------------
//
// A LoadSnapshot is the daemon's answer to "how busy are you": queue depth,
// binding pressure and free device memory, stamped with the daemon's virtual
// time so heartbeat streams replay bit-identically under chaos. A client
// that negotiated caps::kQueryLoad may poll one snapshot (QueryLoad with
// interval_ns == 0) or subscribe (interval_ns > 0). A subscription's reply
// carries the first snapshot; after it the daemon pushes a LoadReport on the
// same channel, until the channel closes, at the first instant of its grid
// (the last report's send instant plus a whole number of intervals) after
// any change to the snapshot other than seq, vt_ns and the queue-wait p50,
// and at the latest keepalive_ns after the last report. The head-node
// NodeDirectory is the intended consumer.

/// Per-physical-device slice of a LoadSnapshot.
struct DeviceLoad {
  u64 gpu = 0;          ///< GpuId::value
  u64 free_bytes = 0;   ///< unallocated device memory
  u64 total_bytes = 0;
  i32 vgpus = 0;        ///< alive vGPU slots backed by this device
  i32 bound = 0;        ///< of which currently bound to a context
};

/// Per-context (tenant) slice of a LoadSnapshot: which applications a node
/// is carrying and where each sits in its lifecycle. Built from atomics
/// only, so snapshots race nothing.
struct TenantLoad {
  u64 ctx = 0;    ///< ContextId.value
  i32 state = 0;  ///< core::ContextState numeric value
};

struct LoadSnapshot {
  u64 node = 0;    ///< NodeId::value of the reporting daemon (0 = unset)
  u64 seq = 0;     ///< reports of this subscription so far (0 for polls)
  i64 vt_ns = 0;   ///< daemon virtual time at snapshot (staleness tracking)
  i32 pending_contexts = 0;  ///< contexts blocked waiting for a vGPU
  i32 bound_contexts = 0;    ///< contexts currently bound to a vGPU
  i32 active_contexts = 0;   ///< live contexts, including CPU phases
  i32 vgpu_count = 0;        ///< alive vGPUs (0 = node is dark)
  /// Recent queue-wait p50 (seconds) from the obs histogram: for a pushed
  /// report the window runs since the subscription's previous report, for
  /// one-shot polls it is the daemon's lifetime. A change of it alone
  /// pushes no report.
  double queue_wait_p50_seconds = 0.0;
  std::vector<DeviceLoad> devices;
  /// Live contexts by id and lifecycle state (gpuvm_top's tenant table).
  /// Trailing on the wire: snapshots from older daemons decode with an
  /// empty list.
  std::vector<TenantLoad> tenants;

  /// Dispatch pressure per vGPU: queued + live contexts over capacity.
  /// Dark nodes (no alive vGPU) rank worse than any loaded node.
  double load_score() const;
  /// Largest free-memory block any single device offers (MemoryAware fit).
  u64 max_free_bytes() const;
};

std::vector<u8> encode_load(const LoadSnapshot& load);
StatusOr<LoadSnapshot> decode_load(std::span<const u8> payload);

/// QueryLoad request payload: the i64 interval_ns (0 = one-shot poll, > 0 =
/// subscribe on this grid), then an optional trailing i64 keepalive_ns, the
/// longest gap between two reports. A payload without it (older clients)
/// means keepalive_ns == interval_ns: a report every interval.
struct QueryLoadRequest {
  i64 interval_ns = 0;
  i64 keepalive_ns = 0;
};

/// Without a keepalive (the older form).
std::vector<u8> encode_query_load(i64 interval_ns);
std::vector<u8> encode_query_load(i64 interval_ns, i64 keepalive_ns);
/// ErrorProtocol for a truncated or negative interval. A subscription is
/// refused with ErrorInvalidValue when its interval is below
/// tuning::kMinReportInterval, its keepalive below its interval, or either
/// one above what report deadlines can hold without overflow (see
/// tuning::kMaxReportKeepalive). A poll's keepalive is ignored.
StatusOr<QueryLoadRequest> decode_query_load(std::span<const u8> payload);

// ---- Live migration (MigrateChunk / MigrateResume, protocol v4) ------------
//
// A migrating source opens a normal forwarded connection to the target (so
// admission, tracing and teardown reuse the existing paths), then streams
// the victim's memory image in rounds. Round 0 carries the sparse
// checkpoint image (export_image); later rounds carry dirty-interval deltas
// collected while the job kept running. The final MigrateResume carries the
// last delta plus everything the target needs to impersonate the context:
// registered functions, modules, pending launch state and accounting.

struct MigrateChunkPayload {
  u32 round = 0;          ///< 0 = full sparse image, >= 1 = delta
  std::vector<u8> image;  ///< export_image (round 0) or migration delta
};

std::vector<u8> encode_migrate_chunk(const MigrateChunkPayload& chunk);
StatusOr<MigrateChunkPayload> decode_migrate_chunk(std::span<const u8> payload);

/// One registered kernel symbol of the migrating context.
struct MigrateFunction {
  u64 handle = 0;
  std::string name;
};

/// One buffered SetupArgument of an in-flight ConfigureCall.
struct MigrateArg {
  u8 kind = 0;   ///< sim::KernelArg::Kind numeric value
  u64 bits = 0;  ///< raw argument bits (pointer value or scalar)
};

struct MigrateResumePayload {
  std::vector<u8> delta;  ///< final stop-and-copy migration delta
  std::vector<MigrateFunction> functions;
  std::vector<u64> modules;
  u64 next_module = 1;
  bool pinned = false;
  double gpu_time_used_seconds = 0.0;
  /// In-flight launch configuration (ConfigureCall without a Launch yet).
  bool has_pending_config = false;
  std::vector<u8> pending_config;  ///< raw sim::LaunchConfig bytes
  std::vector<MigrateArg> pending_args;
};

std::vector<u8> encode_migrate_resume(const MigrateResumePayload& resume);
StatusOr<MigrateResumePayload> decode_migrate_resume(std::span<const u8> payload);

}  // namespace gpuvm::transport
