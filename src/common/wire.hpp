// Binary serialization for the interposition wire protocol.
//
// The paper's prototype marshals CUDA calls over gVirtuS AF_UNIX sockets;
// gpuvm keeps that split honest by encoding every frontend<->daemon and
// node<->node message through this little-endian, length-prefixed format,
// whichever transport carries the bytes.
#pragma once

#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.hpp"
#include "common/types.hpp"

namespace gpuvm {

namespace protocol {

/// Leading word of a version-2 Hello payload. Version-1 peers began the
/// payload with a raw double (the job-cost hint), whose low mantissa bytes
/// never collide with this value for any realistic hint -- so a missing
/// magic cleanly identifies a pre-handshake peer.
inline constexpr u32 kHandshakeMagic = 0x47564831;  // "1HVG" little-endian

/// Current protocol version. Bump when the wire format of any op changes
/// incompatibly; optional *additions* are negotiated via capability bits
/// instead, without a version bump. v3 adds the QueryLoad/LoadReport load
/// telemetry ops behind caps::kQueryLoad; v4 adds the MigrateChunk/
/// MigrateResume live-migration ops behind caps::kMigrate. The frames of
/// every v2/v3 op are unchanged, so older peers still interoperate (minus
/// the gated ops).
inline constexpr u16 kProtocolVersion = 4;
/// Oldest version this build still speaks.
inline constexpr u16 kMinProtocolVersion = 2;

/// Capability bits exchanged in the handshake. Each side advertises what it
/// supports; the negotiated set is the intersection. Optional ops (e.g.
/// QueryStats) must only be issued when the corresponding bit survived
/// negotiation -- a peer without the bit replies ErrorNotSupported.
namespace caps {
inline constexpr u32 kQueryStats = 1u << 0;      ///< Opcode::QueryStats
inline constexpr u32 kRegisterNested = 1u << 1;  ///< Opcode::RegisterNested
inline constexpr u32 kCheckpoint = 1u << 2;      ///< Opcode::Checkpoint
inline constexpr u32 kOffload = 1u << 3;         ///< connection may be proxied
inline constexpr u32 kQueryLoad = 1u << 4;       ///< Opcode::QueryLoad + LoadReport
                                                 ///< heartbeats (protocol v3)
/// The Hello payload carries a causal TraceContext (trailing trace_id +
/// parent_span words) and the daemon stamps the connection's obs events
/// with it. Peers without the bit decode the same frames -- the trailing
/// fields are simply ignored -- so no version bump: spans degrade to a
/// per-process trace with an annotated gap.
inline constexpr u32 kTraceContext = 1u << 5;
/// Opcode::MigrateChunk + Opcode::MigrateResume (protocol v4): the peer can
/// receive a live-migrated context (pre-copy image chunks followed by a
/// stop-and-copy resume). A source never ships state to a peer that did not
/// negotiate the bit -- it aborts the migration and keeps the job local.
inline constexpr u32 kMigrate = 1u << 6;

inline constexpr u32 kAll = kQueryStats | kRegisterNested | kCheckpoint | kOffload | kQueryLoad |
                            kTraceContext | kMigrate;
}  // namespace caps

}  // namespace protocol

/// Append-only encoder.
class WireWriter {
 public:
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& value) {
    const auto* bytes = reinterpret_cast<const u8*>(&value);
    buf_.insert(buf_.end(), bytes, bytes + sizeof(T));
  }

  void put_bytes(std::span<const u8> bytes) {
    put<u64>(bytes.size());
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  void put_string(std::string_view s) {
    put_bytes({reinterpret_cast<const u8*>(s.data()), s.size()});
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_vector(const std::vector<T>& v) {
    put<u64>(v.size());
    const auto* bytes = reinterpret_cast<const u8*>(v.data());
    buf_.insert(buf_.end(), bytes, bytes + v.size() * sizeof(T));
  }

  const std::vector<u8>& bytes() const { return buf_; }
  std::vector<u8> take() { return std::move(buf_); }

 private:
  std::vector<u8> buf_;
};

/// Cursor-based decoder. All getters report malformed input through ok();
/// once a read fails every later read returns default values.
class WireReader {
 public:
  explicit WireReader(std::span<const u8> data) : data_(data) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T get() {
    T value{};
    if (!take(sizeof(T))) return value;
    std::memcpy(&value, data_.data() + pos_ - sizeof(T), sizeof(T));
    return value;
  }

  std::vector<u8> get_bytes() {
    const u64 n = get<u64>();
    std::vector<u8> out;
    if (!take(n)) return out;
    out.assign(data_.begin() + static_cast<long>(pos_ - n), data_.begin() + static_cast<long>(pos_));
    return out;
  }

  std::string get_string() {
    const auto raw = get_bytes();
    return std::string(raw.begin(), raw.end());
  }

  /// Reads a u64 element count and fails the reader unless the remaining
  /// payload can hold that many `elem_bytes`-sized elements, so a decoder
  /// never sizes an allocation beyond the frame it received.
  u64 get_count(size_t elem_bytes) {
    const u64 n = get<u64>();
    if (n > remaining() / elem_bytes) {
      ok_ = false;
      return 0;
    }
    return n;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> get_vector() {
    const u64 n = get_count(sizeof(T));
    std::vector<T> out;
    if (!take(n * sizeof(T))) return out;
    out.resize(n);
    std::memcpy(out.data(), data_.data() + pos_ - n * sizeof(T), n * sizeof(T));
    return out;
  }

  /// Borrow `n` raw bytes without copying (valid while the backing buffer
  /// lives). Used for bulk data payloads.
  std::span<const u8> get_span() {
    const u64 n = get<u64>();
    if (!take(n)) return {};
    return data_.subspan(pos_ - n, n);
  }

 private:
  bool take(size_t n) {
    if (!ok_ || remaining() < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  std::span<const u8> data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace gpuvm
