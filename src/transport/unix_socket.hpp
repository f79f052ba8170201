// AF_UNIX socket transport.
//
// The paper's prototype uses gVirtuS's socket framework ("afunix sockets in
// a non-virtualized environment"). This transport sends the same frames as
// the in-process channels over a real unix-domain stream socket, keeping
// the marshal/unmarshal path honest in end-to-end tests. Receive blocking
// happens under a vt::IdleGuard so real socket waits do not stall the
// virtual clock.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "common/status.hpp"
#include "common/types.hpp"
#include "transport/channel.hpp"

namespace gpuvm::transport {

/// Client side: connects to a listening daemon socket.
Result<std::unique_ptr<MessageChannel>> unix_connect(const std::string& path);

/// Server side: accepts connections and hands each to `on_accept` (called
/// on the acceptor thread; handlers should move the channel to a worker).
class UnixSocketServer {
 public:
  using AcceptHandler = std::function<void(std::unique_ptr<MessageChannel>)>;

  /// Binds and starts accepting on `path` (unlinked first if stale).
  static Result<std::unique_ptr<UnixSocketServer>> listen(const std::string& path,
                                                          AcceptHandler on_accept);

  ~UnixSocketServer();

  UnixSocketServer(const UnixSocketServer&) = delete;
  UnixSocketServer& operator=(const UnixSocketServer&) = delete;

  const std::string& path() const { return path_; }
  void stop();

  /// How many failed accept() calls the acceptor has waited out before its
  /// next try: those short of descriptors or memory, and unknown errors.
  u64 accept_waits() const { return accept_waits_.load(std::memory_order_relaxed); }

 private:
  UnixSocketServer(std::string path, int fd, AcceptHandler on_accept);

  std::string path_;
  int listen_fd_;
  AcceptHandler on_accept_;
  std::atomic<bool> stopping_{false};
  std::atomic<u64> accept_waits_{0};
  std::thread acceptor_;
};

}  // namespace gpuvm::transport
