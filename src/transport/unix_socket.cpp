#include "transport/unix_socket.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <mutex>

#include "common/log.hpp"
#include "common/vt.hpp"

namespace gpuvm::transport {

namespace {

int make_socket() { return ::socket(AF_UNIX, SOCK_STREAM, 0); }

bool fill_addr(const std::string& path, sockaddr_un* addr) {
  if (path.size() + 1 > sizeof(addr->sun_path)) return false;
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::strncpy(addr->sun_path, path.c_str(), sizeof(addr->sun_path) - 1);
  return true;
}

/// A connected unix-socket endpoint speaking length-prefixed frames.
class UnixChannel : public MessageChannel {
 public:
  explicit UnixChannel(int fd) : fd_(fd) {}

  ~UnixChannel() override { close(); }

  bool send(Message msg) override {
    const auto frame = encode_frame(msg);
    std::scoped_lock lock(send_mu_);
    if (closed_.load(std::memory_order_acquire)) return false;
    size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n =
          ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  std::optional<Message> receive() override {
    std::scoped_lock lock(recv_mu_);
    while (pending_.empty()) {
      if (fd_ < 0) return std::nullopt;  // closed
      u8 buf[16384];
      ssize_t n = 0;
      {
        vt::IdleGuard idle;  // real blocking I/O must not stall virtual time
        n = ::recv(fd_, buf, sizeof buf, 0);
      }
      if (n == 0) return std::nullopt;  // peer closed
      if (n < 0) {
        if (errno == EINTR) continue;
        return std::nullopt;
      }
      if (!decoder_.feed(std::span<const u8>(buf, static_cast<size_t>(n)), pending_)) {
        log::warn("unix channel: malformed frame, dropping connection");
        return std::nullopt;
      }
    }
    Message out = std::move(pending_.front());
    pending_.erase(pending_.begin());
    return out;
  }

  /// Shuts the socket down, which wakes a send or receive blocked on it,
  /// then releases the descriptor under both I/O locks: a later send or
  /// receive finds it gone. A call that reached recv or send with the
  /// number after close() had released it would use whatever socket the
  /// process opened next, such as the next connection a daemon accepted.
  void close() override {
    bool expected = false;
    if (!closed_.compare_exchange_strong(expected, true)) return;
    ::shutdown(fd_, SHUT_RDWR);
    std::scoped_lock lock(send_mu_, recv_mu_);
    ::close(fd_);
    fd_ = -1;
  }

  bool closed() const override { return closed_.load(std::memory_order_acquire); }

  bool pending() const override {
    std::scoped_lock lock(recv_mu_);
    if (!pending_.empty()) return true;
    u8 probe;
    return fd_ >= 0 && ::recv(fd_, &probe, 1, MSG_PEEK | MSG_DONTWAIT) > 0;
  }

 private:
  int fd_;  // -1 once closed; written under both mutexes, read under either
  std::atomic<bool> closed_{false};
  std::mutex send_mu_;
  mutable std::mutex recv_mu_;
  FrameDecoder decoder_;
  std::vector<Message> pending_;
};

}  // namespace

Result<std::unique_ptr<MessageChannel>> unix_connect(const std::string& path) {
  const int fd = make_socket();
  if (fd < 0) return Status::ErrorConnectionClosed;
  sockaddr_un addr;
  if (!fill_addr(path, &addr)) {
    ::close(fd);
    return Status::ErrorInvalidValue;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::ErrorConnectionClosed;
  }
  return std::unique_ptr<MessageChannel>(std::make_unique<UnixChannel>(fd));
}

UnixSocketServer::UnixSocketServer(std::string path, int fd, AcceptHandler on_accept)
    : path_(std::move(path)), listen_fd_(fd), on_accept_(std::move(on_accept)) {
  acceptor_ = std::thread([this] {
    while (!stopping_.load(std::memory_order_acquire)) {
      const int conn = ::accept(listen_fd_, nullptr, nullptr);
      if (conn < 0) {
        if (errno == EINTR) continue;
        break;  // listening socket closed
      }
      on_accept_(std::make_unique<UnixChannel>(conn));
    }
  });
}

Result<std::unique_ptr<UnixSocketServer>> UnixSocketServer::listen(const std::string& path,
                                                                   AcceptHandler on_accept) {
  const int fd = make_socket();
  if (fd < 0) return Status::ErrorConnectionClosed;
  sockaddr_un addr;
  if (!fill_addr(path, &addr)) {
    ::close(fd);
    return Status::ErrorInvalidValue;
  }
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return Status::ErrorConnectionClosed;
  }
  return std::unique_ptr<UnixSocketServer>(
      new UnixSocketServer(path, fd, std::move(on_accept)));
}

void UnixSocketServer::stop() {
  bool expected = false;
  const bool first = stopping_.compare_exchange_strong(expected, true);
  // Shutting the socket down wakes the acceptor; the descriptor is released
  // only after it has left accept(), so accept() never runs on a number the
  // process has reused (see UnixChannel::close).
  if (first) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (first) ::close(listen_fd_);
  ::unlink(path_.c_str());
}

UnixSocketServer::~UnixSocketServer() { stop(); }

}  // namespace gpuvm::transport
