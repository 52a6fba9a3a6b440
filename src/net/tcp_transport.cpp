#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <memory>

#include "common/logging.hpp"

namespace spi::net {

namespace {

/// Gather width per sendmsg call. IOV_MAX is 1024 on Linux; 64 covers a
/// response head + body plus a deep pipeline without a large stack array.
constexpr size_t kMaxSendvSegments = 64;

std::string errno_message(std::string_view what) {
  std::string out(what);
  out += ": ";
  out += std::strerror(errno);
  return out;
}

/// RAII socket fd. The stored descriptor is atomic because close-to-wake
/// is a supported pattern: abort() and Listener::close() run on a
/// different thread than the recv()/accept() they interrupt.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.release()) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_.store(other.release(), std::memory_order_release);
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_.load(std::memory_order_acquire); }
  bool valid() const { return get() >= 0; }
  int release() { return fd_.exchange(-1, std::memory_order_acq_rel); }
  void reset() {
    int fd = release();
    if (fd >= 0) ::close(fd);
  }

 private:
  std::atomic<int> fd_{-1};
};

/// Receive staging shared by every connection a thread serves, grown to
/// the largest max_bytes asked for and never zero-filled: a receive that
/// finds no data allocates nothing, and one that does allocates only the
/// bytes that arrived.
char* receive_staging(size_t max_bytes) {
  thread_local std::unique_ptr<char[]> buffer;
  thread_local size_t capacity = 0;
  if (capacity < max_bytes) {
    buffer = std::make_unique_for_overwrite<char[]>(max_bytes);
    capacity = max_bytes;
  }
  return buffer.get();
}

Status set_fd_nonblocking(int fd, bool enabled) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) {
    return Error(ErrorCode::kInternal, errno_message("fcntl(F_GETFL)"));
  }
  int wanted = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (wanted != flags && ::fcntl(fd, F_SETFL, wanted) != 0) {
    return Error(ErrorCode::kInternal, errno_message("fcntl(F_SETFL)"));
  }
  return Status();
}

Result<sockaddr_in> make_addr(const Endpoint& endpoint) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1) {
    return Error(ErrorCode::kInvalidArgument,
                 "not an IPv4 address: " + endpoint.host);
  }
  return addr;
}

class TcpConnection final : public Connection {
 public:
  TcpConnection(Fd fd, WireStatsCollector* stats)
      : fd_(std::move(fd)), stats_(stats) {
    // SOAP request/response exchanges are latency-bound; disable Nagle.
    int one = 1;
    ::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  Status send(std::string_view bytes) override {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(fd_.get(), bytes.data() + sent, bytes.size() - sent,
                         MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EPIPE || errno == ECONNRESET) {
          return Error(ErrorCode::kConnectionClosed,
                       errno_message("send"));
        }
        return Error(ErrorCode::kConnectionFailed, errno_message("send"));
      }
      sent += static_cast<size_t>(n);
    }
    stats_->on_send(bytes.size());
    return Status();
  }

  Result<std::string> receive(size_t max_bytes) override {
    return receive_some(max_bytes, ErrorCode::kTimeout, "receive timed out");
  }

  void close() override {
    if (fd_.valid()) ::shutdown(fd_.get(), SHUT_WR);
  }

  void abort() override {
    // Both directions: a blocked recv() returns 0 immediately.
    if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
  }

  int native_handle() const override { return fd_.get(); }

  Status set_nonblocking(bool enabled) override {
    return set_fd_nonblocking(fd_.get(), enabled);
  }

  Result<std::string> try_receive(size_t max_bytes) override {
    return receive_some(max_bytes, ErrorCode::kWouldBlock,
                        "no data available");
  }

  Result<size_t> try_receive_into(char* into, size_t max_bytes) override {
    return receive_into(into, max_bytes, ErrorCode::kWouldBlock,
                        "no data available");
  }

  bool supports_sendv() const override { return true; }

  Result<size_t> try_sendv(const ConstBuffer* segments,
                           size_t count) override {
    // sendmsg is writev(2) with flags: the gather semantics we want plus
    // MSG_NOSIGNAL so a dead peer surfaces as EPIPE, not SIGPIPE.
    iovec iov[kMaxSendvSegments];
    size_t vecs = 0;
    for (size_t i = 0; i < count && vecs < kMaxSendvSegments; ++i) {
      if (segments[i].size == 0) continue;
      iov[vecs].iov_base = const_cast<char*>(segments[i].data);
      iov[vecs].iov_len = segments[i].size;
      ++vecs;
    }
    if (vecs == 0) return size_t{0};
    msghdr message{};
    message.msg_iov = iov;
    message.msg_iovlen = vecs;
    while (true) {
      ssize_t n = ::sendmsg(fd_.get(), &message, MSG_NOSIGNAL);
      if (n >= 0) {
        stats_->on_send(static_cast<std::uint64_t>(n));
        return static_cast<size_t>(n);
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Error(ErrorCode::kWouldBlock, "outbound buffer full");
      }
      if (errno == EPIPE || errno == ECONNRESET) {
        return Error(ErrorCode::kConnectionClosed, errno_message("sendmsg"));
      }
      return Error(ErrorCode::kConnectionFailed, errno_message("sendmsg"));
    }
  }

  Result<size_t> try_send(std::string_view bytes) override {
    while (true) {
      ssize_t n = ::send(fd_.get(), bytes.data(), bytes.size(),
                         MSG_NOSIGNAL);
      if (n >= 0) {
        stats_->on_send(static_cast<std::uint64_t>(n));
        return static_cast<size_t>(n);
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Error(ErrorCode::kWouldBlock, "outbound buffer full");
      }
      if (errno == EPIPE || errno == ECONNRESET) {
        return Error(ErrorCode::kConnectionClosed, errno_message("send"));
      }
      return Error(ErrorCode::kConnectionFailed, errno_message("send"));
    }
  }

  Status finish_connect() override {
    // The result of an EINPROGRESS dial is published through SO_ERROR once
    // the socket polls writable.
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd_.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      return Error(ErrorCode::kConnectionFailed,
                   errno_message("getsockopt(SO_ERROR)"));
    }
    if (err != 0) {
      return Error(ErrorCode::kConnectionFailed,
                   std::string("connect: ") + std::strerror(err));
    }
    return Status();
  }

  Status set_receive_timeout(Duration timeout) override {
    if (timeout < Duration::zero()) {
      return Error(ErrorCode::kInvalidArgument, "negative timeout");
    }
    timeval tv{};
    auto us = std::chrono::duration_cast<std::chrono::microseconds>(timeout);
    tv.tv_sec = static_cast<time_t>(us.count() / 1'000'000);
    tv.tv_usec = static_cast<suseconds_t>(us.count() % 1'000'000);
    if (::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) !=
        0) {
      return Error(ErrorCode::kInternal, errno_message("SO_RCVTIMEO"));
    }
    return Status();
  }

 private:
  /// One recv() into the thread's staging buffer; only the bytes that
  /// arrived are copied into the returned string.
  Result<std::string> receive_some(size_t max_bytes, ErrorCode again_code,
                                   const char* again_message) {
    char* staging = receive_staging(max_bytes);
    auto n = receive_into(staging, max_bytes, again_code, again_message);
    if (!n.ok()) return n.error();
    return std::string(staging, n.value());
  }

  /// One recv() into `into`. EAGAIN (a receive timeout on a blocking
  /// socket, no data on a non-blocking one) maps to `again_code`.
  Result<size_t> receive_into(char* into, size_t max_bytes,
                              ErrorCode again_code,
                              const char* again_message) {
    if (max_bytes == 0) {
      return Error(ErrorCode::kInvalidArgument, "receive(0)");
    }
    while (true) {
      ssize_t n = ::recv(fd_.get(), into, max_bytes, 0);
      if (n > 0) {
        stats_->on_receive(static_cast<std::uint64_t>(n));
        return static_cast<size_t>(n);
      }
      if (n == 0) {
        return Error(ErrorCode::kConnectionClosed, "peer closed connection");
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Error(again_code, again_message);
      }
      if (errno == ECONNRESET) {
        return Error(ErrorCode::kConnectionClosed, errno_message("recv"));
      }
      return Error(ErrorCode::kConnectionFailed, errno_message("recv"));
    }
  }

  Fd fd_;
  WireStatsCollector* stats_;
};

class TcpListener final : public Listener {
 public:
  TcpListener(Fd fd, Endpoint endpoint, WireStatsCollector* stats)
      : fd_(std::move(fd)), endpoint_(std::move(endpoint)), stats_(stats) {}

  Result<std::unique_ptr<Connection>> accept() override {
    while (true) {
      int client = ::accept(fd_.get(), nullptr, nullptr);
      if (client >= 0) {
        return std::unique_ptr<Connection>(
            std::make_unique<TcpConnection>(Fd(client), stats_));
      }
      if (errno == EINTR) continue;
      if (errno == EBADF || errno == EINVAL) {
        // close() shut the listening socket down under us.
        return Error(ErrorCode::kShutdown, "listener closed");
      }
      return Error(ErrorCode::kConnectionFailed, errno_message("accept"));
    }
  }

  void close() override {
    // Shutdown wakes a blocked accept(); reset closes the fd.
    ::shutdown(fd_.get(), SHUT_RDWR);
    fd_.reset();
  }

  Endpoint endpoint() const override { return endpoint_; }

  int native_handle() const override { return fd_.get(); }

  Status set_nonblocking(bool enabled) override {
    return set_fd_nonblocking(fd_.get(), enabled);
  }

  Result<std::unique_ptr<Connection>> try_accept() override {
    while (true) {
      int client = ::accept(fd_.get(), nullptr, nullptr);
      if (client >= 0) {
        return std::unique_ptr<Connection>(
            std::make_unique<TcpConnection>(Fd(client), stats_));
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Error(ErrorCode::kWouldBlock, "no pending connection");
      }
      if (errno == EBADF || errno == EINVAL) {
        return Error(ErrorCode::kShutdown, "listener closed");
      }
      return Error(ErrorCode::kConnectionFailed, errno_message("accept"));
    }
  }

 private:
  Fd fd_;
  Endpoint endpoint_;
  WireStatsCollector* stats_;
};

}  // namespace

Result<std::unique_ptr<Listener>> TcpTransport::listen(const Endpoint& at) {
  return listen(at, ListenOptions{});
}

bool TcpTransport::supports_reuse_port() const {
#ifdef SO_REUSEPORT
  return true;
#else
  return false;
#endif
}

Result<std::unique_ptr<Listener>> TcpTransport::listen(
    const Endpoint& at, const ListenOptions& options) {
  auto addr = make_addr(at);
  if (!addr.ok()) return addr.error();

  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return Error(ErrorCode::kConnectionFailed, errno_message("socket"));
  }
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (options.reuse_port) {
#ifdef SO_REUSEPORT
    // Kernel-level accept sharding: every listener bound to this endpoint
    // gets its own accept queue, and the kernel spreads connections across
    // them by 4-tuple hash — no shared accept hotspot.
    if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEPORT, &one,
                     sizeof(one)) != 0) {
      return Error(ErrorCode::kInvalidArgument,
                   errno_message("setsockopt(SO_REUSEPORT)"));
    }
#else
    return Error(ErrorCode::kInvalidArgument,
                 "SO_REUSEPORT unavailable on this platform");
#endif
  }

  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr.value()),
             sizeof(sockaddr_in)) != 0) {
    return Error(ErrorCode::kConnectionFailed,
                 errno_message("bind " + at.to_string()));
  }
  // The kernel clamps to net.core.somaxconn; a deep backlog absorbs
  // connection storms (c10k parking) instead of forcing SYN retransmits.
  if (::listen(fd.get(), 4096) != 0) {
    return Error(ErrorCode::kConnectionFailed, errno_message("listen"));
  }

  // Resolve the actual port for port-0 binds.
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  Endpoint actual = at;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    actual.port = ntohs(bound.sin_port);
  }
  SPI_LOG(kDebug, "net.tcp") << "listening on " << actual.to_string();
  return std::unique_ptr<Listener>(
      std::make_unique<TcpListener>(std::move(fd), actual, &stats_));
}

Result<std::unique_ptr<Connection>> TcpTransport::connect(const Endpoint& to) {
  auto addr = make_addr(to);
  if (!addr.ok()) return addr.error();

  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return Error(ErrorCode::kConnectionFailed, errno_message("socket"));
  }
  while (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr.value()),
                   sizeof(sockaddr_in)) != 0) {
    if (errno == EINTR) continue;
    return Error(ErrorCode::kConnectionFailed,
                 errno_message("connect " + to.to_string()));
  }
  stats_.on_connect();
  return std::unique_ptr<Connection>(
      std::make_unique<TcpConnection>(std::move(fd), &stats_));
}

Result<AsyncConnect> TcpTransport::connect_nonblocking(const Endpoint& to) {
  auto addr = make_addr(to);
  if (!addr.ok()) return addr.error();

  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return Error(ErrorCode::kConnectionFailed, errno_message("socket"));
  }
  if (Status s = set_fd_nonblocking(fd.get(), true); !s.ok()) return s.error();

  AsyncConnect out;
  while (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr.value()),
                   sizeof(sockaddr_in)) != 0) {
    if (errno == EINTR) continue;
    if (errno == EINPROGRESS) {
      out.pending = true;
      break;
    }
    return Error(ErrorCode::kConnectionFailed,
                 errno_message("connect " + to.to_string()));
  }
  // Counted at dial initiation: a SYN went out. Failed pending dials are
  // rare and the counter feeds throughput reports, not billing.
  stats_.on_connect();
  out.connection = std::make_unique<TcpConnection>(std::move(fd), &stats_);
  return out;
}

}  // namespace spi::net
