#include "xsp/net/socket.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

namespace xsp::net {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw_errno("fcntl(O_NONBLOCK)");
}

void set_cloexec(int fd) {
  // Producer processes fork/exec freely (the CI harness does); leaking the
  // collector connection into children would hold connections open past
  // producer exit and wedge drain accounting.
  (void)::fcntl(fd, F_SETFD, FD_CLOEXEC);
}

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  // Length was validated by Endpoint::parse.
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

struct ResolvedAddr {
  sockaddr_storage storage{};
  socklen_t len = 0;
  int family = AF_UNSPEC;
};

ResolvedAddr resolve_tcp(const std::string& host, std::uint16_t port,
                         bool for_bind, std::string* error) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (for_bind) hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               port_str.c_str(), &hints, &res);
  ResolvedAddr out;
  if (rc != 0) {
    if (error)
      *error = "resolve '" + host + "': " + ::gai_strerror(rc);
    return out;
  }
  std::memcpy(&out.storage, res->ai_addr, res->ai_addrlen);
  out.len = static_cast<socklen_t>(res->ai_addrlen);
  out.family = res->ai_family;
  ::freeaddrinfo(res);
  return out;
}

bool poll_one(int fd, short events, int timeout_ms) {
  pollfd pfd{fd, events, 0};
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno != EINTR) return false;
  }
}

}  // namespace

// --- Socket ----------------------------------------------------------------

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::shutdown_write() {
  if (fd_ >= 0) (void)::shutdown(fd_, SHUT_WR);
}

IoResult Socket::read_some(char* buf, std::size_t cap, std::size_t& n) {
  n = 0;
  for (;;) {
    const ssize_t rc = ::recv(fd_, buf, cap, 0);
    if (rc > 0) {
      n = static_cast<std::size_t>(rc);
      return IoResult::kOk;
    }
    if (rc == 0) return IoResult::kClosed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::kWouldBlock;
    return IoResult::kError;
  }
}

IoResult Socket::write_some(const char* data, std::size_t len, std::size_t& n) {
  n = 0;
  for (;;) {
    const ssize_t rc = ::send(fd_, data, len, MSG_NOSIGNAL);
    if (rc >= 0) {
      n = static_cast<std::size_t>(rc);
      return n > 0 ? IoResult::kOk : IoResult::kWouldBlock;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::kWouldBlock;
    return IoResult::kError;
  }
}

bool Socket::wait_readable(int timeout_ms) const {
  return poll_one(fd_, POLLIN, timeout_ms);
}

bool Socket::wait_writable(int timeout_ms) const {
  return poll_one(fd_, POLLOUT, timeout_ms);
}

// --- try_connect -----------------------------------------------------------

Socket try_connect(const Endpoint& ep, int timeout_ms, std::string* error) {
  int fd = -1;
  sockaddr_storage storage{};
  socklen_t addr_len = 0;
  if (ep.kind == Endpoint::Kind::kUnix) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      if (error) *error = std::string("socket: ") + std::strerror(errno);
      return Socket();
    }
    const sockaddr_un addr = make_unix_addr(ep.path);
    std::memcpy(&storage, &addr, sizeof(addr));
    addr_len = sizeof(addr);
  } else {
    const ResolvedAddr resolved =
        resolve_tcp(ep.host, ep.port, /*for_bind=*/false, error);
    if (resolved.len == 0) return Socket();
    fd = ::socket(resolved.family, SOCK_STREAM, 0);
    if (fd < 0) {
      if (error) *error = std::string("socket: ") + std::strerror(errno);
      return Socket();
    }
    storage = resolved.storage;
    addr_len = resolved.len;
  }

  Socket sock(fd);
  set_cloexec(fd);
  try {
    set_nonblocking(fd);
  } catch (const NetError& e) {
    if (error) *error = e.what();
    return Socket();
  }

  const int rc =
      ::connect(fd, reinterpret_cast<const sockaddr*>(&storage), addr_len);
  if (rc != 0 && errno != EINPROGRESS) {
    if (error) *error = std::string("connect ") + ep.uri() + ": " +
                        std::strerror(errno);
    return Socket();
  }
  if (rc != 0) {
    // Nonblocking connect in flight: writable means settled, then the
    // verdict lives in SO_ERROR.
    if (!poll_one(fd, POLLOUT, timeout_ms)) {
      if (error) *error = "connect " + ep.uri() + ": timed out";
      return Socket();
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      if (error) *error = "connect " + ep.uri() + ": " +
                          std::strerror(so_error != 0 ? so_error : errno);
      return Socket();
    }
  }
  if (ep.kind == Endpoint::Kind::kTcp) {
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return sock;
}

// --- Listener --------------------------------------------------------------

Listener::Listener(const Endpoint& ep, int backlog) : ep_(ep) {
  if (ep_.kind == Endpoint::Kind::kUnix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket(AF_UNIX)");
    sock_ = Socket(fd);
    // A daemon killed with SIGKILL leaves its socket file behind; a fresh
    // bind would fail with EADDRINUSE forever. Remove the stale path —
    // anyone still connected to the old inode keeps their connection.
    (void)::unlink(ep_.path.c_str());
    const sockaddr_un addr = make_unix_addr(ep_.path);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0)
      throw_errno("bind " + ep_.uri());
  } else {
    std::string error;
    const ResolvedAddr resolved =
        resolve_tcp(ep_.host, ep_.port, /*for_bind=*/true, &error);
    if (resolved.len == 0) throw NetError("listen: " + error);
    const int fd = ::socket(resolved.family, SOCK_STREAM, 0);
    if (fd < 0) throw_errno("socket(TCP)");
    sock_ = Socket(fd);
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&resolved.storage),
               resolved.len) != 0)
      throw_errno("bind " + ep_.uri());
    if (ep_.port == 0) {
      // Report the kernel-assigned ephemeral port so tests can connect.
      sockaddr_storage bound{};
      socklen_t len = sizeof(bound);
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
        if (bound.ss_family == AF_INET)
          ep_.port = ntohs(reinterpret_cast<sockaddr_in*>(&bound)->sin_port);
        else if (bound.ss_family == AF_INET6)
          ep_.port = ntohs(reinterpret_cast<sockaddr_in6*>(&bound)->sin6_port);
      }
    }
  }
  set_cloexec(sock_.fd());
  set_nonblocking(sock_.fd());
  if (::listen(sock_.fd(), backlog) != 0) throw_errno("listen " + ep_.uri());
}

Listener::~Listener() {
  if (ep_.kind == Endpoint::Kind::kUnix && sock_.valid())
    (void)::unlink(ep_.path.c_str());
}

Socket Listener::accept() {
  for (;;) {
    const int fd = ::accept(sock_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      Socket conn(fd);
      set_cloexec(fd);
      set_nonblocking(fd);
      return conn;
    }
    if (errno == EINTR) continue;
    // EAGAIN (nothing pending) and transient per-connection failures
    // (ECONNABORTED: peer gave up while queued) both mean "no connection
    // right now" to the accept loop.
    return Socket();
  }
}

// --- Poller ----------------------------------------------------------------

Poller::Poller() : wake_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (!wake_.valid()) throw_errno("eventfd");
}

void Poller::wake() noexcept {
  // errno is restored: a signal handler must not clobber the caller's.
  const int saved_errno = errno;
  const std::uint64_t one = 1;
  (void)!::write(wake_.fd(), &one, sizeof one);
  errno = saved_errno;
}

void Poller::watch(int fd, short interest) {
  for (Watch& w : watches_) {
    if (w.fd == fd) {
      w.interest = interest;
      return;
    }
  }
  watches_.push_back(Watch{fd, interest});
}

void Poller::forget(int fd) {
  for (std::size_t i = 0; i < watches_.size(); ++i) {
    if (watches_[i].fd == fd) {
      watches_[i] = watches_.back();
      watches_.pop_back();
      return;
    }
  }
}

const std::vector<Poller::Event>& Poller::wait(int timeout_ms) {
  events_.clear();
  std::vector<pollfd> pfds;
  pfds.reserve(watches_.size() + 1);
  for (const Watch& w : watches_) {
    short ev = 0;
    if (w.interest & kReadable) ev |= POLLIN;
    if (w.interest & kWritable) ev |= POLLOUT;
    pfds.push_back(pollfd{w.fd, ev, 0});
  }
  pfds.push_back(pollfd{wake_.fd(), POLLIN, 0});
  // EINTR returns empty like a timeout; callers re-check their exit test.
  if (::poll(pfds.data(), pfds.size(), timeout_ms) <= 0) return events_;
  std::uint64_t wakes = 0;  // reading resets the counter: all wakes consumed
  if (pfds.back().revents != 0) (void)!::read(wake_.fd(), &wakes, sizeof wakes);
  pfds.pop_back();
  for (const pollfd& p : pfds) {
    if (p.revents == 0) continue;
    Event e;
    e.fd = p.fd;
    e.readable = (p.revents & POLLIN) != 0;
    e.writable = (p.revents & POLLOUT) != 0;
    e.hangup = (p.revents & (POLLHUP | POLLERR | POLLNVAL)) != 0;
    events_.push_back(e);
  }
  return events_;
}

// --- RxBuffer --------------------------------------------------------------

void RxBuffer::append(std::string_view bytes) {
  // Compact before growing once the dead prefix is both sizable and the
  // majority of storage; otherwise appends just extend the string.
  if (off_ > 4096 && off_ > buf_.size() - off_) {
    buf_.erase(0, off_);
    off_ = 0;
  }
  buf_.append(bytes.data(), bytes.size());
}

void RxBuffer::consume(std::size_t n) {
  off_ += n;
  if (off_ >= buf_.size()) {
    buf_.clear();
    off_ = 0;
  }
}

}  // namespace xsp::net
