// Thin POSIX TCP helpers shared by the reqd server and the req-cli client
// library: an owning fd wrapper and full-buffer send/recv loops. Loopback
// IPv4 is the supported deployment shape (the service fronts a single
// host's sketch registry; cross-host distribution happens by shipping
// SNAPSHOT blobs, the Appendix D merge scenario).
#ifndef REQSKETCH_SERVICE_SOCKET_UTIL_H_
#define REQSKETCH_SERVICE_SOCKET_UTIL_H_

#if defined(_WIN32)
#error "the reqd service layer requires a POSIX socket API"
#endif

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

#include "util/validation.h"

namespace req {
namespace service {

// Owning file descriptor (close-on-destruct, move-only).
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ScopedFd(ScopedFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  ScopedFd& operator=(ScopedFd&& other) noexcept {
    if (this != &other) {
      Reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;
  ~ScopedFd() { Reset(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  void Reset(int fd = -1) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = fd;
  }

 private:
  int fd_ = -1;
};

inline std::string ErrnoMessage(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

// Sends the whole buffer; returns false if the peer went away (EPIPE /
// ECONNRESET). MSG_NOSIGNAL keeps a dead peer from raising SIGPIPE, so
// neither server nor CLI needs a process-wide signal disposition.
inline bool SendAll(int fd, const uint8_t* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t r =
        ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(r);
  }
  return true;
}

// One recv; returns bytes read, 0 on orderly shutdown, -1 on error
// (EINTR retried internally).
inline ssize_t RecvSome(int fd, uint8_t* data, size_t size) {
  while (true) {
    const ssize_t r = ::recv(fd, data, size, 0);
    if (r < 0 && errno == EINTR) continue;
    return r;
  }
}

// Request/response over one connection is latency-bound, not
// bandwidth-bound: disable Nagle so small frames go out immediately.
inline void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Puts the fd into non-blocking mode. The epoll reactor requires it:
// with edge-triggered readiness a worker must read/write until EAGAIN,
// and a blocking call anywhere on that path would wedge the whole
// event loop behind one peer.
inline bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) >= 0;
}

// One send in non-blocking mode. Returns bytes written (>= 1), 0 when
// the socket buffer is full (EAGAIN -- the caller arms EPOLLOUT and
// waits), or -1 when the peer is gone. MSG_NOSIGNAL for the same reason
// as SendAll. The 0/EAGAIN conflation is safe: callers never pass an
// empty buffer, and a successful send of a non-empty one returns at
// least one byte.
inline ssize_t SendNonBlocking(int fd, const uint8_t* data, size_t size) {
  while (true) {
    const ssize_t r = ::send(fd, data, size, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (r >= 0) return r;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    return -1;
  }
}

// Parses a dotted-quad IPv4 address ("localhost" accepted as loopback).
inline in_addr ParseIPv4(const std::string& host) {
  in_addr addr{};
  const std::string resolved = (host == "localhost") ? "127.0.0.1" : host;
  util::CheckArg(::inet_pton(AF_INET, resolved.c_str(), &addr) == 1,
                 "host must be an IPv4 address or \"localhost\"");
  return addr;
}

// --- deadlines -------------------------------------------------------------
//
// The hostile-network contract (see service/chaos_proxy.h and the README
// status table): no socket operation may block past its caller's
// deadline. A blackholed peer, a throttled link, or a stalled proxy must
// surface as a typed timeout, never a stuck thread. All helpers poll
// first and then use non-blocking I/O (MSG_DONTWAIT), so they work on
// blocking and non-blocking fds alike.

using SocketClock = std::chrono::steady_clock;
using SocketDeadline = SocketClock::time_point;

// A time_point far enough out to mean "no deadline".
inline SocketDeadline NoDeadline() { return SocketDeadline::max(); }

inline SocketDeadline DeadlineAfterMs(uint64_t ms) {
  if (ms == 0) return NoDeadline();
  return SocketClock::now() + std::chrono::milliseconds(ms);
}

// Milliseconds until `deadline`, clamped to [0, cap_ms]; cap_ms bounds a
// single poll so loops stay responsive to shutdown flags.
inline int PollTimeoutMs(SocketDeadline deadline, int cap_ms = 250) {
  if (deadline == NoDeadline()) return cap_ms;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - SocketClock::now());
  if (left.count() <= 0) return 0;
  if (left.count() >= cap_ms) return cap_ms;
  return static_cast<int>(left.count());
}

// Polls `fd` for `events` until the deadline. Returns >0 when ready, 0 on
// deadline, <0 on a real poll error (EINTR retried).
inline int PollUntil(int fd, short events, SocketDeadline deadline) {
  while (true) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    const int r = ::poll(&pfd, 1, PollTimeoutMs(deadline));
    if (r < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (r > 0) return r;
    if (SocketClock::now() >= deadline) return 0;
  }
}

// Outcome of a deadline-bounded socket operation: the caller needs to
// distinguish "the peer went away" from "the deadline fired" -- the
// former is a transport error, the latter a typed timeout.
enum class IoStatus {
  kOk = 0,
  kClosed = 1,   // orderly EOF or peer reset
  kTimeout = 2,  // deadline expired with the operation incomplete
};

// Sends the whole buffer before `deadline`. Partial progress followed by
// a timeout reports kTimeout (the stream is desynced either way).
inline IoStatus SendAllDeadline(int fd, const uint8_t* data, size_t size,
                                SocketDeadline deadline) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t r = ::send(fd, data + sent, size - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (r > 0) {
      sent += static_cast<size_t>(r);
      continue;
    }
    if (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
        errno != EINTR) {
      return IoStatus::kClosed;
    }
    const int polled = PollUntil(fd, POLLOUT, deadline);
    if (polled < 0) return IoStatus::kClosed;
    if (polled == 0 && SocketClock::now() >= deadline) {
      return IoStatus::kTimeout;
    }
  }
  return IoStatus::kOk;
}

// One recv bounded by `deadline`: *got receives the byte count on kOk.
inline IoStatus RecvSomeDeadline(int fd, uint8_t* data, size_t size,
                                 SocketDeadline deadline, ssize_t* got) {
  while (true) {
    const ssize_t r = ::recv(fd, data, size, MSG_DONTWAIT);
    if (r > 0) {
      *got = r;
      return IoStatus::kOk;
    }
    if (r == 0) return IoStatus::kClosed;
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return IoStatus::kClosed;
    }
    const int polled = PollUntil(fd, POLLIN, deadline);
    if (polled < 0) return IoStatus::kClosed;
    if (polled == 0 && SocketClock::now() >= deadline) {
      return IoStatus::kTimeout;
    }
  }
}

// Non-blocking connect + poll: a blackholed address (dropped SYNs, a
// full accept queue) fails within `timeout_ms` instead of riding the
// kernel's minutes-long SYN retry schedule. 0 = no deadline. The fd is
// left in non-blocking mode on success; deadline-based senders and
// receivers (above) handle that, and callers that want blocking I/O can
// clear O_NONBLOCK themselves.
inline bool ConnectDeadline(int fd, const sockaddr* addr, socklen_t len,
                            uint64_t timeout_ms, std::string* error) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    *error = ErrnoMessage("fcntl");
    return false;
  }
  if (::connect(fd, addr, len) == 0) return true;
  if (errno != EINPROGRESS) {
    *error = ErrnoMessage("connect");
    return false;
  }
  const SocketDeadline deadline = DeadlineAfterMs(timeout_ms);
  while (true) {
    const int polled = PollUntil(fd, POLLOUT, deadline);
    if (polled < 0) {
      *error = ErrnoMessage("poll");
      return false;
    }
    if (polled == 0) {
      if (SocketClock::now() >= deadline) {
        *error = "connect timed out after " + std::to_string(timeout_ms) +
                 " ms";
        return false;
      }
      continue;
    }
    break;
  }
  int soerr = 0;
  socklen_t soerr_len = sizeof(soerr);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &soerr_len) != 0) {
    *error = ErrnoMessage("getsockopt");
    return false;
  }
  if (soerr != 0) {
    *error = std::string("connect: ") + std::strerror(soerr);
    return false;
  }
  return true;
}

// Aborts the connection with an RST instead of an orderly FIN (SO_LINGER
// with a zero timeout): how the chaos proxy models a peer that died
// mid-conversation rather than one that hung up politely.
inline void HardReset(ScopedFd* fd) {
  if (!fd->valid()) return;
  linger hard{};
  hard.l_onoff = 1;
  hard.l_linger = 0;
  ::setsockopt(fd->get(), SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
  fd->Reset();
}

}  // namespace service
}  // namespace req

#endif  // REQSKETCH_SERVICE_SOCKET_UTIL_H_
