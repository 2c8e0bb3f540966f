#include "service/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/error.hpp"

namespace cwsp::service::net {
namespace {

/// Resolves a host string to an IPv4 address. Numeric literals resolve
/// without touching the resolver.
bool resolve_ipv4(const std::string& host, in_addr& out) {
  const std::string effective = host.empty() ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, effective.c_str(), &out) == 1) return true;
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  if (::getaddrinfo(effective.c_str(), nullptr, &hints, &result) != 0 ||
      result == nullptr) {
    return false;
  }
  out = reinterpret_cast<sockaddr_in*>(result->ai_addr)->sin_addr;
  ::freeaddrinfo(result);
  return true;
}

}  // namespace

bool parse_tcp_endpoint(const std::string& text, Endpoint& out) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos) return false;
  const std::string port_text = text.substr(colon + 1);
  if (port_text.empty()) return false;
  std::uint64_t port = 0;
  for (char c : port_text) {
    if (c < '0' || c > '9') return false;
    port = port * 10 + static_cast<std::uint64_t>(c - '0');
    if (port > 65535) return false;
  }
  out.host = text.substr(0, colon);
  out.port = static_cast<std::uint16_t>(port);
  return true;
}

std::string to_string(const Endpoint& endpoint) {
  return (endpoint.host.empty() ? "127.0.0.1" : endpoint.host) + ":" +
         std::to_string(endpoint.port);
}

int tcp_connect(const Endpoint& endpoint, double timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (!resolve_ipv4(endpoint.host, addr.sin_addr)) {
    errno = EHOSTUNREACH;
    return -1;
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;

  if (timeout_ms <= 0.0) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const int err = errno;
      ::close(fd);
      errno = err;
      return -1;
    }
  } else {
    // Non-blocking connect + poll so a black-holed endpoint costs at most
    // `timeout_ms`, then back to blocking mode for the NDJSON exchange.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    const int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr));
    if (rc != 0) {
      if (errno != EINPROGRESS) {
        const int err = errno;
        ::close(fd);
        errno = err;
        return -1;
      }
      pollfd pfd{fd, POLLOUT, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
      int so_error = 0;
      socklen_t len = sizeof(so_error);
      if (ready <= 0 ||
          ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
          so_error != 0) {
        ::close(fd);
        errno = ready <= 0 ? ETIMEDOUT : so_error;
        return -1;
      }
    }
    ::fcntl(fd, F_SETFL, flags);
  }

  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

int tcp_listen(const Endpoint& endpoint, std::uint16_t* bound_port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  CWSP_REQUIRE_MSG(resolve_ipv4(endpoint.host, addr.sin_addr),
                   "cannot resolve '" << endpoint.host << "'");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  CWSP_REQUIRE_MSG(fd >= 0, "cannot create tcp socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    throw Error("cannot bind tcp " + to_string(endpoint) + ": " +
                std::strerror(err));
  }
  if (::listen(fd, 16) != 0) {
    const int err = errno;
    ::close(fd);
    throw Error("tcp listen failed: " + std::string(std::strerror(err)));
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    CWSP_REQUIRE_MSG(
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0,
        "getsockname failed");
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

bool LineFramer::next(std::string& line) {
  const std::size_t newline = buffer_.find('\n', scanned_);
  if (newline == std::string::npos) {
    scanned_ = buffer_.size();
    return false;
  }
  if (newline + 1 < buffer_.size()) {  // more follows: copy the line out
    line.assign(buffer_, start_, newline - start_);
    start_ = scanned_ = newline + 1;
    return true;
  }
  // The line ends the buffer: hand the buffer itself out.
  buffer_.resize(newline);
  buffer_.erase(0, start_);
  line.swap(buffer_);
  buffer_.clear();
  start_ = scanned_ = 0;
  return true;
}

void LineFramer::recycle(std::string& line) {
  if (!buffer_.empty()) return;  // it holds the next line's bytes
  line.clear();
  line.swap(buffer_);
}

bool LineFramer::fill(int fd) {
  if (start_ > 0) {  // drop the lines already handed out
    buffer_.erase(0, start_);
    scanned_ -= start_;
    start_ = 0;
  }
  char chunk[64 * 1024];
  const ssize_t n = ::read(fd, chunk, sizeof(chunk));
  if (n <= 0) return false;
  buffer_.append(chunk, static_cast<std::size_t>(n));
  return true;
}

bool send_all(int fd, std::string_view head, std::string_view tail) {
  while (!head.empty() || !tail.empty()) {
    iovec iov[2] = {{const_cast<char*>(head.data()), head.size()},
                    {const_cast<char*>(tail.data()), tail.size()}};
    msghdr message{};
    message.msg_iov = iov;
    message.msg_iovlen = 2;
    const ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (n <= 0) return false;
    const auto sent = static_cast<std::size_t>(n);
    const std::size_t from_head = std::min(sent, head.size());
    head.remove_prefix(from_head);
    tail.remove_prefix(sent - from_head);
  }
  return true;
}

}  // namespace cwsp::service::net
