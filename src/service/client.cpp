#include "service/client.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/backoff.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/stopwatch.hpp"
#include "service/net.hpp"

namespace cwsp::service {
namespace {

int connect_unix_once(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  CWSP_REQUIRE_MSG(fd >= 0, "cannot create unix socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  CWSP_REQUIRE_MSG(socket_path.size() < sizeof(addr.sun_path),
                   "socket path too long: " << socket_path);
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int err = errno;
    ::close(fd);
    errno = err;
    return -1;
  }
  return fd;
}

/// Runs `attempt` up to dial.attempts times with backoff sleeps between
/// failures; returns the connected fd or throws with the last errno.
int connect_with_retry(const DialOptions& dial, const std::string& label,
                       const std::function<int()>& attempt) {
  const std::size_t attempts = dial.attempts == 0 ? 1 : dial.attempts;
  Backoff backoff(dial.backoff_base_ms, dial.backoff_cap_ms,
                  dial.jitter_seed);
  int last_errno = 0;
  for (std::size_t i = 0; i < attempts; ++i) {
    if (i > 0) {
      const double delay = backoff.next_delay_ms();
      metrics::Registry::global().counter("service.client.connect_retries")
          .add();
      if (dial.on_backoff) dial.on_backoff(delay);
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<long>(delay * 1000.0)));
    }
    const int fd = attempt();
    if (fd >= 0) return fd;
    last_errno = errno;
  }
  throw Error("cannot connect to '" + label + "' after " +
              std::to_string(attempts) +
              " attempt(s): " + std::strerror(last_errno));
}

}  // namespace

Client::Client(const std::string& socket_path, const DialOptions& dial) {
  fd_ = connect_with_retry(dial, socket_path,
                           [&] { return connect_unix_once(socket_path); });
}

Client::Client(const std::string& host, std::uint16_t port,
               const DialOptions& dial) {
  const net::Endpoint endpoint{host, port};
  fd_ = connect_with_retry(dial, net::to_string(endpoint), [&] {
    return net::tcp_connect(endpoint, dial.connect_timeout_ms);
  });
}

std::unique_ptr<Client> Client::dial(const std::string& endpoint,
                                     const DialOptions& options) {
  net::Endpoint tcp;
  if (net::parse_tcp_endpoint(endpoint, tcp)) {
    return std::make_unique<Client>(tcp.host, tcp.port, options);
  }
  return std::make_unique<Client>(endpoint, options);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::send_line(const std::string& line) {
  const bool terminated = !line.empty() && line.back() == '\n';
  if (!net::send_all(fd_, line, terminated ? "" : "\n")) {
    throw Error("connection to server lost while sending");
  }
}

bool Client::read_line(std::string& line) {
  while (!framer_.next(line)) {
    if (!framer_.fill(fd_)) return false;
  }
  return true;
}

Client::ReadStatus Client::read_line_for(std::string& line,
                                         double timeout_ms) {
  const auto deadline = Stopwatch::deadline_after(timeout_ms);
  while (!framer_.next(line)) {
    const auto now = Stopwatch::Clock::now();
    if (now >= deadline) return ReadStatus::kTimeout;
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count();
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(remaining) + 1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::kClosed;
    }
    if (rc == 0) return ReadStatus::kTimeout;
    if (!framer_.fill(fd_)) return ReadStatus::kClosed;
  }
  return ReadStatus::kLine;
}

}  // namespace cwsp::service
