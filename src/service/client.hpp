#pragma once
// Thin blocking client for the analysis server's NDJSON socket protocol.
//
// The transport is deliberately dumb — send one line, read one line —
// because all protocol intelligence (ids, batching, caching) lives on the
// server side. The `cwsp_tool client` subcommand builds on this to submit
// request lines from stdin/argv and demux responses by id.
//
// Connecting retries with capped exponential backoff + deterministic
// jitter (common/backoff.hpp): a daemon still binding its socket, or a
// worker that restarts mid-campaign, is a transient condition the client
// rides out instead of failing on the first ECONNREFUSED.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "service/net.hpp"

namespace cwsp::service {

struct DialOptions {
  /// Total connect attempts (>= 1); the backoff sleeps between them.
  std::size_t attempts = 5;
  double backoff_base_ms = 20.0;
  double backoff_cap_ms = 500.0;
  /// Seed of the deterministic jitter stream.
  std::uint64_t jitter_seed = 1;
  /// Per-attempt connect budget for TCP endpoints (0 = OS default).
  double connect_timeout_ms = 1000.0;
  /// Observer invoked with each backoff sleep in ms (metrics hook).
  std::function<void(double)> on_backoff;
};

class Client {
 public:
  /// Connects to the server's Unix socket, retrying per `dial`. Throws
  /// cwsp::Error when the socket cannot be reached after every attempt.
  explicit Client(const std::string& socket_path,
                  const DialOptions& dial = {});

  /// Connects to a TCP worker/coordinator endpoint, retrying per `dial`.
  Client(const std::string& host, std::uint16_t port,
         const DialOptions& dial = {});

  /// Endpoint-string front end: "host:port" dials TCP, anything else is
  /// treated as a Unix socket path.
  [[nodiscard]] static std::unique_ptr<Client> dial(
      const std::string& endpoint, const DialOptions& options = {});

  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request line (a trailing newline is appended when missing).
  /// Throws cwsp::Error on a broken connection.
  void send_line(const std::string& line);

  /// Blocks for the next response line (newline stripped). Returns false
  /// on server EOF.
  [[nodiscard]] bool read_line(std::string& line);

  enum class ReadStatus : std::uint8_t { kLine, kClosed, kTimeout };

  /// read_line with a wall-clock deadline — the fabric's lease-bounded
  /// wait for a shard result.
  [[nodiscard]] ReadStatus read_line_for(std::string& line,
                                         double timeout_ms);

 private:
  int fd_ = -1;
  net::LineFramer framer_;
};

}  // namespace cwsp::service
