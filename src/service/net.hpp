#pragma once
// Socket plumbing for the analysis service and the campaign fabric:
// endpoint parsing, connect-with-timeout, listener setup, and the NDJSON
// line framing and sending that Server and Client share.
//
// The NDJSON protocol is transport-agnostic (one request line, one
// response line); the TCP helpers only produce connected/listening file
// descriptors, which Server and Client then treat exactly like the Unix
// socket ones.

#include <cstdint>
#include <string>
#include <string_view>

namespace cwsp::service::net {

/// Splits a byte stream into '\n'-terminated lines. Each fill() is one
/// read(2) of up to 64 KB; the newline search resumes where the last one
/// stopped; a line that ends the buffered bytes is handed out by swapping
/// buffers, and one with bytes behind it is copied. Framing a line
/// therefore costs O(its length) however the peer splits its writes.
class LineFramer {
 public:
  /// Moves the next complete line, without its '\n', into `line`; false
  /// when none is buffered. `line`'s old storage may become the buffer.
  [[nodiscard]] bool next(std::string& line);
  /// Takes a handed-out line's storage back as the (empty) buffer, so a
  /// reader that recycles each line keeps a single allocation.
  void recycle(std::string& line);
  /// Appends one read(2) from `fd`; false on EOF or error.
  [[nodiscard]] bool fill(int fd);
  /// Bytes buffered behind the last complete line.
  [[nodiscard]] std::size_t pending() const { return buffer_.size() - start_; }

 private:
  std::string buffer_;
  std::size_t start_ = 0;    // first byte not yet handed out
  std::size_t scanned_ = 0;  // [start_, scanned_) holds no '\n'
};

/// Writes `head` then `tail` to `fd` without joining them (one sendmsg
/// per partial write); false once the peer is gone. Never raises SIGPIPE.
[[nodiscard]] bool send_all(int fd, std::string_view head,
                            std::string_view tail = {});

struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// Parses "host:port" (or ":port", defaulting the host to 127.0.0.1).
/// Returns false for anything else — notably strings without a colon or
/// with a non-numeric port, which callers treat as Unix socket paths.
[[nodiscard]] bool parse_tcp_endpoint(const std::string& text, Endpoint& out);

[[nodiscard]] std::string to_string(const Endpoint& endpoint);

/// Connects to `endpoint` (IPv4, numeric or resolvable host) with a
/// bounded wall-clock budget; 0 means the OS default. Returns the
/// connected blocking fd, or -1 with errno describing the failure.
[[nodiscard]] int tcp_connect(const Endpoint& endpoint, double timeout_ms);

/// Binds + listens on `endpoint` (port 0 picks an ephemeral port, written
/// to `bound_port`). Throws cwsp::Error when the address cannot be bound.
[[nodiscard]] int tcp_listen(const Endpoint& endpoint,
                             std::uint16_t* bound_port);

}  // namespace cwsp::service::net
