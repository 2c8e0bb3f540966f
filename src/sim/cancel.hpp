#pragma once
// Cooperative cancellation for long-running simulations.
//
// The simulators poll a CancelToken at cheap, frequent checkpoints (per
// gate in the event simulator, through cancelled_at, per cycle in the
// protection protocol) and abort by throwing CancelledError. Another
// thread may flip it with cancel() (the service's job cancellation), or
// the token expires on its own deadline.
//
// A token's deadline is absolute (steady-clock). Once it passes,
// cancelled() reports true without anyone calling cancel(), so no reaper
// thread is needed. This carries both time budgets: a campaign's
// per-strike `timeout_ms` (each engine worker re-arms its own token per
// strike; the engine degrades a cancelled strike to `inconclusive`
// instead of killing the run) and a `deadline_ms` admitted at the service
// boundary (coordinator → worker → EngineOptions::cancel). The clock is
// only read when a deadline is armed, so deadline-free polling stays a
// single relaxed load; cancelled_at also spaces the clock reads of a
// per-gate poll kClockStride polls apart.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "common/error.hpp"

namespace cwsp::sim {

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  void reset() {
    cancelled_.store(false, std::memory_order_relaxed);
    deadline_ns_.store(0, std::memory_order_relaxed);
  }
  [[nodiscard]] bool cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    return deadline_expired();
  }

  /// Polls between reading the clock in cancelled_at.
  static constexpr std::size_t kClockStride = 32;
  /// cancelled() for the `poll`-th check of a hot loop (counting from 0):
  /// an explicit cancel() is seen at every poll, but an armed deadline
  /// reads the clock only at poll 0 and then once every kClockStride
  /// polls, so a per-gate check costs one relaxed load on most gates.
  [[nodiscard]] bool cancelled_at(std::size_t poll) const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    return poll % kClockStride == 0 && deadline_expired();
  }

  /// Arms an absolute deadline; Clock::time_point::max() (or re-arming
  /// with 0 ns) disarms it.
  void set_deadline(Clock::time_point deadline) {
    if (deadline == Clock::time_point::max()) {
      deadline_ns_.store(0, std::memory_order_relaxed);
      return;
    }
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_relaxed);
  }

  /// True when a deadline is armed and has passed — lets callers tell a
  /// blown deadline apart from an explicit cancel().
  [[nodiscard]] bool deadline_expired() const {
    const auto ns = deadline_ns_.load(std::memory_order_relaxed);
    if (ns == 0) return false;
    return Clock::now().time_since_epoch().count() >= ns;
  }

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<Clock::rep> deadline_ns_{0};
};

/// Thrown from a simulator checkpoint once its token is cancelled.
class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& what) : Error(what) {}
};

}  // namespace cwsp::sim
