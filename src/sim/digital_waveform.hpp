#pragma once
// Binary waveform over one clock cycle: an initial value plus a sorted
// list of toggle times. This is the representation the event-driven
// simulator uses to propagate SET glitches with electrical (inertial)
// masking.

#include <cstddef>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace cwsp::sim {

/// The waveform queries and the inertial filter over a bare sorted toggle
/// list, for storage that is not a DigitalWaveform (the compiled kernel's
/// transition arena). DigitalWaveform's members delegate to them.
namespace waveform {

/// Value at time t of a waveform starting at `initial` (toggles take
/// effect *at* their timestamp).
[[nodiscard]] bool value_at(std::span<const double> toggles, bool initial,
                            double t_ps);

/// True if any toggle falls inside [from, to].
[[nodiscard]] bool has_transition_in(std::span<const double> toggles,
                                     double from_ps, double to_ps);

/// Removes pulses narrower than min_width in place (inertial / electrical
/// masking) and returns how many toggles are kept at the front. Yields
/// exactly what repeatedly collapsing the first adjacent toggle pair
/// closer than min_width, until none is left, yields.
[[nodiscard]] inline std::size_t inertial_filter(std::span<double> toggles,
                                                 double min_width_ps) {
  CWSP_REQUIRE(min_width_ps >= 0.0);
  if (min_width_ps == 0.0) return toggles.size();
  // toggles[0, kept) is the filtered prefix and holds no close pair, so
  // the first close pair of the whole list is always (its last toggle,
  // the next unread one): dropping both is the repeated collapse, done in
  // one pass.
  std::size_t kept = 0;
  for (const double t : toggles) {
    if (kept > 0 && t - toggles[kept - 1] < min_width_ps) {
      --kept;  // the level between these two toggles is too short
    } else {
      toggles[kept++] = t;
    }
  }
  return kept;
}

}  // namespace waveform

class DigitalWaveform {
 public:
  DigitalWaveform() = default;
  explicit DigitalWaveform(bool initial) : initial_(initial) {}

  [[nodiscard]] bool initial() const { return initial_; }
  [[nodiscard]] const std::vector<double>& transitions() const {
    return transitions_;
  }
  [[nodiscard]] bool is_constant() const { return transitions_.empty(); }

  /// Value at time t (transitions take effect *at* their timestamp).
  [[nodiscard]] bool value_at(double t_ps) const {
    return waveform::value_at(transitions_, initial_, t_ps);
  }

  /// Final settled value.
  [[nodiscard]] bool final_value() const {
    return (transitions_.size() % 2 == 0) ? initial_ : !initial_;
  }

  /// Inverts the waveform during [t0, t1). Coincident toggles cancel; a
  /// degenerate zero-width pulse (t0 == t1) is a no-op.
  void xor_pulse(double t0_ps, double t1_ps);

  /// Replaces the transition list; must be sorted ascending.
  void set_transitions(std::vector<double> transitions);

  /// Removes pulses narrower than min_width (inertial / electrical
  /// masking): repeatedly collapses adjacent toggle pairs closer than
  /// min_width until stable.
  void inertial_filter(double min_width_ps);

  /// True if any transition falls inside [from, to].
  [[nodiscard]] bool has_transition_in(double from_ps, double to_ps) const {
    return waveform::has_transition_in(transitions_, from_ps, to_ps);
  }

 private:
  bool initial_ = false;
  std::vector<double> transitions_;
};

}  // namespace cwsp::sim
