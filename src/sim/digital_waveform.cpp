#include "sim/digital_waveform.hpp"

#include <algorithm>

namespace cwsp::sim {

bool waveform::value_at(std::span<const double> toggles, bool initial,
                        double t_ps) {
  // Number of toggles at or before t.
  const auto it = std::upper_bound(toggles.begin(), toggles.end(), t_ps);
  const auto count = static_cast<std::size_t>(it - toggles.begin());
  return (count % 2 == 0) ? initial : !initial;
}

bool waveform::has_transition_in(std::span<const double> toggles,
                                 double from_ps, double to_ps) {
  const auto lo = std::lower_bound(toggles.begin(), toggles.end(), from_ps);
  return lo != toggles.end() && *lo <= to_ps;
}

void DigitalWaveform::xor_pulse(double t0_ps, double t1_ps) {
  CWSP_REQUIRE(t0_ps <= t1_ps);
  if (t0_ps == t1_ps) return;
  auto toggle_at = [&](double t) {
    const auto it =
        std::lower_bound(transitions_.begin(), transitions_.end(), t);
    if (it != transitions_.end() && *it == t) {
      transitions_.erase(it);  // coincident toggles cancel
    } else {
      transitions_.insert(it, t);
    }
  };
  toggle_at(t0_ps);
  toggle_at(t1_ps);
}

void DigitalWaveform::set_transitions(std::vector<double> transitions) {
  CWSP_REQUIRE(std::is_sorted(transitions.begin(), transitions.end()));
  transitions_ = std::move(transitions);
}

void DigitalWaveform::inertial_filter(double min_width_ps) {
  transitions_.resize(waveform::inertial_filter(transitions_, min_width_ps));
}

}  // namespace cwsp::sim
