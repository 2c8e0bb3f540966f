#include "sim/digital_waveform.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace cwsp::sim {
namespace {

/// The filter's definition: collapse the first adjacent toggle pair
/// closer than min_width, then look again from the start, until none is
/// left.
std::vector<double> collapse_first_close_pair(std::vector<double> t,
                                              double min_width) {
  if (min_width == 0.0) return t;
  for (std::size_t i = 0; i + 1 < t.size();) {
    if (t[i + 1] - t[i] < min_width) {
      t.erase(t.begin() + static_cast<long>(i),
              t.begin() + static_cast<long>(i + 2));
      i = 0;
    } else {
      ++i;
    }
  }
  return t;
}

TEST(DigitalWaveform, ConstantValue) {
  const DigitalWaveform w(true);
  EXPECT_TRUE(w.value_at(0.0));
  EXPECT_TRUE(w.value_at(1000.0));
  EXPECT_TRUE(w.final_value());
  EXPECT_TRUE(w.is_constant());
}

TEST(DigitalWaveform, XorPulseInvertsWindow) {
  DigitalWaveform w(false);
  w.xor_pulse(100.0, 200.0);
  EXPECT_FALSE(w.value_at(50.0));
  EXPECT_TRUE(w.value_at(100.0));
  EXPECT_TRUE(w.value_at(150.0));
  EXPECT_FALSE(w.value_at(200.0));
  EXPECT_FALSE(w.final_value());
}

TEST(DigitalWaveform, OverlappingPulsesCancel) {
  DigitalWaveform w(false);
  w.xor_pulse(100.0, 200.0);
  w.xor_pulse(100.0, 200.0);  // identical pulse cancels
  EXPECT_TRUE(w.is_constant());
}

TEST(DigitalWaveform, AdjacentPulsesMerge) {
  DigitalWaveform w(false);
  w.xor_pulse(100.0, 200.0);
  w.xor_pulse(200.0, 300.0);  // toggles at 200 cancel
  EXPECT_EQ(w.transitions().size(), 2u);
  EXPECT_TRUE(w.value_at(150.0));
  EXPECT_TRUE(w.value_at(250.0));
  EXPECT_FALSE(w.value_at(350.0));
}

TEST(DigitalWaveform, ZeroWidthPulseIsNoop) {
  DigitalWaveform w(true);
  w.xor_pulse(50.0, 50.0);
  EXPECT_TRUE(w.is_constant());
}

TEST(DigitalWaveform, ZeroWidthPulseLeavesExistingTransitionsIntact) {
  // Regression: a degenerate t0 == t1 pulse must not perturb a waveform
  // that already toggles — including when it lands exactly on an existing
  // transition time (where a naive insert-two-toggles implementation
  // would cancel the real edge).
  DigitalWaveform w(false);
  w.xor_pulse(100.0, 200.0);
  const std::vector<double> before = w.transitions();
  w.xor_pulse(150.0, 150.0);  // inside the pulse
  EXPECT_EQ(w.transitions(), before);
  w.xor_pulse(100.0, 100.0);  // exactly on an edge
  EXPECT_EQ(w.transitions(), before);
  w.xor_pulse(300.0, 300.0);  // after the last edge
  EXPECT_EQ(w.transitions(), before);
  EXPECT_FALSE(w.initial());
}

TEST(DigitalWaveform, InertialFilterKillsNarrowPulse) {
  DigitalWaveform w(false);
  w.xor_pulse(100.0, 108.0);  // 8 ps pulse
  w.inertial_filter(10.0);
  EXPECT_TRUE(w.is_constant());
}

TEST(DigitalWaveform, InertialFilterKeepsWidePulse) {
  DigitalWaveform w(false);
  w.xor_pulse(100.0, 150.0);
  w.inertial_filter(10.0);
  EXPECT_EQ(w.transitions().size(), 2u);
}

TEST(DigitalWaveform, InertialFilterCascades) {
  // Two wide pulses separated by a narrow gap: the gap is filtered, the
  // merged pulse survives.
  DigitalWaveform w(false);
  w.xor_pulse(100.0, 150.0);
  w.xor_pulse(155.0, 210.0);  // 5 ps gap at level 0
  w.inertial_filter(10.0);
  EXPECT_EQ(w.transitions().size(), 2u);
  EXPECT_TRUE(w.value_at(152.0));  // gap removed
  EXPECT_FALSE(w.value_at(250.0));
}

TEST(DigitalWaveform, InertialFilterMatchesRepeatedCollapse) {
  // Random sorted lists on a 1 ps grid (so gaps equal to the width, and
  // coincident toggles, occur), filtered at widths on and off the grid.
  Rng rng(2026);
  std::size_t collapsed = 0, at_width = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<double> t(rng.next_below(12));
    double at = 0.0;
    for (double& x : t) {
      at += static_cast<double>(rng.next_below(25));
      x = at;
    }
    const double width = trial % 3 == 0 ? 0.0
                         : trial % 3 == 1
                             ? static_cast<double>(rng.next_below(20))
                             : rng.next_double_in(0.0, 20.0);
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i + 1] - t[i] == width) ++at_width;
    }
    const std::vector<double> expected = collapse_first_close_pair(t, width);
    if (expected.size() < t.size()) ++collapsed;
    std::vector<double> in_place = t;
    in_place.resize(waveform::inertial_filter(in_place, width));
    ASSERT_EQ(in_place, expected) << "trial " << trial;
    DigitalWaveform w(false);
    w.set_transitions(t);
    w.inertial_filter(width);
    ASSERT_EQ(w.transitions(), expected) << "trial " << trial;
  }
  EXPECT_GT(collapsed, 1000u);
  EXPECT_GT(at_width, 100u);
}

TEST(DigitalWaveform, HasTransitionIn) {
  DigitalWaveform w(false);
  w.xor_pulse(100.0, 200.0);
  EXPECT_TRUE(w.has_transition_in(90.0, 110.0));
  EXPECT_TRUE(w.has_transition_in(200.0, 200.0));
  EXPECT_FALSE(w.has_transition_in(110.0, 190.0));
  EXPECT_FALSE(w.has_transition_in(210.0, 300.0));
}

TEST(DigitalWaveform, FinalValueWithOddToggles) {
  DigitalWaveform w(false);
  w.set_transitions({10.0, 20.0, 30.0});
  EXPECT_TRUE(w.final_value());
  EXPECT_FALSE(w.value_at(5.0));
  EXPECT_TRUE(w.value_at(15.0));
  EXPECT_FALSE(w.value_at(25.0));
  EXPECT_TRUE(w.value_at(35.0));
}

TEST(DigitalWaveform, UnsortedTransitionsRejected) {
  DigitalWaveform w(false);
  EXPECT_THROW(w.set_transitions({20.0, 10.0}), Error);
}

}  // namespace
}  // namespace cwsp::sim
