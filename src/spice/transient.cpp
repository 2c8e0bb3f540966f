#include "spice/transient.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/json_text.hpp"
#include "spice/solver.hpp"

namespace cwsp::spice {
namespace {

/// Per-attempt Newton configuration. The recovery ladder varies these
/// between rungs; the direct path uses the TransientOptions values
/// verbatim so its arithmetic is bit-identical to the legacy engine.
struct NewtonSettings {
  double gmin = 1e-7;
  double v_step_limit = 0.4;
  int max_iterations = 200;
  double source_scale = 1.0;
  double v_tolerance = 1e-6;
};

struct NewtonOutcome {
  bool converged = false;
  bool singular = false;
  bool non_finite = false;
  std::size_t iterations = 0;
  double max_dv = 0.0;

  [[nodiscard]] const char* reason() const {
    if (singular) return "singular MNA matrix";
    if (non_finite) return "NaN/Inf in the solution vector";
    return "Newton failed to converge";
  }
};

bool all_finite(const std::vector<double>& values) {
  for (double value : values) {
    if (!std::isfinite(value)) return false;
  }
  return true;
}

/// One Newton solve of the (possibly nonlinear) system at a given time.
/// `v` holds the initial guess on entry; it is updated to the solution
/// only when the outcome reports convergence (node voltages followed by
/// branch currents). Any failure — non-convergence, singular
/// factorization, NaN/Inf anywhere — is reported in the outcome instead
/// of thrown, so the caller can escalate through the recovery ladder.
NewtonOutcome newton_solve(const Circuit& circuit, std::vector<double>& v,
                           const std::vector<double>& v_prev_step,
                           double time_ps, double dt_ps, bool transient,
                           const NewtonSettings& settings) {
  const std::size_t dim = circuit.dimension();
  const int num_nodes = circuit.num_nodes();
  std::vector<double> matrix(dim * dim, 0.0);
  std::vector<double> rhs(dim, 0.0);

  // Newton unknown vector indexed like the MNA system (node k → k-1).
  // `v` is indexed by node for the first num_nodes entries for caller
  // convenience; translate here.
  auto to_unknowns = [&](const std::vector<double>& by_node) {
    std::vector<double> x(dim, 0.0);
    for (int n = 1; n < num_nodes; ++n) {
      x[static_cast<std::size_t>(n - 1)] = by_node[static_cast<std::size_t>(n)];
    }
    for (int b = 0; b < circuit.num_branches(); ++b) {
      x[static_cast<std::size_t>(num_nodes - 1 + b)] =
          by_node[static_cast<std::size_t>(num_nodes + b)];
    }
    return x;
  };
  auto to_by_node = [&](const std::vector<double>& x) {
    std::vector<double> by_node(static_cast<std::size_t>(num_nodes) +
                                    static_cast<std::size_t>(circuit.num_branches()),
                                0.0);
    for (int n = 1; n < num_nodes; ++n) {
      by_node[static_cast<std::size_t>(n)] = x[static_cast<std::size_t>(n - 1)];
    }
    for (int b = 0; b < circuit.num_branches(); ++b) {
      by_node[static_cast<std::size_t>(num_nodes + b)] =
          x[static_cast<std::size_t>(num_nodes - 1 + b)];
    }
    return by_node;
  };

  std::vector<double> x = to_unknowns(v);
  const int max_iter = circuit.has_nonlinear_devices()
                           ? settings.max_iterations
                           : 2;  // linear circuits converge in one solve

  NewtonOutcome outcome;
  for (int iter = 0; iter < max_iter; ++iter) {
    ++outcome.iterations;
    std::fill(matrix.begin(), matrix.end(), 0.0);
    std::fill(rhs.begin(), rhs.end(), 0.0);

    // Devices read candidate voltages via a by-node view.
    const std::vector<double> v_candidate = to_by_node(x);
    StampContext ctx(matrix, rhs, v_candidate, v_prev_step, dim, num_nodes,
                     time_ps, dt_ps, transient, settings.source_scale);
    for (const auto& device : circuit.devices()) device->stamp(ctx);

    // gmin from every node to ground keeps held nodes well-posed.
    for (int n = 1; n < num_nodes; ++n) {
      matrix[static_cast<std::size_t>(n - 1) * dim +
             static_cast<std::size_t>(n - 1)] += settings.gmin;
    }

    // A device model evaluated far outside its valid range (e.g. a diode
    // exponential overflowing) poisons the stamps; catch it here so the
    // ladder can retry from a gentler point instead of propagating NaNs.
    if (!all_finite(matrix) || !all_finite(rhs)) {
      outcome.non_finite = true;
      return outcome;
    }

    DenseMatrix a(dim);
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t c = 0; c < dim; ++c) a.at(r, c) = matrix[r * dim + c];
    }
    std::vector<double> x_new;
    if (!try_solve_linear_system(std::move(a), rhs, x_new)) {
      outcome.singular = true;
      return outcome;
    }
    if (!all_finite(x_new)) {
      outcome.non_finite = true;
      return outcome;
    }

    // Damped update on node voltages; branch currents move freely.
    double max_dv = 0.0;
    for (std::size_t i = 0; i < dim; ++i) {
      double delta = x_new[i] - x[i];
      if (i < static_cast<std::size_t>(num_nodes - 1)) {
        delta = std::clamp(delta, -settings.v_step_limit,
                           settings.v_step_limit);
        max_dv = std::max(max_dv, std::fabs(delta));
      }
      x[i] += delta;
    }
    outcome.max_dv = max_dv;

    if (!circuit.has_nonlinear_devices()) {
      // One exact solve suffices; take the full solution.
      x = std::move(x_new);
      outcome.converged = true;
      break;
    }
    if (max_dv < settings.v_tolerance) {
      outcome.converged = true;
      break;
    }
  }

  if (outcome.converged) v = to_by_node(x);
  return outcome;
}

std::vector<double> initial_vector(const Circuit& circuit) {
  return std::vector<double>(
      static_cast<std::size_t>(circuit.num_nodes() + circuit.num_branches()),
      0.0);
}

NewtonSettings direct_settings(const TransientOptions& options) {
  NewtonSettings s;
  s.gmin = options.gmin;
  s.v_step_limit = options.v_step_limit;
  s.max_iterations = options.max_newton_iterations;
  s.v_tolerance = options.v_tolerance;
  return s;
}

/// DC operating point via the recovery ladder. Returns true and fills `v`
/// on success; every attempt is recorded in `diag`. When the gmin rung
/// accepts its residual-leak floor (the target gmin itself is singular,
/// e.g. a zero-capacitance loop with gmin = 0), `carried_gmin` — if
/// non-null — receives that leak so the transient stepper stays
/// well-posed; otherwise it is left at the caller's target.
bool solve_dc_ladder(const Circuit& circuit, const TransientOptions& options,
                     std::vector<double>& v, SolverDiagnostics& diag,
                     double* carried_gmin = nullptr) {
  auto attempt = [&](std::vector<double>& guess, const NewtonSettings& s,
                     RecoveryRung rung) {
    ++diag.rung_attempts[static_cast<std::size_t>(rung)];
    const std::vector<double> v_prev = guess;
    const NewtonOutcome out = newton_solve(circuit, guess, v_prev,
                                           /*time_ps=*/0.0, /*dt_ps=*/1.0,
                                           /*transient=*/false, s);
    diag.newton_iterations += out.iterations;
    diag.final_residual_v = out.max_dv;
    return out;
  };
  auto succeed = [&](RecoveryRung rung, std::vector<double>& solution) {
    if (rung != RecoveryRung::kDirect) diag.exact = false;
    diag.deepest_rung = std::max(diag.deepest_rung, rung);
    v = solution;
    return true;
  };

  // Rung 0: the direct solve, bit-identical to the legacy engine.
  std::vector<double> guess = initial_vector(circuit);
  NewtonOutcome direct = attempt(guess, direct_settings(options),
                                 RecoveryRung::kDirect);
  if (direct.converged) return succeed(RecoveryRung::kDirect, guess);
  if (!options.enable_recovery) {
    diag.converged = false;
    std::ostringstream os;
    os << direct.reason() << " in the DC operating point (max dV="
       << direct.max_dv << ", recovery disabled)";
    diag.failure = os.str();
    return false;
  }

  // Rung 1: tighter step clamp with a larger iteration budget — rescues
  // overshoot-driven oscillation around sharp nonlinearities.
  {
    NewtonSettings s = direct_settings(options);
    s.v_step_limit = options.v_step_limit / 8.0;
    s.max_iterations = options.max_newton_iterations * 4;
    guess = initial_vector(circuit);
    if (attempt(guess, s, RecoveryRung::kTightClamp).converged) {
      return succeed(RecoveryRung::kTightClamp, guess);
    }
  }

  // Rung 2: gmin stepping. A large leak conductance makes every node
  // strongly anchored (and the system nearly linear); ramp it down over
  // decades re-using each converged point as the next guess. If the exact
  // target gmin still fails, a residual leak of ≤1e-12 mS is accepted as
  // a (flagged, inexact) solution — it is far below any device
  // conductance in the V/kΩ/fF system.
  {
    constexpr double kGminFloor = 1e-12;
    NewtonSettings s = direct_settings(options);
    s.max_iterations = options.max_newton_iterations * 2;
    guess = initial_vector(circuit);
    bool tracking = true;
    double reached = -1.0;  // largest-to-smallest gmin that converged
    for (double g = 1e-1; g >= std::max(options.gmin, kGminFloor) * 0.99;
         g /= 10.0) {
      s.gmin = g;
      if (!attempt(guess, s, RecoveryRung::kGminStep).converged) {
        tracking = false;
        break;
      }
      reached = g;
    }
    if (tracking && reached > 0.0) {
      // Final solve at the exact target gmin.
      std::vector<double> exact_guess = guess;
      s.gmin = options.gmin;
      if (attempt(exact_guess, s, RecoveryRung::kGminStep).converged) {
        return succeed(RecoveryRung::kGminStep, exact_guess);
      }
      if (options.gmin < reached) {
        // The target itself is singular (e.g. gmin = 0 with a genuinely
        // floating node); keep the smallest-leak solution, flagged.
        if (carried_gmin != nullptr) *carried_gmin = reached;
        return succeed(RecoveryRung::kGminStep, guess);
      }
    }
  }

  // Rung 3: source stepping. Ramp every supply and stimulus from 0 to
  // 100%, following the solution branch by continuation; halve the ramp
  // increment on failure, with a bounded total attempt count.
  {
    NewtonSettings s = direct_settings(options);
    s.v_step_limit = options.v_step_limit / 8.0;
    s.max_iterations = options.max_newton_iterations * 4;
    guess = initial_vector(circuit);
    double reached = 0.0;
    double step = 0.25;
    int attempts = 0;
    constexpr int kMaxSourceAttempts = 64;
    constexpr double kMinSourceStep = 1.0 / 1024.0;
    while (reached < 1.0 && ++attempts <= kMaxSourceAttempts) {
      const double scale = std::min(1.0, reached + step);
      s.source_scale = scale;
      std::vector<double> trial = guess;
      if (attempt(trial, s, RecoveryRung::kSourceStep).converged) {
        guess = std::move(trial);
        reached = scale;
        step = std::min(step * 2.0, 0.25);
      } else {
        step /= 2.0;
        if (step < kMinSourceStep) break;
      }
    }
    if (reached >= 1.0) return succeed(RecoveryRung::kSourceStep, guess);
  }

  diag.converged = false;
  diag.exact = false;  // ladder ran (and failed): nothing exact about this
  std::ostringstream os;
  os << direct.reason()
     << " in the DC operating point; recovery ladder exhausted "
        "(tight-clamp, gmin-step, source-step all failed)";
  diag.failure = os.str();
  return false;
}

[[nodiscard]] TransientResult run_transient_impl(
    const Circuit& circuit, const TransientOptions& options,
    const std::vector<int>& probe_nodes, bool throw_on_failure) {
  CWSP_REQUIRE(options.dt_ps > 0.0);
  CWSP_REQUIRE(options.t_stop_ps > 0.0);

  TransientResult result;
  SolverDiagnostics& diag = result.diagnostics;
  for (int node : probe_nodes) result.probes.emplace(node, Waveform{});

  auto fail = [&](const std::string& why) -> TransientResult& {
    diag.converged = false;
    diag.failure = why;
    if (throw_on_failure) throw SolveError("transient analysis: " + why);
    return result;
  };

  // DC operating point seeds the transient. When the ladder had to keep
  // its residual-leak gmin, the stepper inherits it (the circuit is
  // singular without it at any dt, so subdivision alone cannot help).
  std::vector<double> v(initial_vector(circuit));
  double carried_gmin = options.gmin;
  if (!solve_dc_ladder(circuit, options, v, diag, &carried_gmin)) {
    result.final_voltages = v;
    result.total_newton_iterations = diag.newton_iterations;
    if (throw_on_failure) throw SolveError("transient analysis: " + diag.failure);
    return result;
  }

  auto record = [&](double t) {
    for (auto& [node, wave] : result.probes) {
      wave.append(t, v[static_cast<std::size_t>(node)]);
    }
  };
  record(0.0);

  NewtonSettings settings = direct_settings(options);
  settings.gmin = carried_gmin;  // == options.gmin unless the ladder kept a leak
  // Forward-Euler derivative estimate from the last accepted step; the
  // LTE-style accept test compares its prediction against the next
  // backward-Euler solution.
  std::vector<double> dvdt(v.size(), 0.0);
  bool have_derivative = false;

  double t = 0.0;
  while (t < options.t_stop_ps - 1e-12) {
    const double dt = std::min(options.dt_ps, options.t_stop_ps - t);
    const double target = t + dt;
    const std::vector<double> v_prev = v;

    // Direct attempt at the nominal step — the only path taken (and the
    // exact legacy arithmetic) when the circuit is well-behaved.
    NewtonOutcome out =
        newton_solve(circuit, v, v_prev, target, dt, /*transient=*/true,
                     settings);
    diag.newton_iterations += out.iterations;
    diag.final_residual_v = out.max_dv;
    if (out.converged) {
      ++diag.steps;
      diag.min_dt_ps = diag.min_dt_ps == 0.0 ? dt : std::min(diag.min_dt_ps, dt);
      for (std::size_t i = 0; i < v.size(); ++i) {
        dvdt[i] = (v[i] - v_prev[i]) / dt;
      }
      have_derivative = true;
      t = target;
      ++result.steps;
      record(t);
      continue;
    }

    ++diag.rejected_steps;
    if (!options.enable_recovery) {
      std::ostringstream os;
      os << out.reason() << " at t=" << target << " ps (max dV=" << out.max_dv
         << ", recovery disabled)";
      fail(os.str());
      break;
    }

    // Adaptive stepping: subdivide the nominal interval with halved dt,
    // exponential backoff down to the dt floor, and an LTE-style
    // accept/reject test on every converged substep. The waveform still
    // records at nominal grid points only.
    diag.exact = false;
    ++diag.subdivided_steps;
    std::vector<double> v_sub = v_prev;
    std::vector<double> dvdt_sub = dvdt;
    bool have_deriv_sub = have_derivative;
    double sub_t = t;
    double sub_dt = dt / 2.0;
    int attempts = 1;  // the rejected nominal attempt counts
    bool recovered = true;
    std::string sub_failure;
    while (sub_t < target - 1e-12) {
      const double step_dt = std::min(sub_dt, target - sub_t);
      if (step_dt < options.dt_floor_ps) {
        std::ostringstream os;
        os << out.reason() << " at t=" << target
           << " ps; dt floor reached (dt=" << step_dt << " ps < "
           << options.dt_floor_ps << " ps)";
        sub_failure = os.str();
        recovered = false;
        break;
      }
      if (++attempts > options.max_step_retries) {
        std::ostringstream os;
        os << "step retry budget exhausted at t=" << target << " ps ("
           << options.max_step_retries << " attempts)";
        sub_failure = os.str();
        recovered = false;
        break;
      }
      std::vector<double> v_try = v_sub;
      out = newton_solve(circuit, v_try, v_sub, sub_t + step_dt, step_dt,
                         /*transient=*/true, settings);
      diag.newton_iterations += out.iterations;
      diag.final_residual_v = out.max_dv;
      if (!out.converged) {
        ++diag.rejected_steps;
        sub_dt = step_dt / 2.0;
        continue;
      }
      if (have_deriv_sub) {
        double lte = 0.0;
        for (int n = 1; n < circuit.num_nodes(); ++n) {
          const auto i = static_cast<std::size_t>(n);
          lte = std::max(lte, std::fabs(v_try[i] -
                                        (v_sub[i] + step_dt * dvdt_sub[i])));
        }
        if (lte > options.lte_tolerance_v &&
            step_dt / 2.0 >= options.dt_floor_ps) {
          ++diag.rejected_steps;
          sub_dt = step_dt / 2.0;
          continue;
        }
      }
      // Accept the substep; regrow dt exponentially toward the nominal.
      for (std::size_t i = 0; i < v_try.size(); ++i) {
        dvdt_sub[i] = (v_try[i] - v_sub[i]) / step_dt;
      }
      have_deriv_sub = true;
      v_sub = std::move(v_try);
      sub_t += step_dt;
      ++diag.steps;
      ++result.steps;
      diag.min_dt_ps =
          diag.min_dt_ps == 0.0 ? step_dt : std::min(diag.min_dt_ps, step_dt);
      sub_dt = step_dt * 2.0;
    }
    if (!recovered) {
      result.final_voltages = v_sub;
      result.total_newton_iterations = diag.newton_iterations;
      fail(sub_failure);
      return result;
    }
    v = std::move(v_sub);
    dvdt = std::move(dvdt_sub);
    have_derivative = have_deriv_sub;
    t = target;
    record(t);
  }

  result.final_voltages = v;
  result.total_newton_iterations = diag.newton_iterations;
  return result;
}

void json_number(std::ostringstream& os, double value) {
  if (std::isfinite(value)) {
    os << value;
  } else {
    os << "null";
  }
}

}  // namespace

const char* to_string(RecoveryRung rung) {
  switch (rung) {
    case RecoveryRung::kDirect: return "direct";
    case RecoveryRung::kTightClamp: return "tight-clamp";
    case RecoveryRung::kGminStep: return "gmin-step";
    case RecoveryRung::kSourceStep: return "source-step";
  }
  return "?";
}

void SolverDiagnostics::merge(const SolverDiagnostics& other) {
  converged = converged && other.converged;
  exact = exact && other.exact;
  newton_iterations += other.newton_iterations;
  steps += other.steps;
  rejected_steps += other.rejected_steps;
  subdivided_steps += other.subdivided_steps;
  for (std::size_t i = 0; i < rung_attempts.size(); ++i) {
    rung_attempts[i] += other.rung_attempts[i];
  }
  deepest_rung = std::max(deepest_rung, other.deepest_rung);
  if (other.min_dt_ps > 0.0) {
    min_dt_ps = min_dt_ps == 0.0 ? other.min_dt_ps
                                 : std::min(min_dt_ps, other.min_dt_ps);
  }
  final_residual_v = other.final_residual_v;
  if (!other.failure.empty()) {
    failure = failure.empty() ? other.failure : failure + "; " + other.failure;
  }
}

std::string SolverDiagnostics::to_json() const {
  std::ostringstream os;
  os << "{\"converged\": " << (converged ? "true" : "false")
     << ", \"exact\": " << (exact ? "true" : "false")
     << ", \"newton_iterations\": " << newton_iterations
     << ", \"steps\": " << steps
     << ", \"rejected_steps\": " << rejected_steps
     << ", \"subdivided_steps\": " << subdivided_steps
     << ", \"rung_attempts\": {";
  for (std::size_t i = 0; i < rung_attempts.size(); ++i) {
    if (i != 0) os << ", ";
    os << '"' << to_string(static_cast<RecoveryRung>(i))
       << "\": " << rung_attempts[i];
  }
  os << "}, \"deepest_rung\": \"" << to_string(deepest_rung) << '"'
     << ", \"min_dt_ps\": ";
  json_number(os, min_dt_ps);
  os << ", \"final_residual_v\": ";
  json_number(os, final_residual_v);
  os << ", \"failure\": \"" << json_text::escape(failure) << "\"}";
  return os.str();
}

std::vector<double> solve_dc(const Circuit& circuit,
                             const TransientOptions& options) {
  SolverDiagnostics diag;
  std::vector<double> v = try_solve_dc(circuit, options, diag);
  if (!diag.converged) {
    throw SolveError("DC operating point: " + diag.failure);
  }
  return v;
}

std::vector<double> try_solve_dc(const Circuit& circuit,
                                 const TransientOptions& options,
                                 SolverDiagnostics& diagnostics) {
  std::vector<double> v = initial_vector(circuit);
  solve_dc_ladder(circuit, options, v, diagnostics);
  return v;
}

TransientResult run_transient(const Circuit& circuit,
                              const TransientOptions& options,
                              const std::vector<int>& probe_nodes) {
  return run_transient_impl(circuit, options, probe_nodes,
                            /*throw_on_failure=*/true);
}

TransientResult try_run_transient(const Circuit& circuit,
                                  const TransientOptions& options,
                                  const std::vector<int>& probe_nodes) {
  return run_transient_impl(circuit, options, probe_nodes,
                            /*throw_on_failure=*/false);
}

}  // namespace cwsp::spice
