#include "analysis/certify.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "campaign/minimize.hpp"
#include "common/error.hpp"
#include "common/json_text.hpp"
#include "common/rng.hpp"
#include "cwsp/protection_sim.hpp"
#include "cwsp/timing.hpp"
#include "set/strike_plan.hpp"
#include "sim/strike_lanes.hpp"
#include "sta/sta.hpp"

namespace cwsp::analysis {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTimeEps = 1e-9;
constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);
/// Witness-candidate caps: per site overall, and per stimulus batch (so
/// one lucky batch cannot crowd out stimulus diversity).
constexpr std::size_t kMaxCandidatesPerSite = 8;
constexpr std::size_t kMaxCandidatesPerBatch = 2;
/// Visited-pair cap for the post-strike distinguishing search.
constexpr std::size_t kMaxDistinguishPairs = 128;

std::string num(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", v);
  return buffer;
}

/// A flip-flop whose D pin a wide-enough pulse from the site can reach.
struct DangerFF {
  std::size_t ff = 0;
  /// max(δ, electrical threshold): pulses narrower than this are proved
  /// harmless for this endpoint.
  double guard_ps = 0.0;
  /// Slot of the D net's window in the site's SiteWindows.
  std::uint32_t slot = 0;
};

/// A statically sensitized (state, vector, endpoint) triple to try to
/// grow into a confirmed timed escape.
struct Candidate {
  std::size_t state = 0;
  std::vector<bool> vec;
  std::size_t ff = 0;
};

struct DangerSite {
  std::size_t cert_index = 0;
  NetId site;
  SiteWindows windows;
  std::vector<DangerFF> ffs;
  bool ambiguous = false;
  std::uint32_t blocking_gate = GlitchWindow::kNone;
  bool any_sensitized = false;
  std::vector<Candidate> candidates;

  [[nodiscard]] bool candidates_full() const {
    return candidates.size() >= kMaxCandidatesPerSite;
  }
};

/// Reachable flip-flop states from the all-zero reset (ProtectionSim's
/// reset), with parent pointers so any state yields a driving prefix.
struct StateSpace {
  std::vector<std::vector<bool>> states;  // BFS discovery order; [0]=reset
  std::vector<std::size_t> parent;        // kNoIndex for the root
  std::vector<std::vector<bool>> via;     // input vector taken from parent
  bool overflowed = false;
};

/// Deterministic stimulus list for one state (or one distinguish node):
/// all 2^npi vectors when exhaustive, else `count` vectors drawn from a
/// splittable stream so results are independent of evaluation order.
std::vector<std::vector<bool>> stimulus_vectors(std::size_t npi,
                                                bool exhaustive,
                                                std::size_t count,
                                                std::uint64_t seed,
                                                std::uint64_t stream_id) {
  std::vector<std::vector<bool>> out;
  if (exhaustive) {
    const std::size_t total = std::size_t{1} << npi;
    out.reserve(total);
    for (std::size_t v = 0; v < total; ++v) {
      std::vector<bool> vec(npi);
      for (std::size_t p = 0; p < npi; ++p) vec[p] = ((v >> p) & 1u) != 0;
      out.push_back(std::move(vec));
    }
  } else {
    Rng rng = Rng::stream(seed, stream_id);
    out.reserve(count);
    for (std::size_t v = 0; v < count; ++v) {
      std::vector<bool> vec(npi);
      for (std::size_t p = 0; p < npi; ++p) {
        vec[p] = (rng.next_u64() & 1u) != 0;
      }
      out.push_back(std::move(vec));
    }
  }
  return out;
}

/// Loads one FF state (same in every lane) and up to lanes() input
/// vectors into a wide batch.
void load_batch(sim::WideLogicSim& sim, const FlatNetlistView& view,
                const std::vector<bool>& state,
                const std::vector<std::vector<bool>>& vecs, std::size_t base,
                std::size_t count) {
  for (std::size_t f = 0; f < view.num_flip_flops(); ++f) {
    sim.fill_ff(f, state[f]);
  }
  const std::size_t words = sim.words_per_net();
  for (std::size_t p = 0; p < view.num_primary_inputs(); ++p) {
    for (std::size_t w = 0; w < words; ++w) {
      const std::size_t lo = w * 64;
      const std::size_t n =
          count > lo ? std::min<std::size_t>(64, count - lo) : 0;
      std::uint64_t bits = 0;
      for (std::size_t l = 0; l < n; ++l) {
        if (vecs[base + lo + l][p]) bits |= 1ull << l;
      }
      sim.set_input_word(p, w, bits);
    }
  }
}

StateSpace enumerate_states(sim::WideLogicSim& sim,
                            const FlatNetlistView& view,
                            const CertifyOptions& options, std::size_t npi,
                            bool exhaustive, std::size_t vectors_per_state) {
  StateSpace space;
  const std::size_t nff = view.num_flip_flops();
  const std::size_t lanes = sim.lanes();
  const std::size_t words = sim.words_per_net();
  space.states.emplace_back(nff, false);
  space.parent.push_back(kNoIndex);
  space.via.emplace_back();
  std::map<std::vector<bool>, std::size_t> seen;
  seen.emplace(space.states[0], 0);

  for (std::size_t i = 0; i < space.states.size(); ++i) {
    const auto vecs = stimulus_vectors(npi, exhaustive, vectors_per_state,
                                       options.seed, i);
    for (std::size_t base = 0; base < vecs.size(); base += lanes) {
      const std::size_t count =
          std::min<std::size_t>(lanes, vecs.size() - base);
      load_batch(sim, view, space.states[i], vecs, base, count);
      sim.evaluate();
      std::vector<std::uint64_t> d_words(nff * words);
      for (std::size_t f = 0; f < nff; ++f) {
        for (std::size_t w = 0; w < words; ++w) {
          d_words[f * words + w] =
              sim.value_word(NetId{view.ff_d_net(f)}, w);
        }
      }
      // Lane order == vector order, so discovery order (and therefore
      // state indices, parents and the overflow point) is identical at
      // every lane width.
      for (std::size_t l = 0; l < count; ++l) {
        std::vector<bool> next(nff);
        for (std::size_t f = 0; f < nff; ++f) {
          next[f] =
              ((d_words[f * words + l / 64] >> (l % 64)) & 1u) != 0;
        }
        if (seen.find(next) != seen.end()) continue;
        if (space.states.size() >= options.max_states) {
          space.overflowed = true;
          continue;
        }
        seen.emplace(next, space.states.size());
        space.states.push_back(std::move(next));
        space.parent.push_back(i);
        space.via.push_back(vecs[base + l]);
      }
    }
  }
  return space;
}

/// Input prefix that drives the design from reset into `state`.
std::vector<std::vector<bool>> prefix_to(const StateSpace& space,
                                         std::size_t state) {
  std::vector<std::vector<bool>> inputs;
  std::size_t s = state;
  while (space.parent[s] != kNoIndex) {
    inputs.push_back(space.via[s]);
    s = space.parent[s];
  }
  std::reverse(inputs.begin(), inputs.end());
  return inputs;
}

/// Post-capture distinguishing search. After a width>δ capture the check
/// word tracks the corrupted trajectory, so the corruption stays silent
/// until some later input makes the corrupt and golden states commit
/// different primary outputs. BFS over (golden, corrupt) state pairs up
/// to the confirm horizon; returns the input vectors to append after the
/// strike cycle, or nullopt if the pair space never splits at a PO.
std::optional<std::vector<std::vector<bool>>> distinguish(
    sim::WideLogicSim& sim, const FlatNetlistView& view,
    const std::vector<bool>& golden, const std::vector<bool>& corrupt,
    const CertifyOptions& options, std::size_t npi, bool exhaustive,
    std::size_t vectors_per_state) {
  if (golden == corrupt) return std::nullopt;
  const std::size_t nff = view.num_flip_flops();
  const std::size_t lanes = sim.lanes();
  const std::size_t words = sim.words_per_net();
  const auto& po_nets = view.po_nets();

  struct PairNode {
    std::vector<bool> g;
    std::vector<bool> c;
    std::size_t depth = 0;
    std::size_t parent = kNoIndex;
    std::vector<bool> via;
  };
  auto key_of = [nff](const std::vector<bool>& g, const std::vector<bool>& c) {
    std::vector<bool> k;
    k.reserve(2 * nff);
    k.insert(k.end(), g.begin(), g.end());
    k.insert(k.end(), c.begin(), c.end());
    return k;
  };

  std::vector<PairNode> nodes;
  std::set<std::vector<bool>> visited;
  nodes.push_back(PairNode{golden, corrupt, 0, kNoIndex, {}});
  visited.insert(key_of(golden, corrupt));

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    // Stream ids are decorrelated from the reachable-state sweep streams.
    const auto vecs =
        stimulus_vectors(npi, exhaustive, vectors_per_state,
                         options.seed ^ 0xd15717c400000000ull, i);
    for (std::size_t base = 0; base < vecs.size(); base += lanes) {
      const std::size_t count =
          std::min<std::size_t>(lanes, vecs.size() - base);

      load_batch(sim, view, nodes[i].g, vecs, base, count);
      sim.evaluate();
      std::vector<std::uint64_t> g_po(po_nets.size() * words);
      for (std::size_t o = 0; o < po_nets.size(); ++o) {
        for (std::size_t w = 0; w < words; ++w) {
          g_po[o * words + w] = sim.value_word(NetId{po_nets[o]}, w);
        }
      }
      std::vector<std::uint64_t> g_d(nff * words);
      for (std::size_t f = 0; f < nff; ++f) {
        for (std::size_t w = 0; w < words; ++w) {
          g_d[f * words + w] = sim.value_word(NetId{view.ff_d_net(f)}, w);
        }
      }

      load_batch(sim, view, nodes[i].c, vecs, base, count);
      sim.evaluate();
      std::vector<std::uint64_t> c_po(po_nets.size() * words);
      for (std::size_t o = 0; o < po_nets.size(); ++o) {
        for (std::size_t w = 0; w < words; ++w) {
          c_po[o * words + w] = sim.value_word(NetId{po_nets[o]}, w);
        }
      }
      std::vector<std::uint64_t> c_d(nff * words);
      for (std::size_t f = 0; f < nff; ++f) {
        for (std::size_t w = 0; w < words; ++w) {
          c_d[f * words + w] = sim.value_word(NetId{view.ff_d_net(f)}, w);
        }
      }

      // Consume the wide batch per 64-lane subword in ascending order:
      // the split point and the expansion sequence reproduce the
      // 64-wide search exactly, so the returned chain is byte-identical
      // at every lane width.
      for (std::size_t w = 0; w * 64 < count; ++w) {
        const std::size_t sub = std::min<std::size_t>(64, count - w * 64);
        const std::uint64_t mask =
            sub == 64 ? ~0ull : ((1ull << sub) - 1ull);
        std::uint64_t po_diff = 0;
        for (std::size_t o = 0; o < po_nets.size(); ++o) {
          po_diff |= c_po[o * words + w] ^ g_po[o * words + w];
        }
        po_diff &= mask;
        if (po_diff != 0) {
          const auto lane =
              w * 64 + static_cast<std::size_t>(std::countr_zero(po_diff));
          std::vector<std::vector<bool>> chain;
          chain.push_back(vecs[base + lane]);
          std::size_t n = i;
          while (nodes[n].parent != kNoIndex) {
            chain.push_back(nodes[n].via);
            n = nodes[n].parent;
          }
          std::reverse(chain.begin(), chain.end());
          return chain;
        }

        if (nodes[i].depth + 1 >= options.confirm_horizon) continue;
        for (std::size_t l = 0;
             l < sub && nodes.size() < kMaxDistinguishPairs; ++l) {
          std::vector<bool> ng(nff);
          std::vector<bool> nc(nff);
          for (std::size_t f = 0; f < nff; ++f) {
            ng[f] = ((g_d[f * words + w] >> l) & 1u) != 0;
            nc[f] = ((c_d[f * words + w] >> l) & 1u) != 0;
          }
          if (ng == nc) continue;  // converged: permanently silent
          if (!visited.insert(key_of(ng, nc)).second) continue;
          nodes.push_back(PairNode{std::move(ng), std::move(nc),
                                   nodes[i].depth + 1, i,
                                   vecs[base + w * 64 + l]});
        }
      }
    }
  }
  return std::nullopt;
}

/// Strike-start candidates that land the pulse across the capture edge at
/// `period` for some path delay inside the endpoint's arrival window.
std::vector<double> start_candidates(const GlitchWindow& wnd, double width,
                                     double period) {
  const double e = wnd.earliest_ps;
  const double l = wnd.latest_ps;
  const double raw[] = {
      period - e - 0.5 * width,        // pulse centred via the fastest path
      period - l - 0.5 * width,        // ... via the slowest path
      period - 0.5 * (e + l) - 0.5 * width,
      period - e - width + 1.0,        // trailing edge just after capture
      period - e - 1.0,                // leading edge just before capture
  };
  std::vector<double> out;
  for (double s : raw) {
    s = std::min(s, period - 1.0);
    s = std::max(s, 0.0);
    bool dup = false;
    for (double t : out) {
      if (std::abs(t - s) < 0.25) {
        dup = true;
        break;
      }
    }
    if (!dup) out.push_back(s);
  }
  return out;
}

}  // namespace

const char* to_string(SiteVerdict verdict) {
  switch (verdict) {
    case SiteVerdict::kProvedCovered:
      return "proved-covered";
    case SiteVerdict::kProvedEscape:
      return "proved-escape";
    case SiteVerdict::kUnknown:
      return "unknown";
  }
  return "unknown";
}

const char* to_string(CoveredReason reason) {
  switch (reason) {
    case CoveredReason::kNoPath:
      return "no-path";
    case CoveredReason::kCwspEnvelope:
      return "cwsp-envelope";
    case CoveredReason::kElectricalMasking:
      return "electrical-masking";
    case CoveredReason::kLogicalMasking:
      return "logical-masking";
  }
  return "no-path";
}

std::size_t CertifyResult::covered_count() const {
  std::size_t n = 0;
  for (const auto& s : sites) {
    if (s.verdict == SiteVerdict::kProvedCovered) ++n;
  }
  return n;
}

std::size_t CertifyResult::escape_count() const {
  std::size_t n = 0;
  for (const auto& s : sites) {
    if (s.verdict == SiteVerdict::kProvedEscape) ++n;
  }
  return n;
}

std::size_t CertifyResult::unknown_count() const {
  std::size_t n = 0;
  for (const auto& s : sites) {
    if (s.verdict == SiteVerdict::kUnknown) ++n;
  }
  return n;
}

std::size_t CertifyResult::fallback_count() const {
  std::size_t n = 0;
  for (const auto& s : sites) {
    if (s.used_fallback) ++n;
  }
  return n;
}

double CertifyResult::min_margin_ps() const {
  double best = kInf;
  for (const auto& s : sites) {
    if (s.verdict != SiteVerdict::kProvedCovered) continue;
    if (s.margin_unbounded) continue;
    best = std::min(best, s.margin_ps);
  }
  return best == kInf ? -1.0 : best;
}

CertifyResult certify_design(
    const Netlist& netlist, const core::ProtectionParams& params,
    Picoseconds clock_period, const CertifyOptions& options,
    std::shared_ptr<const sim::CompiledKernelContext> context) {
  if (context == nullptr) context = sim::CompiledKernelContext::build(netlist);
  const FlatNetlistView& view = *context->view;
  const std::vector<double>& delays = *context->gate_delay_ps;

  CertifyResult result;
  result.design = netlist.name();
  result.params = params;
  result.clock_period = clock_period;
  result.seed = options.seed;
  const double delta = params.delta.value();
  const double envelope =
      options.envelope_ps > 0.0 ? options.envelope_ps : delta;
  result.envelope_ps = envelope;

  const TimingResult sta = run_sta(netlist);
  result.physical_envelope_ps =
      core::effective_protected_glitch(
          core::DesignTiming{sta.dmax, sta.dmin}, params,
          Picoseconds(options.clock_skew_ps))
          .value();

  const std::vector<NetId> sites = set::strike_sites(netlist);
  result.sites.resize(sites.size());
  const std::size_t nff = view.num_flip_flops();

  // Net -> flip-flops whose D pin it drives: first_ff[net], then the
  // next_ff chain, in ascending flip-flop index.
  std::vector<std::uint32_t> first_ff(view.num_nets(), GlitchWindow::kNone);
  std::vector<std::uint32_t> next_ff(nff, GlitchWindow::kNone);
  for (std::size_t f = nff; f-- > 0;) {
    next_ff[f] = first_ff[view.ff_d_net(f)];
    first_ff[view.ff_d_net(f)] = static_cast<std::uint32_t>(f);
  }

  // ---------------------------------------------------- Phase A: windows
  std::vector<DangerSite> danger;
  // (flip-flop, window slot) of every D pin the site reaches.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> reached;
  for (std::size_t si = 0; si < sites.size(); ++si) {
    SiteCertificate& cert = result.sites[si];
    cert.site = sites[si];
    SiteWindows wnd = propagate_windows(view, delays, sites[si]);

    reached.clear();
    for (std::uint32_t slot = 0; slot < wnd.nets.size(); ++slot) {
      for (std::uint32_t f = first_ff[wnd.nets[slot]];
           f != GlitchWindow::kNone; f = next_ff[f]) {
        reached.emplace_back(f, slot);
      }
    }
    // Ascending flip-flop index: guard_min ties keep the lowest one.
    std::sort(reached.begin(), reached.end());

    double guard_min = kInf;
    std::size_t guard_min_ff = 0;
    std::vector<DangerFF> dangerous;
    for (const auto& [f, slot] : reached) {
      const double guard =
          std::max(delta, wnd.windows[slot].width_threshold_ps);
      if (guard < guard_min) {
        guard_min = guard;
        guard_min_ff = f;
      }
      if (guard + kTimeEps < envelope) dangerous.push_back({f, guard, slot});
    }

    if (reached.empty()) {
      cert.verdict = SiteVerdict::kProvedCovered;
      cert.reason = CoveredReason::kNoPath;
      cert.margin_unbounded = true;
      cert.note = "no flip-flop D pin is reachable from this site";
      continue;
    }
    if (dangerous.empty()) {
      cert.verdict = SiteVerdict::kProvedCovered;
      cert.reason = delta + kTimeEps >= envelope
                        ? CoveredReason::kCwspEnvelope
                        : CoveredReason::kElectricalMasking;
      cert.margin_ps = guard_min - envelope;
      cert.limiting_ff = static_cast<std::int64_t>(guard_min_ff);
      cert.path = witness_path(wnd, NetId{view.ff_d_net(guard_min_ff)});
      cert.note = cert.reason == CoveredReason::kCwspEnvelope
                      ? "the protocol repairs every pulse in the envelope"
                      : "every reaching path filters the envelope out";
      continue;
    }

    std::sort(dangerous.begin(), dangerous.end(),
              [](const DangerFF& a, const DangerFF& b) {
                if (a.guard_ps != b.guard_ps) return a.guard_ps < b.guard_ps;
                return a.ff < b.ff;
              });
    DangerSite ds;
    ds.cert_index = si;
    ds.site = sites[si];
    ds.ffs = std::move(dangerous);
    for (const DangerFF& df : ds.ffs) {
      const GlitchWindow& w = wnd.windows[df.slot];
      if (w.ambiguous) {
        ds.ambiguous = true;
        if (ds.blocking_gate == GlitchWindow::kNone) {
          ds.blocking_gate = w.merge_gate;
        }
      }
    }
    ds.windows = std::move(wnd);
    danger.push_back(std::move(ds));
  }

  if (danger.empty()) return result;

  // The protocol simulator requires Eq. 6; a period below it means the
  // architecture cannot even be instantiated for these params, so the
  // fallback has no oracle to confirm against.
  const bool can_sim =
      clock_period.value() + kTimeEps >=
      core::min_clock_period_for_delta(params).value();
  if (!can_sim) {
    for (const DangerSite& ds : danger) {
      SiteCertificate& cert = result.sites[ds.cert_index];
      cert.verdict = SiteVerdict::kUnknown;
      cert.blocking_gate = ds.blocking_gate;
      cert.note =
          "clock period is below the Eq. 6 minimum for this delta; "
          "simulation fallback skipped";
    }
    return result;
  }

  // ------------------------------------------- Phase B: targeted sweeps
  const std::size_t npi = view.num_primary_inputs();
  const bool exhaustive = npi <= options.exhaustive_pi_limit;
  const std::size_t vectors_per_state =
      exhaustive ? (std::size_t{1} << npi) : options.vectors_per_state;

  // Lane width of the sweep kernel. Auto (0) caps the dispatched width
  // at the per-state vector count: lanes the stimulus cannot fill only
  // widen every topo sweep without resolving more vectors.
  std::size_t lane_width = options.lane_width;
  if (lane_width == 0) {
    const std::size_t dispatched = sim::WideLogicSim::dispatched_isa().lanes;
    lane_width = 64;
    for (std::size_t w : sim::WideLogicSim::supported_lane_widths()) {
      if (w <= dispatched && w <= vectors_per_state) {
        lane_width = std::max(lane_width, w);
      }
    }
  }

  sim::WideLogicSim logic(context->view, lane_width);
  StateSpace space = enumerate_states(logic, view, options, npi, exhaustive,
                                      vectors_per_state);
  result.swept_states = space.states.size();
  result.vectors_exhaustive = exhaustive;
  result.states_complete = exhaustive && !space.overflowed;

  const std::size_t lanes = logic.lanes();
  std::vector<DangerSite*> active;
  active.reserve(danger.size());
  for (DangerSite& ds : danger) active.push_back(&ds);
  for (std::size_t i = 0; i < space.states.size() && !active.empty(); ++i) {
    const auto vecs = stimulus_vectors(npi, exhaustive, vectors_per_state,
                                       options.seed, i);
    for (std::size_t base = 0; base < vecs.size() && !active.empty();
         base += lanes) {
      const std::size_t count =
          std::min<std::size_t>(lanes, vecs.size() - base);
      load_batch(logic, view, space.states[i], vecs, base, count);
      logic.evaluate();
      for (auto it = active.begin(); it != active.end();) {
        DangerSite& ds = **it;
        logic.evaluate_with_flip(ds.site);
        // One wide evaluation, consumed per 64-lane subword with the
        // per-batch caps of the 64-wide sweep: candidate identity and
        // order are byte-identical at every lane width.
        for (std::size_t w = 0; w * 64 < count && !ds.candidates_full();
             ++w) {
          const std::size_t sub = std::min<std::size_t>(64, count - w * 64);
          const std::uint64_t mask =
              sub == 64 ? ~0ull : ((1ull << sub) - 1ull);
          std::size_t added = 0;
          for (const DangerFF& df : ds.ffs) {
            std::uint64_t diff =
                logic.flip_diff_word(NetId{view.ff_d_net(df.ff)}, w) & mask;
            if (diff == 0) continue;
            ds.any_sensitized = true;
            while (diff != 0 && !ds.candidates_full() &&
                   added < kMaxCandidatesPerBatch) {
              const auto l = static_cast<std::size_t>(std::countr_zero(diff));
              diff &= diff - 1;
              ds.candidates.push_back(
                  Candidate{i, vecs[base + w * 64 + l], df.ff});
              ++added;
            }
            if (ds.candidates_full() || added >= kMaxCandidatesPerBatch) {
              break;
            }
          }
        }
        if (ds.candidates_full()) {
          it = active.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  // -------------------------------------- Phase C: confirm or conclude
  const core::ProtectionSim psim(netlist, params, clock_period, {}, context);
  sim::CompiledEventSim event_sim(netlist, context);

  for (DangerSite& ds : danger) {
    SiteCertificate& cert = result.sites[ds.cert_index];
    cert.used_fallback = true;

    if (!ds.any_sensitized) {
      if (!ds.ambiguous && result.states_complete &&
          result.vectors_exhaustive) {
        // Reconvergence-free endpoints: static sensitization coincides
        // with dynamic disturbance, so an exhaustive miss is a proof.
        cert.verdict = SiteVerdict::kProvedCovered;
        cert.reason = CoveredReason::kLogicalMasking;
        cert.margin_unbounded = true;
        cert.note =
            "exhaustive reachable-state sweep: no stimulus sensitizes "
            "the site into any flip-flop";
      } else {
        cert.verdict = SiteVerdict::kUnknown;
        cert.blocking_gate = ds.blocking_gate;
        cert.note =
            ds.ambiguous
                ? "reconvergent fanout: static sensitization is "
                  "inconclusive and no escape was found"
                : "state/vector budget exhausted before the sweep "
                  "covered the reachable space";
      }
      continue;
    }

    bool confirmed = false;
    bool budget_out = false;
    std::size_t attempts = 0;
    for (const Candidate& cand : ds.candidates) {
      if (confirmed || budget_out) break;
      const GlitchWindow& wnd = ds.windows.at(NetId{view.ff_d_net(cand.ff)});
      for (double start :
           start_candidates(wnd, envelope, clock_period.value())) {
        if (attempts >= options.max_confirm_attempts) {
          budget_out = true;
          break;
        }
        ++attempts;
        set::Strike strike;
        strike.node = ds.site;
        strike.start = Picoseconds(start);
        strike.width = Picoseconds(envelope);

        const sim::CycleResult cr = event_sim.simulate_cycle(
            cand.vec, space.states[cand.state], clock_period, strike);
        std::size_t corrupted_ff = nff;
        for (std::size_t f = 0; f < nff; ++f) {
          if (cr.latched_d[f] != cr.golden_d[f]) {
            corrupted_ff = f;
            break;
          }
        }
        if (corrupted_ff == nff) continue;

        const auto follow =
            distinguish(logic, view, cr.golden_d, cr.latched_d, options, npi,
                        exhaustive, vectors_per_state);
        if (!follow.has_value()) continue;

        std::vector<std::vector<bool>> inputs = prefix_to(space, cand.state);
        const std::size_t strike_cycle = inputs.size();
        inputs.push_back(cand.vec);
        inputs.insert(inputs.end(), follow->begin(), follow->end());

        core::ScheduledStrike scheduled;
        scheduled.cycle = strike_cycle;
        scheduled.target = core::StrikeTarget::kFunctional;
        scheduled.strike = strike;
        if (attempts >= options.max_confirm_attempts) {
          budget_out = true;
          break;
        }
        ++attempts;
        if (psim.run(inputs, {scheduled}).recovered()) continue;

        cert.verdict = SiteVerdict::kProvedEscape;
        cert.limiting_ff = static_cast<std::int64_t>(corrupted_ff);
        cert.path =
            witness_path(ds.windows, NetId{view.ff_d_net(corrupted_ff)});
        cert.witness_cycle = strike_cycle;
        cert.witness_start_ps = start;
        cert.witness_width_ps = envelope;
        cert.witness_inputs = inputs;
        cert.note = "confirmed by protection-protocol replay";

        if (options.minimize_witnesses || !options.artifact_dir.empty()) {
          set::PlannedStrike planned;
          planned.index = ds.site.index();
          planned.klass = envelope > delta + kTimeEps
                              ? set::StrikeClass::kOutOfEnvelope
                              : set::StrikeClass::kFunctional;
          planned.cycle = strike_cycle;
          planned.strike = strike;

          campaign::EscapeRepro repro;
          if (options.minimize_witnesses) {
            repro = campaign::minimize_escape(psim, planned, inputs);
            cert.witness_cycle = repro.minimized.cycle;
            cert.witness_start_ps = repro.minimized.strike.start.value();
            cert.witness_width_ps = repro.minimized.strike.width.value();
            cert.witness_inputs = repro.inputs;
          } else {
            repro.strike_index = planned.index;
            repro.minimized = planned;
            repro.original_width = planned.strike.width;
            repro.original_start = planned.strike.start;
            repro.inputs = inputs;
            repro.params = params;
            repro.clock_period = clock_period;
          }
          if (!options.artifact_dir.empty()) {
            campaign::write_repro(repro, netlist, options.artifact_dir);
            cert.repro_spec_path = repro.spec_path;
          }
        }
        confirmed = true;
        break;
      }
    }

    if (!confirmed) {
      cert.verdict = SiteVerdict::kUnknown;
      cert.blocking_gate = ds.blocking_gate;
      cert.note = budget_out
                      ? "confirmation budget exhausted: statically "
                        "sensitizable, but no timed escape was confirmed"
                      : "statically sensitizable, but no timed escape was "
                        "confirmed within the search windows";
    }
  }
  return result;
}

namespace {

std::string net_name(const Netlist& netlist, NetId net) {
  return net.valid() ? netlist.net(net).name : std::string("?");
}

/// Appends every part (strings, string literals, chars) to `out`.
template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  (out += ... += parts);
}

std::string path_text(const Netlist& netlist, const std::vector<NetId>& path) {
  std::string out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i != 0) out += " > ";
    out += net_name(netlist, path[i]);
  }
  return out;
}

}  // namespace

std::string format_certify_text(const CertifyResult& result,
                                const Netlist& netlist) {
  std::ostringstream os;
  os << "certify " << result.design << "\n";
  os << "  delta_ps " << num(result.params.delta.value()) << "  envelope_ps "
     << num(result.envelope_ps) << "  physical_envelope_ps "
     << num(result.physical_envelope_ps) << "\n";
  os << "  clock_period_ps " << num(result.clock_period.value()) << "  seed "
     << result.seed << "\n";
  os << "  sites " << result.sites.size() << ": covered "
     << result.covered_count() << ", escapes " << result.escape_count()
     << ", unknown " << result.unknown_count() << " (fallback "
     << result.fallback_count() << ")\n";
  if (result.swept_states > 0) {
    os << "  sweep: states " << result.swept_states << " ("
       << (result.states_complete ? "complete" : "capped") << "), vectors "
       << (result.vectors_exhaustive ? "exhaustive" : "sampled") << "\n";
  }
  const double min_margin = result.min_margin_ps();
  if (min_margin >= 0.0) {
    os << "  min_finite_margin_ps " << num(min_margin) << "\n";
  }
  for (const SiteCertificate& cert : result.sites) {
    os << "  " << net_name(netlist, cert.site) << ": "
       << to_string(cert.verdict);
    if (cert.verdict == SiteVerdict::kProvedCovered) {
      os << " " << to_string(cert.reason);
      if (cert.margin_unbounded) {
        os << " margin unbounded";
      } else {
        os << " margin " << num(cert.margin_ps);
      }
      if (cert.limiting_ff >= 0) {
        os << " ff "
           << netlist
                  .flip_flop(FlipFlopId{
                      static_cast<std::uint64_t>(cert.limiting_ff)})
                  .name;
      }
    } else if (cert.verdict == SiteVerdict::kProvedEscape) {
      os << " ff "
         << netlist
                .flip_flop(
                    FlipFlopId{static_cast<std::uint64_t>(cert.limiting_ff)})
                .name
         << " cycle " << cert.witness_cycle << " start "
         << num(cert.witness_start_ps) << " width "
         << num(cert.witness_width_ps);
      if (!cert.repro_spec_path.empty()) {
        os << " repro " << cert.repro_spec_path;
      }
    } else {
      if (cert.blocking_gate != GlitchWindow::kNone) {
        os << " blocking-gate "
           << netlist.gate(GateId{cert.blocking_gate}).name;
      }
    }
    if (!cert.path.empty() &&
        cert.verdict != SiteVerdict::kProvedCovered) {
      os << " path " << path_text(netlist, cert.path);
    }
    if (!cert.note.empty()) os << " -- " << cert.note;
    os << "\n";
  }
  return os.str();
}

std::string format_certify_json(const CertifyResult& result,
                                const Netlist& netlist) {
  using json_text::escape;
  // Escaped once per report: witness paths repeat the same names.
  std::vector<std::string> net_names(netlist.num_nets());
  for (std::size_t n = 0; n < net_names.size(); ++n) {
    net_names[n] = escape(netlist.net(NetId{n}).name);
  }
  std::vector<std::string> ff_names(netlist.num_flip_flops());
  for (std::size_t f = 0; f < ff_names.size(); ++f) {
    ff_names[f] = escape(netlist.flip_flop(FlipFlopId{f}).name);
  }
  const std::string unnamed = "?";
  auto name_of = [&](NetId net) -> const std::string& {
    return net.valid() ? net_names[net.index()] : unnamed;
  };
  auto flag = [](bool b) { return b ? "true" : "false"; };

  std::size_t size = 512 + result.design.size();
  for (const SiteCertificate& cert : result.sites) {
    size += 256 + cert.note.size() + cert.repro_spec_path.size();
    for (const NetId net : cert.path) size += name_of(net).size() + 3;
  }
  std::string out;
  out.reserve(size);
  append(out, "{\"schema\":\"cwsp-certify-report-v1\",\"design\":\"",
         escape(result.design), "\",\"delta_ps\":",
         num(result.params.delta.value()), ",\"envelope_ps\":",
         num(result.envelope_ps), ",\"physical_envelope_ps\":",
         num(result.physical_envelope_ps), ",\"clock_period_ps\":",
         num(result.clock_period.value()), ",\"seed\":",
         std::to_string(result.seed));
  append(out, ",\"counts\":{\"sites\":", std::to_string(result.sites.size()),
         ",\"covered\":", std::to_string(result.covered_count()),
         ",\"escapes\":", std::to_string(result.escape_count()),
         ",\"unknown\":", std::to_string(result.unknown_count()),
         ",\"fallback\":", std::to_string(result.fallback_count()),
         "},\"sweep\":{\"states\":", std::to_string(result.swept_states),
         ",\"states_complete\":", flag(result.states_complete),
         ",\"vectors_exhaustive\":", flag(result.vectors_exhaustive),
         "},\"sites\":[");
  for (std::size_t i = 0; i < result.sites.size(); ++i) {
    const SiteCertificate& cert = result.sites[i];
    if (i != 0) out += ',';
    append(out, "{\"site\":\"", name_of(cert.site), "\",\"verdict\":\"",
           to_string(cert.verdict), '"');
    if (cert.verdict == SiteVerdict::kProvedCovered) {
      append(out, ",\"reason\":\"", to_string(cert.reason), '"');
      if (cert.margin_unbounded) {
        out += ",\"margin_unbounded\":true";
      } else {
        append(out, ",\"margin_ps\":", num(cert.margin_ps));
      }
    }
    if (cert.limiting_ff >= 0) {
      append(out, ",\"limiting_ff\":\"",
             ff_names[static_cast<std::size_t>(cert.limiting_ff)], '"');
    }
    if (!cert.path.empty()) {
      out += ",\"path\":[";
      for (std::size_t p = 0; p < cert.path.size(); ++p) {
        if (p != 0) out += ',';
        append(out, '"', name_of(cert.path[p]), '"');
      }
      out += ']';
    }
    if (cert.verdict == SiteVerdict::kUnknown &&
        cert.blocking_gate != GlitchWindow::kNone) {
      append(out, ",\"blocking_gate\":\"",
             escape(netlist.gate(GateId{cert.blocking_gate}).name), '"');
    }
    if (cert.verdict == SiteVerdict::kProvedEscape) {
      append(out, ",\"witness\":{\"cycle\":",
             std::to_string(cert.witness_cycle), ",\"start_ps\":",
             num(cert.witness_start_ps), ",\"width_ps\":",
             num(cert.witness_width_ps));
      if (!cert.repro_spec_path.empty()) {
        append(out, ",\"repro\":\"", escape(cert.repro_spec_path), '"');
      }
      out += '}';
    }
    append(out, ",\"used_fallback\":", flag(cert.used_fallback));
    if (!cert.note.empty()) {
      append(out, ",\"note\":\"", escape(cert.note), '"');
    }
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace cwsp::analysis
