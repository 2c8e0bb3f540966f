#!/usr/bin/env bash
# Ratcheted campaign-throughput gate: compares the BENCH_campaign.json a
# bench_campaign run just produced against the committed baseline in
# ci/perf-baseline.json and fails on a >25% regression, so the strike-lane
# kernel can never quietly lose its speedup.
#
#   ci/check-perf.sh <BENCH_campaign.json>          # gate (CI)
#   ci/check-perf.sh <BENCH_campaign.json> update   # refresh the baseline
#
# Only machine-normalized ratios are ratcheted — the lane/scalar speedup
# and the lane occupancy come from two kernels timed in the same process
# on the same machine, so they are stable across CI runner generations,
# unlike absolute strikes/second (recorded for information only). The
# report-identity bit is a hard invariant, not a ratchet: any divergence
# fails regardless of the baseline.
set -euo pipefail

result=${1:-BENCH_campaign.json}
mode=${2:-check}
baseline=ci/perf-baseline.json

command -v python3 >/dev/null || {
  echo "error: python3 not found in PATH" >&2
  exit 1
}
test -f "$result" || {
  echo "error: $result missing — run build/bench/bench_campaign first" >&2
  exit 1
}

if [ "$mode" = update ]; then
  python3 - "$result" "$baseline" <<'EOF'
import json, sys
result, baseline = sys.argv[1], sys.argv[2]
with open(result) as f:
    doc = json.load(f)
t = doc["throughput"]
doc_schemes = doc.get("schemes", {})
with open(baseline, "w") as f:
    json.dump({
        "schema": "cwsp-perf-baseline-v1",
        "design": t["design"],
        "speedup_lane_vs_scalar": t["speedup_lane_vs_scalar"],
        "lane_occupancy": t["lane_occupancy"],
        "max_regression_pct": 25,
        "info_strikes_per_second": {
            r["kernel"] + "-j" + str(r["jobs"]): r["strikes_per_second"]
            for r in t["rows"]
        },
        # Per-scheme throughput relative to CWSP (machine-normalized:
        # both rates come from the same process on the same machine).
        "scheme_relative_throughput": {
            r["scheme"]: r["relative_to_cwsp"]
            for r in doc_schemes.get("rows", [])
        },
    }, f, indent=2)
    f.write("\n")
print(f"baseline refreshed from {result}: "
      f"speedup {t['speedup_lane_vs_scalar']}x, "
      f"occupancy {t['lane_occupancy']}")
EOF
  exit 0
fi

test -f "$baseline" || {
  echo "error: $baseline missing — seed it with:" \
       "ci/check-perf.sh $result update" >&2
  exit 1
}

python3 - "$result" "$baseline" <<'EOF'
import json, sys
result, baseline = sys.argv[1], sys.argv[2]
with open(result) as f:
    doc = json.load(f)
with open(baseline) as f:
    base = json.load(f)

failures = []
t = doc["throughput"]

if not doc["identity"]["byte_identical"]:
    failures.append("report identity broken: lane/scalar reports diverged "
                    "across kernels, lane widths or job counts (hard "
                    "invariant, see bench_campaign Part A)")

floor_pct = base.get("max_regression_pct", 25)
floor = base["speedup_lane_vs_scalar"] * (1 - floor_pct / 100.0)
got = t["speedup_lane_vs_scalar"]
if got < floor:
    failures.append(
        f"lane/scalar speedup regressed: {got:.2f}x < {floor:.2f}x floor "
        f"(baseline {base['speedup_lane_vs_scalar']:.2f}x - {floor_pct}%)")

base_occ = base.get("lane_occupancy")
occ = t.get("lane_occupancy")
if base_occ is not None and occ is not None:
    occ_floor = base_occ * (1 - floor_pct / 100.0)
    if occ < occ_floor:
        failures.append(
            f"lane occupancy regressed: {occ:.4f} < {occ_floor:.4f} floor "
            f"(baseline {base_occ:.4f} - {floor_pct}%)")

# Per-scheme gates (absent from results produced by older bench builds
# and from baselines seeded before the scheme registry — both skip).
schemes = doc.get("schemes")
if schemes is not None:
    if not schemes.get("byte_identical", True):
        failures.append("scheme determinism broken: a registered scheme's "
                        "report diverged between jobs=1 and jobs=8 "
                        "(hard invariant, see bench_campaign Part C)")
    base_rel = base.get("scheme_relative_throughput", {})
    for row in schemes.get("rows", []):
        name = row["scheme"]
        if name == "cwsp" or name not in base_rel:
            continue
        rel_floor = base_rel[name] * (1 - floor_pct / 100.0)
        if row["relative_to_cwsp"] < rel_floor:
            failures.append(
                f"scheme '{name}' throughput regressed vs cwsp: "
                f"{row['relative_to_cwsp']:.3f} < {rel_floor:.3f} floor "
                f"(baseline {base_rel[name]:.3f} - {floor_pct}%)")

if failures:
    print("perf ratchet FAILED:")
    for f_ in failures:
        print(f"  - {f_}")
    print(f"\nif the regression is deliberate, accept it with:\n"
          f"  ci/check-perf.sh {result} update")
    sys.exit(1)

scheme_note = ""
if schemes is not None:
    rels = ", ".join(f"{r['scheme']} {r['relative_to_cwsp']:.2f}x"
                     for r in schemes.get("rows", []))
    scheme_note = f", schemes [{rels}]"
print(f"perf ratchet: ok — {t['design']} lane speedup {got:.2f}x "
      f"(floor {floor:.2f}x), occupancy {occ}, "
      f"isa {t['kernel_isa']}{scheme_note}")
EOF
