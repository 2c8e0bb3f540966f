#!/usr/bin/env bash
# Guards the per-ISA strike-lane bodies (src/sim/strike_lanes_avx2.cpp,
# src/sim/strike_lanes_avx512.cpp) in a built tree:
#
#   * the sweep code (the LaneKernelCore functions) of the AVX-512 unit
#     must hold zmm instructions and that of the AVX2 unit ymm
#     instructions, so a sweep that the compiler scalarized, or that was
#     folded into the baseline copy, fails here instead of silently
#     running at baseline speed;
#   * neither unit may define a weak symbol (nm W/V): that is an inline
#     function compiled with -mavx2 or -mavx512f, which the linker may
#     pick for baseline callers too, and which then faults on CPUs
#     without the ISA.
#
#   ci/check-isa-bodies.sh [build-dir]     # default: build
set -euo pipefail

build=${1:-build}
for tool in objdump nm; do
  command -v "$tool" >/dev/null || {
    echo "error: $tool not found in PATH" >&2
    exit 1
  }
done

status=0
check_unit() {
  local source=$1 register=$2 width=$3
  local object
  object=$(find "$build" -name "$source.o" -print -quit)
  if [[ -z "$object" ]]; then
    echo "FAIL: $source.o not found under $build (is the ISA flag" \
         "supported and the tree built?)" >&2
    status=1
    return
  fi
  # Vector-register instructions inside the sweep functions
  # (LaneKernelCore<K, ...>::evaluate, ::evaluate_with_flip and the gate
  # bodies they call), not the stimulus body.
  local count
  count=$(objdump -d -C --no-show-raw-insn "$object" | awk -v reg="%$register" '
    /^[0-9a-f]+ <.*>:$/ { in_sweep = index($0, "LaneKernelCore<" ) > 0; next }
    in_sweep && index($0, reg) > 0 { n++ }
    END { print n + 0 }')
  if (( count == 0 )); then
    echo "FAIL: $object: no $register instruction in the $width sweep" \
         "(scalarized or missing)" >&2
    status=1
  else
    echo "ok: $object: $count $register instructions in the $width sweep"
  fi
  local weak
  weak=$(nm -C "$object" | awk '$2 == "W" || $2 == "V"')
  if [[ -n "$weak" ]]; then
    echo "FAIL: $object defines weak symbols the linker could hand to" \
         "baseline callers:" >&2
    echo "$weak" >&2
    status=1
  else
    echo "ok: $object defines no weak symbol"
  fi
}

check_unit strike_lanes_avx512.cpp zmm "AVX-512 (K = 8)"
check_unit strike_lanes_avx2.cpp ymm "AVX2 (K = 4)"
exit $status
