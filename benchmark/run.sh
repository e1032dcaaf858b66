#!/usr/bin/env bash
# Builds lapbench with -DCMAKE_BUILD_TYPE=Release into build-bench/ and runs it.
#
#   benchmark/run.sh [--seed S] [--out DIR] [--sets K] [--seconds T] [--smoke] [--no-trace]
#       Every workload, each in its own process, for K result sets with seeds
#       S..S+K-1, then one traced run per workload at seed S.  Prints one
#       `workload metric value unit samples` line per metric (with quartiles
#       and spread when K > 1) and writes DIR/results.json.
#   benchmark/run.sh --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke]
#       One workload; the last line of stdout is the JSON result.
#   benchmark/run.sh compare PARENT_DIR CHANGE_DIR
#       Verdict per (workload, metric) over >= 10 result sets per side.
#
# Exits non-zero when any output check fails.  See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-bench"

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: no lapclique sources in $root (expected CMakeLists.txt and src/)" >&2
  exit 2
fi

# Compiler temporaries stay inside the checkout.
mkdir -p "$build/tmp"
export TMPDIR="$build/tmp"
jobs="$(nproc 2>/dev/null || echo 2)"
if (( jobs > 4 )); then jobs=4; fi
{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" --target lapbench -j "$jobs"
} >&2

bin="$build/lapbench"
rev="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"

if [[ "${1:-}" == compare ]]; then
  shift
  bounds=()
  if [[ -f "$root/BENCHMARK.json" ]]; then bounds=(--bounds "$root/BENCHMARK.json"); fi
  exec "$bin" compare "$@" ${bounds[@]+"${bounds[@]}"}
fi
for arg in "$@"; do
  if [[ "$arg" == --workload ]]; then
    exec "$bin" --out "$build/out" --rev "$rev" "$@"
  fi
done

seed=1
out="$build/results/$(date +%Y%m%d-%H%M%S)"
sets=1
seconds=15
smoke=()
trace=1
while (( $# )); do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --sets) sets="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --smoke) smoke=(--smoke); trace=0; shift ;;
    --no-trace) trace=0; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if compgen -G "$out/set-*" > /dev/null; then
  echo "run.sh: $out already holds result sets; pick another --out" >&2
  exit 2
fi

status=0
mapfile -t workloads < <("$bin" --list)
for ((k = 0; k < sets; k++)); do
  for w in "${workloads[@]}"; do
    echo "run.sh: set $k seed $((seed + k)) $w" >&2
    "$bin" --workload "$w" --seed "$((seed + k))" --seconds "$seconds" --trace 0 \
      --out "$out/set-$k" --rev "$rev" ${smoke[@]+"${smoke[@]}"} > /dev/null || status=1
  done
done
if (( trace )); then
  for w in "${workloads[@]}"; do
    echo "run.sh: traced seed $seed $w" >&2
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
      --out "$out/set-0" --rev "$rev" > /dev/null || status=1
  done
fi
"$bin" report "$out" || status=1
exit "$status"
