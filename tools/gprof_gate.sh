#!/usr/bin/env bash
# Profile one `perfbench gate` run with gprof.
#
#   tools/gprof_gate.sh WORKLOAD SEED     e.g. tools/gprof_gate.sh tiresias_faults 7
#
# Configures perfbench/ (the benchmark's own CMake project, unchanged) into
# build-pg/ with -pg, builds it, runs the untimed, replay-checked `gate` mode
# of WORKLOAD at SEED, and writes into build-pg/gprof-WORKLOAD-SEED/:
#
#   gate.json      the gate's output line (digest, events, deployments)
#   flat.txt       gprof's flat profile (self-time shares, call counts)
#   callgraph.txt  gprof's call graph (who calls each hot function, how often)
#
# Every hotspot share and call count quoted in CHANGES.md or EXPERIMENTS.md
# should come from one such command, so the next reader can re-run it.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 WORKLOAD SEED" >&2
  exit 2
fi
workload=$1
seed=$2
root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/build-pg
out=$build/gprof-$workload-$seed

if [[ ! -f $build/CMakeCache.txt ]]; then
  generator=()
  if command -v ninja >/dev/null; then generator=(-G Ninja); fi
  cmake -S "$root/perfbench" -B "$build" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-pg -DCMAKE_EXE_LINKER_FLAGS=-pg >/dev/null
fi
cmake --build "$build" --target perfbench -j "$(nproc)" >/dev/null

mkdir -p "$out"
rm -f "$out/gmon.out"
# gmon.out lands in the working directory of the profiled process.
(cd "$out" && "$build/perfbench" gate --workload "$workload" --seed "$seed" >gate.json)
gprof -b -p "$build/perfbench" "$out/gmon.out" >"$out/flat.txt"
gprof -b -q "$build/perfbench" "$out/gmon.out" >"$out/callgraph.txt"
echo "$out/flat.txt"
echo "$out/callgraph.txt"
