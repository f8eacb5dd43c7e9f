#!/usr/bin/env sh
# One-command reproduction: build, test, regenerate every paper figure and
# table plus the ablations.  Outputs land in ./results (tables as .txt,
# series as .csv) together with test_output.txt and bench_output.txt; the
# perf baseline BENCH_perf.json is copied to the repo root.
set -eu

cd "$(dirname "$0")"

# Reuse an existing build tree's generator; otherwise prefer Ninja when
# it is installed and fall back to CMake's default (Makefiles) when not.
if [ -f build/CMakeCache.txt ]; then
  cmake -B build
elif command -v ninja >/dev/null 2>&1; then
  cmake -B build -G Ninja
else
  cmake -B build
fi
cmake --build build -j "$(nproc)"

ctest --test-dir build 2>&1 | tee test_output.txt

# Provenance for the perf baseline: bench_perf_kernel records this SHA in
# BENCH_perf.json so the numbers are traceable to a commit.
WORMSCHED_GIT_SHA=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export WORMSCHED_GIT_SHA

mkdir -p results
cd results
: > ../bench_output.txt
for b in ../build/bench/*; do
  name=$(basename "$b")
  echo "=== ${name} ===" | tee -a ../bench_output.txt
  "$b" 2>&1 | tee "${name}.txt" | tee -a ../bench_output.txt
done
# bench_perf_kernel writes BENCH_perf.json into results/; the repo-root
# copy is the machine-readable baseline future changes are held to.
# On single-hardware-thread machines the sharded threads-scaling legs
# still run (recorded with "forced": true) — speedups near 1.0x are
# expected there and the CI gates compare ratios against the committed
# baseline, never absolute wall clock.
if [ -f BENCH_perf.json ]; then
  cp BENCH_perf.json ../BENCH_perf.json
fi
cd ..
echo "done: see results/, BENCH_perf.json and EXPERIMENTS.md"
