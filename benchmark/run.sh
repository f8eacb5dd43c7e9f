#!/usr/bin/env bash
# Builds wsbench (RelWithDebInfo, into build-bench/ at the repository
# root) and runs it.
#
#   bash benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                         [--trace 0|1]
#
# Without --workload every workload runs, each in its own process.  Build
# output goes to stderr, so the last line of stdout is always the result
# JSON.  Nothing is read or written outside the repository checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-bench"
jobs="$(nproc 2>/dev/null || echo 2)"
if [ "$jobs" -gt 4 ]; then jobs=4; fi

if [ ! -f "$build/CMakeCache.txt" ]; then
  # A failed configure leaves no cache behind, so the next run retries it.
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2 ||
    { rm -f "$build/CMakeCache.txt"; exit 1; }
fi
cmake --build "$build" --target wsbench -j "$jobs" >&2

cd "$root"
exec "$build/wsbench" --workdir "$build/work" "$@"
