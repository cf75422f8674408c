#!/usr/bin/env bash
# Builds perf_simcore from this checkout's sources (Release, through the
# root CMakeLists.txt), then runs it with every argument passed through:
#
#   bash bench/perf/run.sh --workload ar_sym_clean --seed 1 --seconds 20 --trace 0
#
# The build tree is $CARGO_TARGET_DIR/perf when that variable is set, else
# .bench_build/perf under the current directory. Build output goes to stderr
# so perf_simcore's last stdout line stays its JSON result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}/perf"

generator=()
if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target perf_simcore -j 4 >&2

exec "$build/perf_simcore" "$@"
