#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark from source
# (nothing happens when it is already built) and runs one workload:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Two binaries come out of one source: the plain one measures the
# end-to-end metrics, the one built with `--features counters` (per-thread
# op-cost counters inside jiffy, which perturb the hot path) makes the
# traced run. Both are built on the first call, so that no later call has
# to build inside its time limit.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

build() { # <target dir> [cargo flags...]
  CARGO_TARGET_DIR="$1" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" "${@:2}" >&2
}
build "$target/plain"
build "$target/traced" --features counters

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  if [[ "${args[i]}" == "--trace" ]]; then trace="${args[i + 1]:-0}"; fi
done
if [[ "$trace" != "0" ]]; then
  exec "$target/traced/release/jiffy-bench" "$@"
fi
exec "$target/plain/release/jiffy-bench" "$@"
