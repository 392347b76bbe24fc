#!/usr/bin/env bash
# Build the benchmark offline, then run it.
#
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#       one run of one workload; the last line of stdout is the result as JSON
#   benchmark/run.sh [--seed S] [--reps N] [--seconds T] [--workload W]
#       the full report: every workload, untraced then traced
#   benchmark/run.sh --aa [...]
#       the full report twice on the same build, compared against the bounds
#
# README.md explains the metrics, the workloads and the method.
set -u

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Never the network: every dependency is a path or a stand-in under shims/.
export CARGO_NET_OFFLINE=true

log="$(mktemp "$here/.build-log.XXXXXX")" || exit 1
if ! cargo build --release --offline --manifest-path "$here/Cargo.toml" >"$log" 2>&1; then
    echo "benchmark/run.sh: cargo build --release --offline failed" >&2
    crate="$(grep -m1 -o 'could not compile `[^`]*`' "$log")"
    [ -n "$crate" ] && echo "  $crate" >&2
    # The first error with its location lines.
    awk '/^error/ { found = 1 } found { print "  " $0; if (++n >= 12) exit }' "$log" >&2
    rm -f "$log"
    exit 1
fi
rm -f "$log"

# A relative CARGO_TARGET_DIR is relative to where cargo ran: here and now.
bin="${CARGO_TARGET_DIR:-$here/target}/release/synbench"
mkdir -p "$here/out"
exec "$bin" --out-dir "$here/out" "$@"
