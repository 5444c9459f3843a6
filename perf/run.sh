#!/usr/bin/env bash
# The one command of the xsim-rs benchmark.
#
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1
#       one measured run; the last stdout line is the result object
#       (this is the form BENCHMARK.json's `command` is called in)
#   perf/run.sh [--seed N] [--reps N] [--seconds S] [--only W] [--out F] [--bless]
#       the whole suite: untraced repetitions and a traced pass per
#       workload, every metric printed as `name value unit [workload]`,
#       perf/results.json and perf/out/trace.json rewritten; exits
#       non-zero on any failed check. --bless regenerates
#       perf/golden.json first (benchmark PRs only).
#   perf/run.sh compare A.json B.json
#   perf/run.sh metrics
#
# Builds the harness (release, offline) into $CARGO_TARGET_DIR, by
# default the repository's own target directory.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/perf"

case "${1:-}" in
compare | metrics) exec "$bin" "$@" ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done
exec "$bin" suite "$@"
