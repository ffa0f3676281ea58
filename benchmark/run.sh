#!/usr/bin/env bash
# Build the harness once, then run every workload — each in a process of
# its own, so peak memory is per workload — and merge the sections into
# benchmark/out/result.json (or --out FILE).
#
#   benchmark/run.sh                 every workload, end-to-end metrics
#   benchmark/run.sh --trace         ... plus the traced run of each:
#                                    per-layer metrics and Perfetto traces
#   benchmark/run.sh --runs 10       ten runs per workload (seeds 7..16),
#                                    which gives `lmbench compare` a spread
#   benchmark/run.sh --quick         tiny counts, < 20 s: checks the schema
#                                    and the outputs, not the speed
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/lmbench" run "$@"
