#!/usr/bin/env bash
# Full verification gate: release build (workspace and the frozen
# scoreboard against it, with the scoreboard's own tests), workspace tests,
# lint-clean, the loom lanes, and `repro all` reproducing the committed
# results/ bytes.
# Run from anywhere; operates on the repo the script lives in.
set -euo pipefail
cd "$(dirname "$0")/.."

# Test lanes run under a deadline: a deadlock fails the gate, naming the
# lane, instead of wedging it. Bounds are generous (a cold lane takes a
# few minutes on 2 cores).
lane() {
    local name=$1 minutes=$2 rc=0
    shift 2
    timeout "${minutes}m" "$@" || rc=$?
    if [ "$rc" -eq 124 ]; then
        echo "verify: lane '$name' still running after $minutes min (deadlock?)" >&2
    fi
    return "$rc"
}

echo "==> cargo build --release --workspace"
cargo build --release --workspace

# `benchmark/` is a package of its own that compiles against the crates'
# public surface (EngineOptions, OffloadStore, ServeSession, derive_plan,
# matmul_transb, ...) and is frozen with BENCHMARK.json: a change that
# breaks that surface must fail here, not in the pipeline — at build time,
# or in the harness's own tests (`timed::tests` wraps a `ServeBackend`,
# `spec::tests` holds BENCHMARK.json to the tables). Frozen includes its
# lockfile: cargo rewrites it when a vendored crate it names is gone
# (`rayon`, `bytes`, `crossbeam`), so put the committed bytes back.
echo "==> cargo build + test --release --offline --manifest-path benchmark/Cargo.toml"
lock=$(mktemp)
cp benchmark/Cargo.lock "$lock"
{ cargo build --release --offline --manifest-path benchmark/Cargo.toml \
    && lane "benchmark tests" 10 \
        cargo test --release --offline -q --manifest-path benchmark/Cargo.toml; } \
    || { cp "$lock" benchmark/Cargo.lock; exit 1; }
cp "$lock" benchmark/Cargo.lock
rm -f "$lock"

echo "==> cargo test (default-members = the whole workspace)"
lane "cargo test" 30 cargo test -q

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -q -- -D warnings
else
    echo "==> clippy not installed; skipping lint"
fi

echo "==> loom model checking"
lane "loom_executor" 10 cargo test -q -p lm-parallelism --features loom --test loom_executor
lane "loom_pools" 10 cargo test -q -p lm-engine --features loom --test loom_pools

if [ "${MIRI:-0}" = "1" ]; then
    if cargo miri --version >/dev/null 2>&1; then
        echo "==> cargo miri test -p lm-parallelism executor (MIRI=1)"
        MIRIFLAGS="${MIRIFLAGS:--Zmiri-disable-isolation}" \
            cargo miri test -p lm-parallelism executor
    else
        echo "==> MIRI=1 requested but cargo-miri is not installed" >&2
        exit 1
    fi
fi

# Every lane's gates are values inside `repro`: it exits non-zero if any
# is false or an artifact could not be written.
echo "==> repro all (every table, figure and gate)"
start=$SECONDS
cargo run --release -q -p lm-bench --bin repro -- all
echo "==> repro all took $((SECONDS - start)) s"

# Same bytes out: every artifact except the three wall-clock ones is
# deterministic, so what was just regenerated must be what is committed.
# A change that moves one either is a bug or commits the regenerated file.
echo "==> git diff --exit-code (results/ are the committed bytes)"
git diff --exit-code -- results \
    ':!results/async.json' ':!results/trace.json' ':!results/trace_drift.json' \
    || { echo "verify: a deterministic result drifted from its committed bytes" >&2; exit 1; }

echo "verify: OK"
