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

# `--locked`: a root Cargo.lock that no longer matches the manifests fails
# here instead of being rewritten silently.
echo "==> cargo build --release --workspace --locked"
cargo build --release --workspace --locked

# `benchmark/` is a package of its own that compiles against the crates'
# public surface (EngineOptions, OffloadStore, ServeSession, derive_plan,
# matmul_transb, ...) and is frozen with BENCHMARK.json: a change that
# breaks that surface must fail here, not in the pipeline — at build time,
# or in the harness's own tests (`timed::tests` wraps a `ServeBackend`,
# `spec::tests` holds BENCHMARK.json to the tables). Frozen includes its
# lockfile: cargo rewrites it when a vendored crate it names is gone
# (`rayon`, `bytes`, `crossbeam`), so put the committed bytes back.
# Then one quick run of every workload, untraced and traced: it exits 1
# on a failed output check (tokens ≡ reference engine, streamed ≡
# response ≡ solo `Engine::run`, zero leaked KV) and panics if the micro
# pass's direct calls (`CacheStore::with_full`, `mha_decode`,
# `forward_decode`, and `mha_prefill` / `forward_prefill`, wrappers of the
# one attention kernel and layer body kept only for it) break.
echo "==> cargo build + test + run --quick --manifest-path benchmark/Cargo.toml"
lock=$(mktemp)
result=$(mktemp)
cp benchmark/Cargo.lock "$lock"
{ cargo build --release --offline --manifest-path benchmark/Cargo.toml \
    && lane "benchmark tests" 10 \
        cargo test --release --offline -q --manifest-path benchmark/Cargo.toml \
    && lane "benchmark quick run" 10 \
        cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
        run --quick --trace 1 --out "$result"; } \
    || { cp "$lock" benchmark/Cargo.lock; rm -f "$result"; exit 1; }
cp "$lock" benchmark/Cargo.lock
rm -f "$lock" "$result"

echo "==> cargo test --locked (default-members = the whole workspace)"
lane "cargo test" 30 cargo test -q --locked

# rustfmt-clean crates stay clean. The list grows as crates are formatted;
# a workspace-wide `cargo fmt` would rewrite unrelated code, vendored
# stand-ins included.
echo "==> cargo fmt --check (lm-analyze, lm-trace, lm-serve, lm-verify)"
cargo fmt -p lm-analyze -p lm-trace -p lm-serve -p lm-verify -- --check

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -q -- -D warnings
else
    echo "==> clippy not installed; skipping lint"
fi

# A doc link to an item that was renamed, moved or made private fails here
# instead of rendering as dead text; private items' docs are checked too.
echo "==> cargo doc --no-deps --workspace --document-private-items (intra-doc links resolve)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    lane "rustdoc" 10 cargo doc --no-deps --workspace --document-private-items -q

echo "==> loom model checking"
lane "loom_executor" 10 cargo test -q -p lm-parallelism --features loom --test loom_executor
lane "loom_pools" 10 cargo test -q -p lm-engine --features loom --test loom_pools

# The vendored stand-ins are trusted base: their own unit tests run too
# (`serde_derive` has none). Each crate is a package of its own with a
# committed path-only lockfile; a separate target dir keeps their builds
# out of the workspace's.
echo "==> vendored stand-ins' own tests"
for c in loom parking_lot proptest rand serde serde_json tokio; do
    CARGO_TARGET_DIR=target/vendor lane "vendored stand-ins" 10 \
        cargo test -q --offline --locked --manifest-path "vendor/$c/Cargo.toml"
done

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
# is false or an artifact could not be written. It runs under a deadline
# like the test lanes (it takes well under a minute), so a hang in a lane
# — the async one runs threads on the wall clock — fails the gate.
echo "==> repro all (every table, figure and gate)"
start=$SECONDS
lane "repro all" 10 cargo run --release -q -p lm-bench --bin repro -- all
echo "==> repro all took $((SECONDS - start)) s"

# Same bytes out: every artifact except the three wall-clock ones is
# deterministic, so what was just regenerated must be what is committed.
# A change that moves one either is a bug or commits the regenerated file.
echo "==> git diff --exit-code (results/ are the committed bytes)"
git diff --exit-code -- results \
    ':!results/async.json' ':!results/trace.json' ':!results/trace_drift.json' \
    || { echo "verify: a deterministic result drifted from its committed bytes" >&2; exit 1; }
# `git diff` ignores untracked files: an artifact nobody committed fails too.
untracked=$(git ls-files --others --exclude-standard -- results)
if [ -n "$untracked" ]; then
    echo "verify: uncommitted result artifact(s): $untracked" >&2
    exit 1
fi

echo "verify: OK"
