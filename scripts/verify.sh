#!/usr/bin/env bash
# Full verification gate: release build, workspace tests, lint-clean.
# Run from anywhere; operates on the repo the script lives in.
set -euo pipefail
cd "$(dirname "$0")/.."

# Keep results/ free of scratch files even when a gate fails mid-run.
trap 'rm -f results/chaos.json.first results/verify.json.first' EXIT

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test --workspace"
cargo test --workspace -q

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -q -- -D warnings
else
    echo "==> clippy not installed; skipping lint"
fi

echo "==> repro analyze (static-analysis gate)"
cargo run --release -q -p lm-bench --bin repro -- analyze
[ -s results/analyze.json ] \
    || { echo "verify: results/analyze.json missing or empty" >&2; exit 1; }
grep -q '"diagnostics"' results/analyze.json \
    || { echo "verify: results/analyze.json has no diagnostics array" >&2; exit 1; }
grep -q '"opt-30b/serve/default-paging"' results/analyze.json \
    || { echo "verify: the LMA28x paging lint row is missing from results/analyze.json" >&2; exit 1; }
grep -q '"verify/lma29x/quick-sweep"' results/analyze.json \
    || { echo "verify: the LMA29x verification lint row is missing from results/analyze.json" >&2; exit 1; }
grep -q '"opt-30b/serve/default-async"' results/analyze.json \
    || { echo "verify: the LMA30x async lint row is missing from results/analyze.json" >&2; exit 1; }

# Exhaustive bounded verification (DESIGN.md §15): planner-space sweep vs
# executable ground truth, seeded-mutation self-check, preemption-bounded
# protocol model checking. VERIFY_SWEEP=full widens the lattice.
echo "==> repro verify --sweep ${VERIFY_SWEEP:-quick} (bounded verification gate)"
cargo run --release -q -p lm-bench --bin repro -- verify --sweep "${VERIFY_SWEEP:-quick}"
[ -s results/verify.json ] \
    || { echo "verify: results/verify.json missing or empty" >&2; exit 1; }
grep -q '"verify_ok": true' results/verify.json \
    || { echo "verify: a bounded-verification gate failed" >&2; exit 1; }
grep -q '"mutation_caught": true' results/verify.json \
    || { echo "verify: the seeded over-grant mutation was not caught as LMA291" >&2; exit 1; }
cp results/verify.json results/verify.json.first
cargo run --release -q -p lm-bench --bin repro -- verify --sweep "${VERIFY_SWEEP:-quick}"
cmp -s results/verify.json results/verify.json.first \
    || { echo "verify: results/verify.json is not byte-identical across runs" >&2; exit 1; }
rm -f results/verify.json.first  # the EXIT trap also covers failure paths

if [ "${LOOM:-0}" = "1" ]; then
    echo "==> loom model checking (LOOM=1)"
    cargo test -q -p lm-parallelism --features loom --test loom_executor
    cargo test -q -p lm-engine --features loom --test loom_pools
fi

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

echo "==> repro serve --rps 4 --requests 32 --seed 7 --shared-prefix (serving gate)"
cargo run --release -q -p lm-bench --bin repro -- serve --rps 4 --requests 32 --seed 7 --shared-prefix
[ -s results/serve.json ] \
    || { echo "verify: results/serve.json missing or empty" >&2; exit 1; }
grep -q '"dominance_ok": true' results/serve.json \
    || { echo "verify: continuous batching did not dominate the baselines" >&2; exit 1; }
grep -q '"paged_zero_rejections": true' results/serve.json \
    || { echo "verify: the paged planner rejected requests at the default seed" >&2; exit 1; }
grep -q '"superlinear_ok": true' results/serve.json \
    || { echo "verify: prefix sharing did not beat the unshared control" >&2; exit 1; }

echo "==> repro chaos --seed 7 --storm default (resilience gate)"
cargo run --release -q -p lm-bench --bin repro -- chaos --seed 7 --storm default
[ -s results/chaos.json ] \
    || { echo "verify: results/chaos.json missing or empty" >&2; exit 1; }
grep -q '"invariants_ok": true' results/chaos.json \
    || { echo "verify: a chaos invariant was violated" >&2; exit 1; }
cp results/chaos.json results/chaos.json.first
cargo run --release -q -p lm-bench --bin repro -- chaos --seed 7 --storm default
cmp -s results/chaos.json results/chaos.json.first \
    || { echo "verify: results/chaos.json is not byte-identical across runs" >&2; exit 1; }
rm -f results/chaos.json.first  # the EXIT trap also covers failure paths

echo "==> repro slo --seed 7 (SLO enforcement gate)"
cargo run --release -q -p lm-bench --bin repro -- slo --seed 7
[ -s results/slo.json ] \
    || { echo "verify: results/slo.json missing or empty" >&2; exit 1; }
grep -q '"slo_ok": true' results/slo.json \
    || { echo "verify: SLO enforcement gate failed" >&2; exit 1; }

echo "==> repro trace --tokens 4 (observability gate)"
cargo run --release -q -p lm-bench --bin repro -- trace --tokens 4
for f in results/trace.json results/trace_drift.json; do
    [ -s "$f" ] || { echo "verify: $f missing or empty" >&2; exit 1; }
done
grep -q '"traceEvents"' results/trace.json \
    || { echo "verify: results/trace.json is not a Perfetto trace" >&2; exit 1; }
grep -q '"max_ratio_error"' results/trace_drift.json \
    || { echo "verify: results/trace_drift.json has no drift report" >&2; exit 1; }

echo "==> repro obs --seed 7 (serve observability gate)"
cargo run --release -q -p lm-bench --bin repro -- obs --seed 7
[ -s results/obs.json ] \
    || { echo "verify: results/obs.json missing or empty" >&2; exit 1; }
grep -q '"drift_ok": true' results/obs.json \
    || { echo "verify: serve drift audit exceeded its documented tolerance" >&2; exit 1; }
grep -q '"obs_ok": true' results/obs.json \
    || { echo "verify: an observability gate (exposition/flight/lints) failed" >&2; exit 1; }
[ -s results/serve_timeline.json ] \
    || { echo "verify: results/serve_timeline.json missing or empty" >&2; exit 1; }
grep -q '"traceEvents"' results/serve_timeline.json \
    || { echo "verify: results/serve_timeline.json is not a Perfetto trace" >&2; exit 1; }

# Same bytes out: the lanes above run on the virtual clock, so what they
# just regenerated must be the committed artifacts, byte for byte. A
# scheduler change that moves one of them either is a bug or comes with
# the regenerated file in the same commit. (The committed verify.json is
# the quick sweep's.)
echo "==> git diff --exit-code (virtual-clock results are the committed bytes)"
same_bytes="results/serve.json results/chaos.json results/slo.json results/obs.json results/serve_timeline.json"
[ "${VERIFY_SWEEP:-quick}" = "quick" ] && same_bytes="$same_bytes results/verify.json"
# shellcheck disable=SC2086  # the list is meant to split into paths
git diff --exit-code -- $same_bytes \
    || { echo "verify: a virtual-clock result drifted from its committed bytes" >&2; exit 1; }

# Real-time serving lane (DESIGN.md §16): the gates (transparency, zero
# leaks, total resolution, an exercised disconnect) are wall-independent;
# the wall-clock TTFT/throughput in results/async.json are recorded but
# deliberately NOT byte-compared across runs.
if [ "${ASYNC:-1}" = "0" ]; then
    echo "==> async lane skipped (ASYNC=0)"
else
    echo "==> repro async --seed 7 (real-time serving gate)"
    cargo run --release -q -p lm-bench --bin repro -- async --seed 7
    [ -s results/async.json ] \
        || { echo "verify: results/async.json missing or empty" >&2; exit 1; }
    grep -q '"transparency_ok": true' results/async.json \
        || { echo "verify: the async path is not output-transparent" >&2; exit 1; }
    grep -q '"zero_leak_ok": true' results/async.json \
        || { echo "verify: the async path leaked KV on disconnect" >&2; exit 1; }
    grep -q '"async_ok": true' results/async.json \
        || { echo "verify: an async serving gate failed" >&2; exit 1; }
fi

echo "verify: OK"
