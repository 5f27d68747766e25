#!/usr/bin/env bash
# Full local CI gate: format, lint, test. Works offline — the workspace
# vendors its only external (dev) dependencies as local shim crates.
# Each gate is wall-clock timed so slow suites are caught when they land,
# not when CI starts timing out.
set -euo pipefail
cd "$(dirname "$0")/.."

declare -a TIMINGS=()

step() {
    local label="$1"
    shift
    echo "== $label =="
    local start
    start=$(date +%s)
    "$@"
    local elapsed=$(($(date +%s) - start))
    TIMINGS+=("$(printf '%5ss  %s' "$elapsed" "$label")")
}

step "cargo fmt --check" cargo fmt --all -- --check
step "cargo clippy (deny warnings)" \
    cargo clippy --workspace --all-targets --offline -- -D warnings
step "cargo test" cargo test -q --workspace --offline
step "cargo test --release" cargo test -q --workspace --offline --release
# perfbench is a package of its own, outside the workspace, so the steps
# above do not reach its tests. They include the check that both of its
# drivers digest-equal on every workload.
step "cargo test (perfbench)" \
    cargo test -q --offline --manifest-path perfbench/Cargo.toml
# One seed-0 run of each benchmark workload: `perf` exits non-zero when a
# result digest differs from perfbench/goldens.tsv.
step "perf goldens (seed 0)" \
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --bin perf -- \
    --workload all --reps 1 --seed 0 --out results/perf-goldens
step "cargo doc (deny warnings)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet
step "fleet-scale-ns gate" ./scripts/fleet_scale_gate.sh

echo
echo "== wall-clock per gate =="
printf '%s\n' "${TIMINGS[@]}"
echo "All checks passed."
