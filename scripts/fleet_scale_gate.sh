#!/usr/bin/env bash
# Fleet-scale performance gate: runs the `fleet-scale-ns` criterion bench
# (ns per server-epoch at 1k/8k/32k synthetic servers) and fails when the
# scaling invariant (32k <= 2x 1k) breaks or a size's ratio to the 1k
# figure exceeds 1.5x (`THRESHOLD`) its committed baseline ratio in
# crates/bench/baselines/fleet_scale_ns.json.
# The bench binary itself enforces both gates and writes
# results/fleet_scale_ns.{json,tsv} for the CI artifact upload.
#
# Set FLEET_SCALE_SKIP=1 to skip (the bench exits 0 without measuring).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo bench -p bench --bench fleet_scale_ns --offline
