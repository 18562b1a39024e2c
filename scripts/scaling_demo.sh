#!/usr/bin/env bash
# Smoke-runs the parallel-scaling bench with shrunk workloads and
# sanity-checks the JSONL rows it writes: every workload is
# present, and the tuner report stayed byte-identical across thread
# counts (report_identical:false would trip the bench's own assert, but
# check here too so a refactor can't silently drop the field).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> EDGELAB_QUICK=1 cargo run --release -p ei-bench --bin scaling"
EDGELAB_QUICK=1 cargo run --release -p ei-bench --bin scaling

echo "==> checking results/parallel_scaling.json"
out=results/parallel_scaling.json
for marker in \
  '"measurement":"wall","workload":"tuner"' \
  '"measurement":"wall","workload":"dsp"' \
  '"report_identical":true'; do
  if ! grep -qF -- "$marker" "$out"; then
    echo "MISSING from $out: $marker" >&2
    exit 1
  fi
  echo "  found $marker"
done
if grep -qF -- '"report_identical":false' "$out"; then
  echo "parallel tuner report diverged from serial" >&2
  exit 1
fi

echo "==> scaling demo passed"
