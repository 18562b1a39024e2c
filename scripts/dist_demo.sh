#!/usr/bin/env bash
# Runs the distributed-training bench (worker count × injected crash
# rate, seeded fault scripts on a virtual clock) and sanity-checks the
# JSONL rows it writes: the full sweep grid is present and every row
# reports weights_identical:true — the bin itself asserts each cell's
# final weight checksum equals the no-fault serial-SGD reference, so a
# determinism regression fails the run before the rows are written.
#
# EI_DIST_FAULT_SEED selects the fault script (default 42). The sweep runs
# at full length (it trains on a virtual clock, so it takes about a
# second): with the default seed it rewrites the tracked file byte for
# byte, which `git diff --exit-code results/dist_training.json` confirms.
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${EI_DIST_FAULT_SEED:-42}"
echo "==> EI_DIST_FAULT_SEED=$seed cargo run --release -p ei-bench --bin dist_training"
env -u EDGELAB_QUICK EI_DIST_FAULT_SEED="$seed" cargo run --release -p ei-bench --bin dist_training

echo "==> checking results/dist_training.json"
out=results/dist_training.json
for workers in 1 2 4; do
  for rate in 0 0.15 0.3; do
    marker="\"workers\":$workers,\"crash_rate\":$rate,"
    if ! grep -qF -- "$marker" "$out"; then
      echo "MISSING from $out: $marker" >&2
      exit 1
    fi
    echo "  found workers=$workers crash_rate=$rate"
  done
done
if grep -qF -- '"weights_identical":false' "$out"; then
  echo "a distributed run diverged from the serial-SGD reference" >&2
  exit 1
fi
if grep -vqF '"weights_identical":true' "$out"; then
  echo "a row is missing the weights_identical assertion" >&2
  exit 1
fi

echo "==> dist demo passed"
