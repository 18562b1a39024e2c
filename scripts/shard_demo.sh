#!/usr/bin/env bash
# Smoke-runs the platform-scale load harness over the sharded platform
# store and sanity-checks the JSONL rows it writes: every (shards,
# threads) cell of the {1,4,16,64} x {1,4} sweep is present, every row
# proves the final platform state byte-identical across shard counts
# (state_identical) AND across a racing replay from real concurrent
# threads (racing_state_identical), and per-stripe artifact-cache hit
# rates are reported. The bench runs the whole sweep twice and asserts
# byte-for-byte reproducibility before writing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> EDGELAB_QUICK=1 cargo run --release -p ei-bench --bin platform_scale"
EDGELAB_QUICK=1 cargo run --release -p ei-bench --bin platform_scale

echo "==> checking results/platform_scale.json"
out=results/platform_scale.json
for shards in 1 4 16 64; do
  for threads in 1 4; do
    marker="\"shards\":$shards,\"threads\":$threads"
    if ! grep -qF -- "$marker" "$out"; then
      echo "MISSING from $out: $marker" >&2
      exit 1
    fi
  done
  echo "  found both thread widths for $shards shard(s)"
done
if grep -qF -- '"state_identical":false' "$out"; then
  echo "platform state diverged across shard counts" >&2
  exit 1
fi
echo "  state_identical on every row"
if grep -qF -- '"racing_state_identical":false' "$out"; then
  echo "a racing replay diverged from the serial reference" >&2
  exit 1
fi
if ! grep -qF -- '"racing_state_identical":true' "$out"; then
  echo "no row proves racing_state_identical:true" >&2
  exit 1
fi
echo "  racing_state_identical on every racing row"
for field in '"summary":true' '"monotone_throughput":true' '"occupancy_skew":' \
  '"cache_shard_hit_rates":' '"cache_hit_rate":'; do
  if ! grep -qF -- "$field" "$out"; then
    echo "MISSING from $out: $field" >&2
    exit 1
  fi
  echo "  found $field"
done

echo "==> shard demo passed"
