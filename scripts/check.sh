#!/usr/bin/env bash
# Tier-1 verification: build, test, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (EI_THREADS=1, forced-serial pool)"
EI_THREADS=1 cargo test -q

echo "==> cargo test -q (EI_THREADS=4, parallel pool)"
EI_THREADS=4 cargo test -q

echo "==> distributed training suite (EI_THREADS=1 and 4 × two fault seeds)"
for seed in 42 1337; do
  EI_THREADS=1 EI_DIST_FAULT_SEED=$seed cargo test -q --test dist_training
  EI_THREADS=4 EI_DIST_FAULT_SEED=$seed cargo test -q --test dist_training
done

echo "==> shard-invariance suite (EI_THREADS=1 and 4 × EI_SHARDS=1 and 16)"
for shards in 1 16; do
  EI_THREADS=1 EI_SHARDS=$shards cargo test -q --test shard_invariance
  EI_THREADS=4 EI_SHARDS=$shards cargo test -q --test shard_invariance
done

echo "==> racing and single-flight tests, 5x each at EI_THREADS=1 and 4"
# a lost wakeup in the artifact cache's single-flight compile would
# otherwise need an unlucky scheduling day to show
for threads in 1 4; do
  for _ in 1 2 3 4 5; do
    EI_THREADS=$threads cargo test -q --test serving racing
    EI_THREADS=$threads cargo test -q -p ei-serve single_flight
  done
done

echo "==> cargo test --doc"
cargo test --doc

echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo clippy -- -D warnings"
cargo clippy -- -D warnings

echo "==> results/*.json rows carry schema_version and measurement"
if compgen -G "results/*.json" > /dev/null; then
  for f in results/*.json; do
    if grep -vqF '"schema_version":' "$f"; then
      echo "row without schema_version in $f" >&2
      exit 1
    fi
    if grep -vqE '"measurement":"(model|wall)"' "$f"; then
      echo "row in $f does not say whether it is modeled or measured" >&2
      exit 1
    fi
    echo "  ok $f"
  done
else
  echo "  (no results/*.json yet — run the bench binaries to generate them)"
fi

echo "==> results/kernels.json kernels are bitwise-equal, ≥2x on dense, best int8 level ≥3x Baseline"
if [ -f results/kernels.json ]; then
  for marker in \
    '"shape":"dense_mlp","kernel":"blocked"' \
    '"shape":"dense_mlp_int8","kernel":"blocked_fused"' \
    '"shape":"kws_conv","kernel":"blocked_par"' \
    '"shape":"vision_depthwise","kernel":"blocked_par"'; do
    if ! grep -qF -- "$marker" results/kernels.json; then
      echo "MISSING from results/kernels.json: $marker" >&2
      exit 1
    fi
  done
  if grep -qF -- '"bitwise_equal":false' results/kernels.json; then
    echo "a kernel variant diverged from the naive reference" >&2
    exit 1
  fi
  awk -F'"speedup_vs_naive":' '
    /"shape":"dense_mlp","kernel":"blocked"|"shape":"dense_mlp_int8","kernel":"blocked_fused"/ {
      split($2, a, ","); if (a[1] + 0 < 2.0) { bad = 1 }
    }
    END { exit bad }' results/kernels.json || {
      echo "dense_mlp blocked or dense_mlp_int8 blocked_fused speedup dropped below 2x" >&2
      exit 1
    }
  awk -F'"speedup_vs_naive":' '
    /"kernel":"blocked_par"/ {
      # single-core CI hosts put parallel rows at ~1.0x; a 0.9 floor
      # absorbs timer noise while catching the 0.88x im2col regression
      split($2, a, ","); if (a[1] + 0 < 0.9) { bad = 1 }
    }
    END { exit bad }' results/kernels.json || {
      echo "a blocked_par kernel regressed below 0.9x naive" >&2
      exit 1
    }
  # one int8 row per ei_tensor::simd level the host supports, Baseline
  # first; where a SIMD level exists the best must be ≥3x Baseline
  for shape in dense_mlp_int8 kws_conv; do
    if ! grep -qF -- "\"shape\":\"$shape\",\"kernel\":\"int8_baseline\"" results/kernels.json; then
      echo "MISSING from results/kernels.json: $shape int8_baseline row" >&2
      exit 1
    fi
  done
  awk -F'"speedup_vs_baseline":' '
    /"shape":"dense_mlp_int8","kernel":"int8_/ && !/"kernel":"int8_baseline"/ {
      split($2, a, ","); levels++; if (a[1] + 0 > best) { best = a[1] + 0 }
    }
    END { exit (levels > 0 && best < 3.0) }' results/kernels.json || {
      echo "the best int8 level is below 3x Baseline on dense_mlp_int8" >&2
      exit 1
    }
  echo "  ok results/kernels.json"
else
  echo "  (no results/kernels.json yet — run scripts/kernels_demo.sh)"
fi

echo "==> results/dist_training.json weights are bitwise-identical"
if [ -f results/dist_training.json ]; then
  if grep -vqF '"schema_version":' results/dist_training.json; then
    echo "row without schema_version in results/dist_training.json" >&2
    exit 1
  fi
  if grep -vqF '"weights_identical":true' results/dist_training.json; then
    echo "a row is missing weights_identical:true" >&2
    exit 1
  fi
  if grep -qF -- '"weights_identical":false' results/dist_training.json; then
    echo "a distributed run diverged from the serial-SGD reference" >&2
    exit 1
  fi
  echo "  ok results/dist_training.json"
else
  echo "  (no results/dist_training.json yet — run scripts/dist_demo.sh)"
fi

echo "==> results/obs_overhead.json telemetry stays under 5% with identical dumps"
if [ -f results/obs_overhead.json ]; then
  if grep -vqF '"schema_version":' results/obs_overhead.json; then
    echo "row without schema_version in results/obs_overhead.json" >&2
    exit 1
  fi
  if ! grep -qF -- '"dumps_identical":true' results/obs_overhead.json; then
    echo "flight dumps diverged across pool widths or runs" >&2
    exit 1
  fi
  awk -F'"overhead_ratio":' '
    NF > 1 {
      split($2, a, /[,}]/); if (a[1] + 0 > 1.05) { bad = 1 }
    }
    END { exit bad }' results/obs_overhead.json || {
      echo "always-on telemetry overhead exceeded 1.05x" >&2
      exit 1
    }
  echo "  ok results/obs_overhead.json"
else
  echo "  (no results/obs_overhead.json yet — run scripts/obs_demo.sh)"
fi

echo "==> no orphaned results/*.txt shadowing a JSON successor"
for f in results/*.txt; do
  [ -e "$f" ] || continue
  stem=$(basename "$f" .txt)
  if grep -rqF "ResultsWriter::new(\"$stem\"," crates/bench/src; then
    echo "orphaned $f: the \"$stem\" bench writes results/$stem.json now — delete the stale .txt" >&2
    exit 1
  fi
done
echo "  ok: no stale .txt outputs"

echo "==> benchmark/Cargo.lock still matches the crate graph it builds"
# a new [dependencies] edge between crates the benchmark links would make
# cargo rewrite benchmark/Cargo.lock; --locked turns that into a failure
cargo metadata --locked --offline --format-version 1 --manifest-path benchmark/Cargo.toml >/dev/null

echo "==> benchmark/ builds against this tree and every workload is correct"
benchmark/repeat.sh 1 1
bash -n scripts/ab_bench.sh

echo "==> all checks passed"
