#!/usr/bin/env bash
# Runs the kernel-layer bench (naive reference vs blocked/fused kernels
# over the MLP-dense, KWS-conv and vision-depthwise shape classes, plus the
# int8 GEMM at every ei_tensor::simd level the host supports, and the f32
# direct convolutions at every f32 level against conv::reference) and
# sanity-checks the JSONL rows it writes: every shape/kernel pair is
# present, every row reports bitwise_equal:true, and the bench's own ≥2×
# speedup assert ran (the bin exits non-zero if the blocked kernel ever
# regresses below 2× naive on the large-GEMM shape, or the best int8 level
# below 3× Baseline).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> EDGELAB_QUICK=1 cargo run --release -p ei-bench --bin kernels"
EDGELAB_QUICK=1 cargo run --release -p ei-bench --bin kernels

echo "==> checking results/kernels.json"
out=results/kernels.json
for marker in \
  '"shape":"dense_mlp","kernel":"naive"' \
  '"shape":"dense_mlp","kernel":"blocked"' \
  '"shape":"dense_mlp","kernel":"blocked_par"' \
  '"shape":"dense_mlp_int8","kernel":"blocked_fused"' \
  '"shape":"dense_mlp_int8","kernel":"int8_baseline"' \
  '"shape":"kws_conv","kernel":"blocked_par"' \
  '"shape":"kws_conv","kernel":"int8_baseline"' \
  '"shape":"kws_conv","kernel":"f32_baseline"' \
  '"shape":"vision_depthwise","kernel":"blocked_par"' \
  '"shape":"vision_depthwise","kernel":"f32_baseline"'; do
  if ! grep -qF -- "$marker" "$out"; then
    echo "MISSING from $out: $marker" >&2
    exit 1
  fi
  echo "  found $marker"
done
if grep -qF -- '"bitwise_equal":false' "$out"; then
  echo "a kernel variant diverged from the naive reference" >&2
  exit 1
fi

echo "==> kernels demo passed"
