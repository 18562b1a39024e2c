#!/usr/bin/env bash
# Runs the full set of workloads RUNS times (default 2), alternating the
# workload order and giving each pass its own seed, then prints, per
# end-to-end metric x workload, every value, the relative difference of the
# extremes and — from four passes on — the spread the driver computes (first
# to third quartile over the median), each against the metric's bound in
# BENCHMARK.json.
#
#   benchmark/repeat.sh            # two passes, run_seconds from BENCHMARK.json
#   benchmark/repeat.sh 10         # ten passes: the acceptance spread
#   benchmark/repeat.sh 2 1        # two passes of 1 s: a smoke run
set -euo pipefail
cd "$(dirname "$0")/.."
RUNS="${1:-2}"
SECONDS_PER_RUN="${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
OUT=benchmark/out
mkdir -p "$OUT"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
mapfile -t WORKLOADS < <(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
: > "$OUT/repeat.jsonl"
for pass in $(seq 1 "$RUNS"); do
    order=("${WORKLOADS[@]}")
    if (( pass % 2 == 0 )); then
        order=()
        for (( i=${#WORKLOADS[@]}-1; i>=0; i-- )); do order+=("${WORKLOADS[i]}"); done
    fi
    for workload in "${order[@]}"; do
        echo "pass $pass: $workload" >&2
        result=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
            --workload "$workload" --seed "$pass" --seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 1)
        echo "{\"workload\": \"$workload\", \"pass\": $pass, \"result\": $result}" >> "$OUT/repeat.jsonl"
    done
done
python3 - "$OUT/repeat.jsonl" <<'PY'
import json, statistics, sys
spec = json.load(open("BENCHMARK.json"))
rows = [json.loads(line) for line in open(sys.argv[1])]
ok = all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in rows)
print(f"{'workload':13} {'metric':12} {'bound':>6} {'diff':>7} {'iqr/med':>8}  verdict  values")
for workload in [w["name"] for w in spec["workloads"]]:
    for metric in spec["end_to_end"]:
        values = [r["result"]["metrics"][metric["name"]]["value"]
                  for r in rows if r["workload"] == workload]
        median = statistics.median(values)
        diff = (max(values) - min(values)) / median
        spread = None
        if len(values) >= 4:
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / median
        judged = diff if spread is None else spread
        # set-up time is bounded between runs of the driver, not within one
        passed = judged <= metric["bound"] or metric["name"] == "setup_s"
        ok &= passed
        shown = " ".join(f"{v:.4g}" for v in values)
        print(f"{workload:13} {metric['name']:12} {metric['bound']:6.2f} {diff:7.3f} "
              f"{'' if spread is None else format(spread, '8.3f'):>8}  "
              f"{'pass' if passed else 'FAIL':7}  {shown}")
print("all correct, all within bounds" if ok else "FAILED: see above")
sys.exit(0 if ok else 1)
PY
