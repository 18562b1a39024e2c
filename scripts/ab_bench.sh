#!/usr/bin/env bash
# A/B of the benchmark between two revisions, the way a perf or simplicity
# PR has to be judged on a host whose speed drifts for minutes at a time:
# alternating pairs, one seed per pair, both sides built from clean exports.
#
#   scripts/ab_bench.sh <rev-a> <rev-b> [pairs=6] [workload…]
#
#   scripts/ab_bench.sh HEAD~1 HEAD                 # all workloads, 6 pairs
#   scripts/ab_bench.sh HEAD~1 HEAD 10 serve_vww    # ten pairs of one workload
#   scripts/ab_bench.sh HEAD .  10 serve_vww        # HEAD against this work tree
#
# A side is a git revision (exported with `git archive` into a temp dir
# under $TMPDIR, removed on exit) or a directory holding a checkout (built
# and run in place — the way to measure uncommitted work). Each side's
# benchmark/ is built once; every run is BENCHMARK.json's own command in
# that side's root with `--trace 0` and its `run_seconds` (AB_SECONDS
# overrides). Pair i runs both sides with seed i, a first on odd pairs and
# b first on even ones.
#
# Prints, per workload and end-to-end metric: each side's median and
# quartiles, IQR/median against the metric's bound, the pairs b won, and a
# verdict — `unresolved` when either side's spread exceeds the bound (unless
# every b run beats every a run), `worse` when b's median is past the bound,
# `better` when b wins at least nine pairs in ten and the medians differ by
# more than a's own IQR, else `same`. Lists every run that was not
# `correct: true, failed: 0` and exits 1 if there was one. It only prints:
# it writes nothing into the repo.
set -euo pipefail
cd "$(dirname "$0")/.."
if (( $# < 2 )); then
    echo "usage: scripts/ab_bench.sh <rev-a> <rev-b> [pairs=6] [workload…]" >&2
    exit 2
fi
REV_A="$1" REV_B="$2" PAIRS="${3:-6}"
shift $(( $# < 3 ? $# : 3 ))
SPEC="$PWD/BENCHMARK.json"
SECONDS_PER_RUN="${AB_SECONDS:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$SPEC")}"
if (( $# > 0 )); then
    WORKLOADS=("$@")
else
    mapfile -t WORKLOADS < <(python3 -c 'import json,sys; print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$SPEC")
fi
mapfile -t COMMAND < <(python3 -c 'import json,sys; print("\n".join(json.load(open(sys.argv[1]))["command"]))' "$SPEC")

WORK="$(mktemp -d "${TMPDIR:-/tmp}/ab_bench.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

# side <name> <rev-or-dir>: prints the directory that side runs in
side() {
    if [[ -d "$2" ]]; then
        (cd "$2" && pwd)
    else
        mkdir "$WORK/$1"
        git archive "$2" | tar -x -C "$WORK/$1"
        echo "$WORK/$1"
    fi
}
DIR_A="$(side a "$REV_A")"
DIR_B="$(side b "$REV_B")"
for dir in "$DIR_A" "$DIR_B"; do
    echo "building $dir/benchmark" >&2
    cargo build --release --offline --quiet --manifest-path "$dir/benchmark/Cargo.toml"
done

run() { # run <dir> <workload> <seed>: the result object, the run's last line
    (cd "$1" && "${COMMAND[@]}" --workload "$2" --seed "$3" --seconds "$SECONDS_PER_RUN" --trace 0 | tail -n 1) || true
}
ROWS="$WORK/rows.jsonl"
for pair in $(seq 1 "$PAIRS"); do
    order=(a b)
    (( pair % 2 == 0 )) && order=(b a)
    for workload in "${WORKLOADS[@]}"; do
        for which in "${order[@]}"; do
            dir="$DIR_A"
            [[ $which == b ]] && dir="$DIR_B"
            echo "pair $pair/$PAIRS: $workload $which" >&2
            result="$(run "$dir" "$workload" "$pair")"
            echo "{\"pair\": $pair, \"workload\": \"$workload\", \"side\": \"$which\", \"result\": ${result:-null}}" >> "$ROWS"
        done
    done
done

python3 - "$SPEC" "$ROWS" "$REV_A" "$REV_B" <<'PY'
import json, statistics, sys
spec = json.load(open(sys.argv[1]))
rows = [json.loads(line) for line in open(sys.argv[2])]
print(f"a = {sys.argv[3]}   b = {sys.argv[4]}   {max(r['pair'] for r in rows)} pair(s)")
bad = [r for r in rows
       if not r["result"] or not r["result"]["correct"] or r["result"]["failed"] != 0]

def summary(values):
    """Median, first and third quartile (the extremes below four values)."""
    median = statistics.median(values)
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1, q3 = min(values), max(values)
    return median, q1, q3

print(f"{'workload':13} {'metric':12} {'a median (q1 – q3)':>30} {'b median (q1 – q3)':>30} "
      f"{'iqr/med a':>9} {'b':>6} {'bound':>6} {'b wins':>7}  verdict")
for workload in dict.fromkeys(r["workload"] for r in rows):
    for metric in spec["end_to_end"]:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        pairs = {}
        for r in rows:
            if r["workload"] == workload and r["result"]:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"][name]["value"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        if not pairs:
            continue
        a, b = [p["a"] for p in pairs], [p["b"] for p in pairs]
        (ma, a1, a3), (mb, b1, b3) = summary(a), summary(b)
        spread_a, spread_b = (a3 - a1) / ma, (b3 - b1) / mb
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        gain = (ma - mb) if lower else (mb - ma)  # positive: b is better
        disjoint = max(b) < min(a) if lower else min(b) > max(a)
        if max(spread_a, spread_b) > bound and not disjoint:
            verdict = "unresolved"
        elif -gain > bound * ma:
            verdict = "worse"
        elif wins >= 0.9 * len(pairs) and gain > a3 - a1:
            verdict = "better"
        else:
            verdict = "same"
        print(f"{workload:13} {name:12} {f'{ma:.4g} ({a1:.4g} – {a3:.4g})':>30} "
              f"{f'{mb:.4g} ({b1:.4g} – {b3:.4g})':>30} {spread_a:9.3f} {spread_b:6.3f} "
              f"{bound:6.2f} {f'{wins}/{len(pairs)}':>7}  {verdict}")
for r in bad:
    print(f"NOT CORRECT: pair {r['pair']} {r['workload']} side {r['side']}: "
          + (json.dumps({k: r['result'][k] for k in ('correct', 'attempted', 'failed')})
             if r["result"] else "no result"))
print("every run correct" if not bad else f"{len(bad)} run(s) not correct")
sys.exit(1 if bad else 0)
PY
