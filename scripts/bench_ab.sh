#!/usr/bin/env bash
# A/B the client-observed benchmark (bench_e2e) between two revisions.
#
#   scripts/bench_ab.sh <base-rev> [--head REV] [--pairs N]
#       [--workloads W1,W2,...] [--seconds S] [--first-seed N] [--out DIR]
#
# Both sides are exported with `git archive` (never the working tree)
# into DIR/base and DIR/head and built there, each with its own target
# directory. Pair i runs both sides at seed first-seed + i, alternating
# which side goes first, so drift on a shared box hits both equally.
# Every run's output is kept under DIR/runs; a later call with the same
# DIR and revisions reuses the exports. The summary prints, per
# workload and end-to-end metric, each side's median and IQR, the change
# in the median, and how many pairs the head side won (better in the
# direction BENCHMARK.json gives; ties count for neither). DIR/summary.json
# holds the same numbers plus each side's commit, nproc, CPU model and
# rustc, the rows BENCH_e2e.json records.
#
# Defaults: --head HEAD, --pairs 5, every workload BENCHMARK.json names,
# --seconds from BENCHMARK.json, --first-seed 1, --out .bench_build/ab.
set -euo pipefail

usage() {
    sed -n '4,5p' "$0" | sed 's/^# \{0,3\}//' >&2
    exit 2
}

[ $# -ge 1 ] || usage
base_rev=$1
shift
head_rev=HEAD
pairs=5
workloads=
seconds=
first_seed=1
out=.bench_build/ab
while [ $# -gt 0 ]; do
    [ $# -ge 2 ] || usage
    case $1 in
        --head) head_rev=$2 ;;
        --pairs) pairs=$2 ;;
        --workloads) workloads=$2 ;;
        --seconds) seconds=$2 ;;
        --first-seed) first_seed=$2 ;;
        --out) out=$2 ;;
        *) usage ;;
    esac
    shift 2
done

repo=$(git rev-parse --show-toplevel)
cd "$repo"
bench_json=$repo/BENCHMARK.json
[ -n "$workloads" ] || workloads=$(python3 -c 'import json,sys; print(",".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$bench_json")
[ -n "$seconds" ] || seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$bench_json")

mkdir -p "$out/runs"
out=$(cd "$out" && pwd)
for side in base head; do
    rev=$base_rev
    [ $side = head ] && rev=$head_rev
    commit=$(git rev-parse --short "$rev^{commit}")
    # An export of the same commit from an earlier call is reused.
    if [ "$(cat "$out/$side.commit" 2>/dev/null)" != "$commit" ]; then
        rm -rf "${out:?}/$side"
        mkdir -p "$out/$side"
        git archive "$commit" | tar -x -C "$out/$side"
        echo "$commit" > "$out/$side.commit"
    fi
    echo "building $side ($commit)" >&2
    cargo build --release --offline --quiet \
        --manifest-path "$out/$side/bench_e2e/Cargo.toml"
done

run_side() { # side workload seed
    local dir=$out/$1
    (cd "$dir" && "$dir/bench_e2e/target/release/bench_e2e" \
        --workload "$2" --seed "$3" --seconds "$seconds") \
        > "$out/runs/$2.$3.$1.json"
}

IFS=, read -r -a names <<< "$workloads"
for w in "${names[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        seed=$((first_seed + i))
        if ((i % 2 == 0)); then order="base head"; else order="head base"; fi
        for side in $order; do
            echo "$w seed $seed: $side" >&2
            run_side "$side" "$w" "$seed"
        done
    done
done

python3 - "$out" "$bench_json" "$pairs" "$first_seed" "$workloads" <<'PY'
import json, os, platform, statistics, subprocess, sys

out, bench_json, pairs, first_seed, workloads = sys.argv[1:]
pairs, first_seed = int(pairs), int(first_seed)
metrics = json.load(open(bench_json))["end_to_end"]

def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

def cpu_model():
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"

rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
summary = {"pairs": pairs, "first_seed": first_seed, "sides": {}}
for side in ("base", "head"):
    summary["sides"][side] = {
        "commit": open(f"{out}/{side}.commit").read().strip(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "rustc": rustc,
        "workloads": {},
    }
summary["wins"] = {}

for w in workloads.split(","):
    runs = {side: [] for side in ("base", "head")}
    for i in range(pairs):
        for side in runs:
            lines = open(f"{out}/runs/{w}.{first_seed + i}.{side}.json").read().split("\n")
            runs[side].append(json.loads([l for l in lines if l.strip()][-1]))
    print(f"\n{w}: {pairs} pairs")
    print(f"  {'metric':<12} {'base median [IQR]':>26} {'head median [IQR]':>26} {'change':>8} {'wins':>6}")
    summary["wins"][w] = {}
    for side in runs:
        bad = sum(1 for r in runs[side] if r["correct"] is not True or r["failed"] != 0)
        summary["sides"][side]["workloads"].setdefault(w, {})["bad_runs"] = bad
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
        q = {s: quartiles(vals[s]) for s in vals}
        wins = sum(1 for b, h in zip(vals["base"], vals["head"]) if (h < b if lower else h > b))
        change = (q["head"][1] / q["base"][1] - 1) * 100 if q["base"][1] else float("nan")
        fmt = lambda t: f"{t[1]:.4g} [{t[0]:.4g}, {t[2]:.4g}]"
        print(f"  {name:<12} {fmt(q['base']):>26} {fmt(q['head']):>26} {change:>+7.1f}% {wins:>3}/{pairs}")
        for s in runs:
            summary["sides"][s]["workloads"][w][name] = {
                "median": q[s][1], "q1": q[s][0], "q3": q[s][2], "n": pairs,
            }
        summary["wins"][w][name] = wins
    for side in runs:
        bad = summary["sides"][side]["workloads"][w]["bad_runs"]
        if bad:
            print(f"  WARNING: {bad} {side} run(s) were not correct with 0 failed")

json.dump(summary, open(f"{out}/summary.json", "w"), indent=1)
print(f"\nsummary: {out}/summary.json")
PY
