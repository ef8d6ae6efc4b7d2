#!/usr/bin/env bash
# A/A check of the benchmark's own noise: the same code measured twice.
#
# Builds once, then runs every workload in two interleaved sets
# (A B A B …), each run on another seed, set B's seeds disjoint from set
# A's. Per workload and end-to-end metric it prints each set's median and
# quartiles, the spread (inter-quartile distance over the median, the
# driver's acceptance statistic) and the gap between the two medians in
# the metric's worse direction. It exits non-zero if any run was
# incorrect, or if any spread (setup_s excepted, as in the driver) or any
# gap exceeds that metric's bound in BENCHMARK.json.
#
#   bench/aa.sh [runs-per-set [seconds [workload…]]]     (from the repo root)
set -euo pipefail

runs=${1:-5}
seconds=${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
shift $(( $# < 2 ? $# : 2 ))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	mapfile -t workloads < <(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi

out=.bench_out/aa
mkdir -p "$out"
go build -o "$out/bench" ./bench

for w in "${workloads[@]}"; do
	: >"$out/$w.A.jsonl"
	: >"$out/$w.B.jsonl"
	for i in $(seq 1 "$runs"); do
		for set in A B; do
			seed=$i
			[ "$set" = B ] && seed=$((100 + i))
			echo "aa: $w set $set run $i/$runs seed $seed" >&2
			# A failing run still prints its result line; the report below counts it.
			"$out/bench" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1 >>"$out/$w.$set.jsonl" || true
		done
	done
done

python3 - "$out" "${workloads[@]}" <<'EOF'
import json, statistics, sys

out, workloads = sys.argv[1], sys.argv[2:]
defs = json.load(open("BENCHMARK.json"))["end_to_end"]
bad = 0
print(f"{'workload':<11}{'metric':<17}{'A median':>13}{'A q1':>13}{'A q3':>13}{'A spread':>9}"
      f"{'B median':>13}{'B spread':>9}{'gap':>8}{'bound':>7}")
for w in workloads:
    runs = {s: [json.loads(l) for l in open(f"{out}/{w}.{s}.jsonl")] for s in "AB"}
    for s in "AB":
        for r in runs[s]:
            if not r["correct"] or r["failed"]:
                print(f"{w}: set {s} had an incorrect run: {r['failed']} of {r['attempted']} failed")
                bad += 1
    for d in defs:
        stat = {}
        for s in "AB":
            vals = [r["metrics"][d["name"]]["value"] for r in runs[s]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            stat[s] = (med, q1, q3, (q3 - q1) / med)
        a, b = stat["A"], stat["B"]
        gap = (b[0] - a[0]) / a[0]
        if d["better"] == "higher":
            gap = -gap
        flag = ""
        if abs(gap) > d["bound"]:
            flag += " GAP"
        if d["name"] != "setup_s" and max(a[3], b[3]) > d["bound"]:
            flag += " SPREAD"
        bad += bool(flag)
        print(f"{w:<11}{d['name']:<17}{a[0]:>13.4f}{a[1]:>13.4f}{a[2]:>13.4f}{a[3]:>8.1%} "
              f"{b[0]:>13.4f}{b[3]:>8.1%} {gap:>+7.1%}{d['bound']:>7.0%}{flag}")
sys.exit(1 if bad else 0)
EOF
