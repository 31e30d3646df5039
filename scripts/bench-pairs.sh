#!/usr/bin/env bash
# Paired before/after runs of the repository's benchmark (BENCHMARK.json):
# the procedure a performance PR has to follow (choosing-metrics, "measuring
# in a small sandbox"), as one command.
#
#   scripts/bench-pairs.sh <workload> [pairs]      (make bench-pairs W=... N=...)
#
# It checks the parent commit out into a temporary `git worktree`, then runs
#   bash benchmark/run.sh --workload W --seconds 21 --trace 0 --seed S
# on the parent and on this checkout for `pairs` seeds (default 10),
# alternating which side goes first, ONE run at a time — the benchmark pins
# both CPUs of a two-CPU host, so run nothing else meanwhile. It prints, per
# end-to-end metric, each side's q1/median/q3, the delta of the medians, the
# pairs the change won, whether the medians are further apart than the
# parent's own interquartile range, and each side's failed requests. Beside
# the allocation metrics it prints each side's bulk share of requests
# (bulk_ops_per_s / ops_per_s), which moves them with no allocation added.
#
# Environment:
#   BASE        the commit to compare against. Default: HEAD when the working
#               tree has uncommitted changes (they are the change), else HEAD^.
#   PARENT_DIR  an existing checkout of the parent to use instead of a
#               worktree (it keeps its build cache between invocations).
#   SEED0       pair i runs seed SEED0+i on both sides (default 700). Use
#               seeds that were not used while the change was written.
#   KEEP        a directory to keep the per-run result lines in (default: a
#               temporary directory, removed on exit).
set -euo pipefail

workload=${1:?usage: bench-pairs.sh <workload> [pairs]}
pairs=${2:-10}
seed0=${SEED0:-700}

root=$(git rev-parse --show-toplevel)
cd "$root"

tmp=$(mktemp -d)
out=${KEEP:-$tmp/results}
mkdir -p "$out"
parent=${PARENT_DIR:-}
cleanup() {
	if [ -z "${PARENT_DIR:-}" ] && [ -n "$parent" ]; then
		git worktree remove --force "$parent" 2>/dev/null || true
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT

if [ -z "$parent" ]; then
	base=${BASE:-}
	if [ -z "$base" ]; then
		if [ -n "$(git status --porcelain)" ]; then base=HEAD; else base=HEAD^; fi
	fi
	parent=$tmp/parent
	git worktree add --detach --quiet "$parent" "$base"
	echo "bench-pairs: parent is $base ($(git rev-parse --short "$base")) in a worktree" >&2
else
	echo "bench-pairs: parent is the checkout at $parent" >&2
fi

# run <checkout> <side> <pair> <seed>: the run's last line is its result JSON.
run() {
	(cd "$1" && bash benchmark/run.sh --workload "$workload" --seconds 21 --trace 0 --seed "$4") \
		2>/dev/null | tail -n 1 >"$out/$2.$3.json"
	grep -q '"metrics"' "$out/$2.$3.json" || {
		echo "bench-pairs: $2 run of pair $3 (seed $4) printed no result" >&2
		exit 1
	}
}

for i in $(seq 1 "$pairs"); do
	seed=$((seed0 + i))
	if [ $((i % 2)) -eq 1 ]; then
		order="parent change"
	else
		order="change parent"
	fi
	echo "bench-pairs: pair $i/$pairs, seed $seed, $order" >&2
	for side in $order; do
		if [ "$side" = parent ]; then run "$parent" parent "$i" "$seed"; else run "$root" change "$i" "$seed"; fi
	done
done

# One "side pair metric value" line per measurement, "failed" included.
flatten() {
	for f in "$out"/*.json; do
		name=$(basename "$f" .json)
		side=${name%%.*}
		pair=${name#*.}
		grep -o '"failed":[0-9]*' "$f" | sed "s/\"failed\":/$side $pair failed /"
		grep -o '"[a-z0-9_]*":{"value":[-+.eE0-9]*' "$f" |
			sed "s/^\"\([a-z0-9_]*\)\":{\"value\":/$side $pair \1 /"
	done
}

# The end-to-end metrics and their better direction, in BENCHMARK.json order.
directions() {
	awk '/"end_to_end"/ {on=1} /"per_layer"/ {on=0}
		on && /"name"/ {gsub(/[",]/, ""); name=$2}
		on && /"better"/ {gsub(/[",]/, ""); print "dir", name, $2}' BENCHMARK.json
}

echo "== $workload: $pairs alternating pairs, seeds $((seed0 + 1))..$((seed0 + pairs)), parent -> change =="
{ directions; flatten; } | awk -v pairs="$pairs" '
function quart(a, n, p,    h, lo) { # type-7 quantile of the sorted a[1..n]
	h = (n - 1) * p + 1; lo = int(h)
	if (lo >= n) return a[n]
	return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function sorted(side, m, dst,    i, j, t, n) {
	n = 0
	for (i = 1; i <= pairs; i++) if ((side, i, m) in v) dst[++n] = v[side, i, m]
	for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
	return n
}
$1 == "dir" { order[++nm] = $2; better[$2] = $3; next }
$3 == "failed" { failed[$1] += $4; next }
{ v[$1, $2, $3] = $4 }
END {
	# The class mix: a bulk request allocates far more than an interactive
	# one, so a faster bulk class raises the per-request allocation
	# metrics with no allocation added. Printed beside them.
	for (i = 1; i <= pairs; i++) for (s = 0; s < 2; s++) {
		side = s ? "change" : "parent"
		if ((side, i, "ops_per_s") in v && v[side, i, "ops_per_s"] > 0)
			v[side, i, "bulk_share_pct"] = 100 * v[side, i, "bulk_ops_per_s"] / v[side, i, "ops_per_s"]
	}
	printf "%-22s %-6s %33s %33s %8s %6s  %s\n", "metric", "better", "parent q1/median/q3", "change q1/median/q3", "delta", "won", "medians apart by more than parent IQR"
	for (k = 1; k <= nm; k++) {
		m = order[k]
		if (m == "allocs_per_op") {
			np = sorted("parent", "bulk_share_pct", P); nc = sorted("change", "bulk_share_pct", C)
			if (np > 0 && nc > 0)
				printf "%-22s %-6s %10.4g /%10.4g /%10.4g %10.4g /%10.4g /%10.4g %+7.1f%%\n", "bulk_share_pct", "-",
					quart(P, np, .25), quart(P, np, .5), quart(P, np, .75), quart(C, nc, .25), quart(C, nc, .5), quart(C, nc, .75),
					100 * (quart(C, nc, .5) - quart(P, np, .5)) / quart(P, np, .5)
		}
		np = sorted("parent", m, P); nc = sorted("change", m, C)
		if (np == 0 || nc == 0) continue
		pm = quart(P, np, .5); cm = quart(C, nc, .5); iqr = quart(P, np, .75) - quart(P, np, .25)
		won = 0; lost = 0
		for (i = 1; i <= pairs; i++) {
			if (!(("parent", i, m) in v) || !(("change", i, m) in v)) continue
			d = v["change", i, m] - v["parent", i, m]
			if (better[m] == "lower") d = -d
			if (d > 0) won++; else if (d < 0) lost++
		}
		gap = cm - pm; if (gap < 0) gap = -gap
		printf "%-22s %-6s %10.4g /%10.4g /%10.4g %10.4g /%10.4g /%10.4g %+7.1f%% %3d/%-2d  %s\n", m, better[m],
			quart(P, np, .25), pm, quart(P, np, .75), quart(C, nc, .25), cm, quart(C, nc, .75),
			(pm != 0 ? 100 * (cm - pm) / pm : 0), won, won + lost, (gap > iqr ? "yes" : "no")
	}
	printf "failed requests: parent %d, change %d\n", failed["parent"], failed["change"]
}'
