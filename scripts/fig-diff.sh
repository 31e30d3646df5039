#!/usr/bin/env bash
# Byte-for-byte comparison of the simulator's figures between the parent
# commit and this checkout: the check a refactor of the reproduction half
# has to pass, as one command.
#
#   scripts/fig-diff.sh [figure ...]      (make fig-diff [FIGS="1 8a 8h"])
#
# It builds cmd/ampsim on both sides, runs
#   ampsim -fig <figures, comma-separated> -trace <file>
# once per side (the two sides run side by side; the simulator is
# deterministic), drops the one line that may differ, each figure's
# "-- <id> regenerated in <duration> --" timing line, and diffs the rest,
# and the Fig. 8d trace CSV when 8d is among the figures. It exits 1 on any
# difference, after one "fig-diff: <id> differs" line per figure whose
# lines changed. The figures default to "all", which takes minutes.
#
# Environment (the conventions of scripts/bench-pairs.sh):
#   BASE        the commit to compare against. Default: HEAD when the working
#               tree has uncommitted changes (they are the change), else HEAD^.
#   PARENT_DIR  an existing checkout of the parent to use instead of a
#               worktree (it keeps its build cache between invocations).
set -euo pipefail

figs=${*:-all}
figs=${figs// /,}

root=$(git rev-parse --show-toplevel)
cd "$root"

tmp=$(mktemp -d)
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
	echo "fig-diff: parent is $base ($(git rev-parse --short "$base")) in a worktree" >&2
else
	echo "fig-diff: parent is the checkout at $parent" >&2
fi

# run <checkout> <side>: build ampsim, regenerate the figures, and keep
# the output without its timing lines in $tmp/<side>.txt.
run() {
	mkdir -p "$tmp/$2"
	(cd "$1" && go build -o "$tmp/$2/ampsim" ./cmd/ampsim)
	"$tmp/$2/ampsim" -fig "$figs" -trace "$tmp/$2/8d-trace.csv" 2>"$tmp/$2/stderr" |
		grep -v -E '^-- .* regenerated in .* --$' >"$tmp/$2.txt" || {
		echo "fig-diff: the $2 side failed:" >&2
		cat "$tmp/$2/stderr" >&2
		return 1
	}
}

echo "fig-diff: figures $figs" >&2
run "$parent" parent &
p=$!
run "$root" change &
c=$!
failed=0
wait "$p" || failed=1
wait "$c" || failed=1
[ "$failed" -eq 0 ] || exit 1

# tag <side>: each output line prefixed with its figure's ID and a tab.
tag() {
	awk '/^== /{id=$2; sub(/:$/, "", id)} {print id "\t" $0}' "$tmp/$1.txt"
}

same=0
diff -u --label parent --label change "$tmp/parent.txt" "$tmp/change.txt" || same=1
if [ -f "$tmp/parent/8d-trace.csv" ] || [ -f "$tmp/change/8d-trace.csv" ]; then
	cmp "$tmp/parent/8d-trace.csv" "$tmp/change/8d-trace.csv" || {
		same=1
		echo "fig-diff: fig8d trace differs" >&2
	}
fi
if [ "$same" -ne 0 ]; then
	diff <(tag parent) <(tag change) | sed -n 's/^[<>] \([^\t]*\)\t.*/fig-diff: \1 differs/p' | sort -u >&2 || true
	echo "fig-diff: the figures differ" >&2
	exit 1
fi
echo "fig-diff: $(wc -l <"$tmp/change.txt") lines identical apart from the timing lines" >&2
