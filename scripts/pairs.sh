#!/bin/sh
# pairs.sh <parent-ref> <workload> [--seed n] [--pairs 10] — the protocol
# behind every performance claim on benchmarks/: the parent commit against
# this checkout (working tree included), one workload, alternating runs.
#
# The parent is unpacked with `git archive` under a temporary directory
# (nothing is left in .git, even when interrupted), both `benchmarks`
# binaries are built once, and each pair runs both at the benchmark's own
# --seconds, the side that goes first flipped every pair. Every run is
# printed as it finishes; then, per end-to-end metric, each side's median
# and quartiles, the pairs the change won (ties count for neither) and the
# verdict — gain, worse, unresolved or within bound — that
# scripts/pairs-summary.awk reads off BENCHMARK.json's `better` and
# `bound` (fetched with jq). A gain is claimed when the change wins nine
# pairs in ten and the medians differ by more than the parent's own
# inter-quartile spread (benchmarks/README.md).
#
# No network. Nothing is written under benchmarks/: each binary runs from a
# scratch directory whose parent links to its checkout's scenarios/.
set -eu

usage() { echo "usage: $0 <parent-ref> <workload> [--seed n] [--pairs n]" >&2; exit 2; }
[ $# -ge 2 ] || usage
parent=$1 workload=$2
shift 2
seed=1 pairs=10
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	case $1 in
	--seed) seed=$2 ;;
	--pairs) pairs=$2 ;;
	*) usage ;;
	esac
	shift 2
done

root=$(cd "$(dirname "$0")/.." && pwd)
commit=$(git -C "$root" rev-parse --verify --quiet "$parent^{commit}") ||
	{ echo "$0: $parent is not a commit" >&2; exit 2; }
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

mkdir "$tmp/parent"
git -C "$root" archive "$commit" | tar -x -C "$tmp/parent"
go build -C "$tmp/parent/benchmarks" -o "$tmp/bench.parent" .
go build -C "$root/benchmarks" -o "$tmp/bench.change" .
mkdir -p "$tmp/run.parent/cwd" "$tmp/run.change/cwd"
ln -s "$tmp/parent/scenarios" "$tmp/run.parent/scenarios"
ln -s "$root/scenarios" "$tmp/run.change/scenarios"

echo "# parent $commit vs $(git -C "$root" describe --always --dirty), workload $workload, seed $seed, $pairs pairs"

# run <pair> <side>: one benchmark run; its metric lines go to $tmp/runs as
# "<pair> <side> <metric> <value>" and to stdout.
run() {
	(cd "$tmp/run.$2/cwd" && "$tmp/bench.$2" --workload "$workload" --seed "$seed") > "$tmp/out" ||
		{ cat "$tmp/out"; echo "$0: the $2 run of pair $1 failed" >&2; exit 1; }
	awk -v pair="$1" -v side="$2" -v w="$workload/" \
		'index($1, w) == 1 { print pair, side, substr($1, length(w) + 1), $2 }' "$tmp/out" |
		tee -a "$tmp/runs"
}

i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run "$i" parent
		run "$i" change
	else
		run "$i" change
		run "$i" parent
	fi
	i=$((i + 1))
done

jq -r '.end_to_end[] | "spec \(.name) \(.better) \(.bound)"' "$root/BENCHMARK.json" |
	cat - "$tmp/runs" | awk -f "$root/scripts/pairs-summary.awk"
