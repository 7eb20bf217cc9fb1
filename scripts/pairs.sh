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
# and quartiles and the pairs the change won (ties count for neither). A
# gain is claimed when the change wins nine pairs in ten and the medians
# differ by more than the parent's own inter-quartile spread
# (/opt/skills/guides/choosing-metrics §8, benchmarks/README.md).
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

awk '
function sorted(side, m, out,    n, i, j, v) {
	n = 0
	for (i = 1; i <= npairs; i++)
		if ((i, side, m) in val) out[++n] = val[i, side, m]
	for (i = 2; i <= n; i++) {
		v = out[i]
		for (j = i - 1; j >= 1 && out[j] > v; j--) out[j + 1] = out[j]
		out[j + 1] = v
	}
	return n
}
function quantile(a, n, q,    h, lo) {
	h = (n - 1) * q + 1
	lo = int(h)
	return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
{
	val[$1, $2, $3] = $4
	if ($1 > npairs) npairs = $1
	if (!($3 in seen)) { seen[$3] = 1; order[++nm] = $3 }
}
END {
	printf "\n%-18s %-6s %12s %12s %12s   %s\n", "metric", "side", "q1", "median", "q3", "change wins"
	for (k = 1; k <= nm; k++) {
		m = order[k]
		higher = (m == "success_share")
		wins = ties = 0
		for (i = 1; i <= npairs; i++) {
			p = val[i, "parent", m]; c = val[i, "change", m]
			if (c == p) ties++
			else if ((c < p) != higher) wins++
		}
		n = sorted("parent", m, a)
		printf "%-18s %-6s %12.6g %12.6g %12.6g\n", m, "parent", quantile(a, n, .25), quantile(a, n, .5), quantile(a, n, .75)
		pm = quantile(a, n, .5); iqr = quantile(a, n, .75) - quantile(a, n, .25)
		n = sorted("change", m, a)
		cm = quantile(a, n, .5)
		printf "%-18s %-6s %12.6g %12.6g %12.6g   %d of %d (%d ties), median %+.2f%%, parent IQR %.6g\n", m, "change",
			quantile(a, n, .25), cm, quantile(a, n, .75), wins, npairs, ties, pm ? (cm - pm) / pm * 100 : 0, iqr
	}
}' "$tmp/runs"
