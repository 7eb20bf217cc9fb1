#!/bin/sh
# loc.sh — lines of Go per package outside benchmarks/ (a module of its
# own), non-test and test, then the totals: the size figures CHANGES.md
# quotes. A line is a `wc -l` line, blank lines and comments included.
#
#   scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."
find . -path ./benchmarks -prune -o -path ./.git -prune -o -name '*.go' -print |
	sort | xargs wc -l | grep -v ' total$' |
	awk '{
		f = $2
		sub(/^\.\//, "", f)
		pkg = f
		if (!sub(/\/[^\/]*$/, "", pkg)) pkg = "."
		if (f ~ /_test\.go$/) test[pkg] += $1; else code[pkg] += $1
		if (!(pkg in seen)) { seen[pkg] = 1; order[n++] = pkg }
	}
	END {
		printf "%-28s %8s %8s\n", "package", "non-test", "test"
		for (i = 0; i < n; i++) {
			p = order[i]
			printf "%-28s %8d %8d\n", p, code[p], test[p]
			tc += code[p]; tt += test[p]
		}
		printf "%-28s %8d %8d\n", "total", tc, tt
	}'
