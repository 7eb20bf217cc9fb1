#!/bin/sh
# inline.sh — the compiler's inlining decisions on the data path's hot
# calls. For sim.FreeList.Get, Engine.At / After / AtCall / AfterCall and
# Lane.AtCall it prints, per package (sim, fabric, cxi, mpi), how many
# instances `go build -gcflags=-m` reports it can inline (one per generic
# shape for Get) and how many of the package's calls it inlined. Costs are
# left out, so only a decision that flips, or a call site that comes or
# goes, changes the output. scripts/inline.ref is the output on go1.24,
# and CI diffs the two.
#
#   scripts/inline.sh | diff scripts/inline.ref -
set -eu

cd "$(dirname "$0")/.."
printf '%-8s %-18s %6s %6s\n' package function inline calls
for pkg in sim fabric cxi mpi; do
	go build -gcflags=-m "./internal/$pkg" 2>&1 |
		sed -E 's/FreeList\[.*\]\)\./FreeList)./; s/ sim\.\(\*/ (*/' |
		awk -v pkg="$pkg" '
		BEGIN { n = split("FreeList.Get Engine.At Engine.After Engine.AtCall Engine.AfterCall Lane.AtCall", fns, " ") }
		/: (can inline|inlining call to) \(\*[A-Za-z]+\)\.[A-Za-z]+$/ {
			f = $NF
			gsub(/[(*)]/, "", f)
			if (/: can inline /) can[f]++; else calls[f]++
		}
		END {
			for (i = 1; i <= n; i++) {
				f = fns[i]
				if (can[f] + calls[f] > 0)
					printf "%-8s %-18s %6d %6d\n", pkg, f, can[f], calls[f]
			}
		}'
done
