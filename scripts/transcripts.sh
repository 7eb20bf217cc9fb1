#!/bin/sh
# transcripts.sh <outdir> — dump every byte-level behavioural artefact of
# the simulator into <outdir>:
#
#   scenarios.txt    shssim run -v scenarios/   (all bundled scenarios)
#   interactive.txt  the committed operator session's transcript
#   telemetry.jsonl  the series that session dumps
#   fuzz.txt         shssim fuzz -n 200 -seed 1
#
# Everything is seeded and on the virtual clock, so two invocations — of
# one checkout (determinism) or of a parent and a change that must not
# alter behaviour (parity) — compare with `diff -r`. Run from the root
# of the checkout to dump; nothing is written there.
set -eu

[ $# -eq 1 ] || { echo "usage: $0 <outdir>" >&2; exit 2; }
mkdir -p "$1"
out=$(cd "$1" && pwd)
root=$(cd "$(dirname "$0")/.." && pwd)

go build -C "$root" -o "$out/shssim" ./cmd/shssim
trap 'rm -f "$out/shssim"' EXIT

cd "$root"
"$out/shssim" run -v scenarios/ > "$out/scenarios.txt"
"$out/shssim" fuzz -n 200 -seed 1 > "$out/fuzz.txt"
# The session's `metrics dump telemetry.jsonl` is relative to the working
# directory: run it inside <outdir>.
(cd "$out" && ./shssim interactive -stdin -sample-every 100ms \
	< "$root/examples/interactive/session.txt" > interactive.txt)
