#!/bin/sh
# transcripts.sh <outdir> — dump every byte-level behavioural artefact of
# the simulator into <outdir>:
#
#   scenarios.txt    shssim run -v scenarios/   (all bundled scenarios)
#   interactive.txt  the committed operator session's transcript
#   telemetry.jsonl  the series that session dumps
#   fuzz.txt         shssim fuzz -n 200 -seed 1
#   bench-exact.txt  the exact columns of the repository benchmark: every
#                    layer counter and virt.* value of its five workloads
#   shsbench.txt     shsbench -exp all -runs 1  (every figure and table)
#   quickstart.txt   examples/quickstart's stdout
#   converged.txt    examples/converged's stdout
#
# Everything is seeded and on the virtual clock, so two invocations — of
# one checkout (determinism) or of a parent and a change that must not
# alter behaviour (parity) — compare with `diff -r`. Run from the root
# of the checkout to dump; nothing is written there but the benchmark's
# own ignored benchmarks/out/.
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
(cd "$out" && ./shssim interactive -sample-every 100ms \
	< "$root/examples/interactive/session.txt" > interactive.txt)
# One short traced run per workload, keeping what no clock enters: the
# per-iteration layer counters and the simulated times (a counter is the
# same in every iteration, so the iteration count n= is dropped). Host
# times stay out: they are what scripts/pairs.sh compares.
for w in admission_spike500 cp_pods5000 allreduce_packet allreduce_flow scenario_suite; do
	go run -C "$root/benchmarks" . --workload "$w" --seconds 1 --trace 1
done | sed -nE 's,^([a-z0-9_]+/((sim|fabric|cxi|cni|vnisvc|k8s)\.[a-z0-9_.]+ [^ ]+ count|virt\.[a-z0-9_]+ [^ ]+ [^ ]+)) n=[0-9]+$,\1,p' \
	> "$out/bench-exact.txt"
# The figure harness and the example programs: an example that log.Fatals
# fails the script here.
go run ./cmd/shsbench -exp all -runs 1 > "$out/shsbench.txt"
go run ./examples/quickstart > "$out/quickstart.txt"
go run ./examples/converged > "$out/converged.txt"
