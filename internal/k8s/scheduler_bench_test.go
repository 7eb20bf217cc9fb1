package k8s_test

// Thin wrapper so the canonical scheduler-placement benchmark
// (internal/perfsuite, also the repository benchmark's k8s.placement_us
// isolate) runs under `go test -bench` here. It drives the public stack
// API — fleet, control plane, CNI, dragonfly topology.

import (
	"testing"

	"github.com/caps-sim/shs-k8s/internal/perfsuite"
)

func BenchmarkSchedulerPlacement(b *testing.B) { perfsuite.SchedulerPlacement(b) }
