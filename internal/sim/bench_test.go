package sim_test

// Thin wrappers so the canonical event-core benchmarks (internal/perfsuite)
// run under `go test -bench` here; Engine_Schedule is also the repository
// benchmark's sim.schedule_ns isolate.

import (
	"math/rand"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/perfsuite"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

func BenchmarkEngine_Schedule(b *testing.B)    { perfsuite.EngineSchedule(b) }
func BenchmarkEngine_CancelHeavy(b *testing.B) { perfsuite.EngineCancelHeavy(b) }

// The hold model is the classic priority-queue benchmark: keep the queue
// at a fixed depth, and per op retire the earliest event and schedule a new
// one a random increment later. Engine_Schedule runs at depth one, where a
// pop costs nothing, which is how the queue's share of a packet-fidelity
// run went unseen; these run at the depths measured in the repository
// benchmark: 9–16 pending events on the flow fast path, 283–520 in a
// packet-fidelity collective, thousands in the control-plane workloads.
func BenchmarkEngine_Hold16(b *testing.B)   { benchHold(b, 16) }
func BenchmarkEngine_Hold300(b *testing.B)  { benchHold(b, 300) }
func BenchmarkEngine_Hold4000(b *testing.B) { benchHold(b, 4000) }

func benchHold(b *testing.B, depth int) {
	eng := sim.NewEngine(1)
	// Increments from a table, so the op measures the queue and not the
	// generator; exponential, the hold model's usual choice.
	rng := rand.New(rand.NewSource(1))
	incr := make([]time.Duration, 1<<12)
	for i := range incr {
		incr[i] = time.Duration(rng.ExpFloat64() * float64(time.Microsecond))
	}
	next := 0
	var hold func()
	hold = func() {
		eng.After(incr[next&(len(incr)-1)], hold)
		next++
	}
	for i := 0; i < depth; i++ {
		hold()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
	if eng.Pending() != depth {
		b.Fatalf("queue depth drifted to %d, want %d", eng.Pending(), depth)
	}
}
