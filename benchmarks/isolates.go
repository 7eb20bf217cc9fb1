package main

import (
	"flag"
	"fmt"
	"testing"

	"github.com/caps-sim/shs-k8s/internal/perfsuite"
	"github.com/caps-sim/shs-k8s/internal/vnidb"
)

// findByOwner times one read transaction looking up an allocated owner in a
// database pre-filled with `rows` allocations. With rows at 500 and 5000 it
// puts a number on how the control plane's per-job lookup cost grows with
// the working set (admission_spike500 against cp_pods5000).
func findByOwner(rows int) func(b *testing.B) {
	return func(b *testing.B) {
		db := vnidb.Open(vnidb.DefaultOptions())
		owners := make([]string, rows)
		err := db.Update(func(tx *vnidb.Tx) error {
			for i := range owners {
				owners[i] = fmt.Sprintf("owner-%05d", i)
				if _, err := tx.Acquire(owners[i], 0); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			found := false
			_ = db.View(func(tx *vnidb.Tx) error { // the callback returns nil and the DB is open
				_, found = tx.FindByOwner(owners[i%rows])
				return nil
			})
			if !found {
				b.Fatalf("owner %s not found", owners[i%rows])
			}
		}
	}
}

// runIsolates times single layers directly at their public API, each for
// benchtime (a testing -benchtime value), and returns ns (or us) per
// operation under the isolate metric names.
func runIsolates(benchtime string) (map[string]metricValue, error) {
	testing.Init() // registers -test.benchtime; idempotent
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, err
	}
	cases := []struct {
		name    string
		perUnit float64 // ns per reported unit
		bench   func(b *testing.B)
	}{
		{"sim.schedule_ns", 1, perfsuite.EngineSchedule},
		{"fabric.packet_ns", 1, perfsuite.FabricGroups(4)},
		{"fabric.flow_ns", 1, perfsuite.FabricFleet(16, 4, 8)},
		{"k8s.placement_us", 1e3, perfsuite.SchedulerPlacement},
		{"vnidb.find_owner_ns_rows500", 1, findByOwner(500)},
		{"vnidb.find_owner_ns_rows5000", 1, findByOwner(5000)},
	}
	out := map[string]metricValue{}
	for _, c := range cases {
		r := testing.Benchmark(c.bench)
		if r.N == 0 {
			return nil, fmt.Errorf("layer isolate %s failed", c.name)
		}
		out[c.name] = metricValue{float64(r.T.Nanoseconds()) / float64(r.N) / c.perUnit, r.N}
	}
	return out, nil
}
