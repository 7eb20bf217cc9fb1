package mpi

import (
	"fmt"
	"testing"

	"github.com/caps-sim/shs-k8s/internal/cxi"
	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/libfabric"
	"github.com/caps-sim/shs-k8s/internal/nsmodel"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

// newCommN builds an n-rank communicator with one NIC per rank on a single
// switch.
func newCommN(t *testing.T, seed int64, n int) (*sim.Engine, *Comm) {
	t.Helper()
	eng := sim.NewEngine(seed)
	kern := nsmodel.NewKernel()
	sw := fabric.NewSwitch("s", eng, fabric.DefaultConfig())
	var doms []*libfabric.Domain
	for i := 0; i < n; i++ {
		dev := cxi.NewDevice(fmt.Sprintf("cxi%d", i), eng, kern, sw, cxi.DefaultDeviceConfig())
		proc, err := kern.Spawn(fmt.Sprintf("rank%d", i), 0, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		d, err := libfabric.OpenDomain(eng, libfabric.Info{Device: dev, Caller: proc.PID, VNI: 1, TC: fabric.TCDedicated})
		if err != nil {
			t.Fatal(err)
		}
		doms = append(doms, d)
	}
	comm, err := Connect(eng, doms...)
	if err != nil {
		t.Fatal(err)
	}
	return eng, comm
}

// collectives under test: name, runner, closed-form total bytes.
var collectiveCases = []struct {
	name  string
	run   func(c *Comm, size int, done func())
	bytes func(n, size int) uint64
}{
	{"allreduce-ring", (*Comm).AllreduceRing, AllreduceRingBytes},
	{"allreduce-rd", (*Comm).AllreduceRecursiveDoubling, AllreduceRecursiveDoublingBytes},
	{"alltoall", (*Comm).AlltoallPairwise, AlltoallPairwiseBytes},
	{"halo", (*Comm).HaloExchange, HaloExchangeBytes},
}

// TestCollectivesConverge runs every collective over a spread of rank
// counts — including non-powers of two — and requires that done fires for
// every rank (the engine drains with the completion seen) in nonzero
// virtual time.
func TestCollectivesConverge(t *testing.T) {
	for _, tc := range collectiveCases {
		for _, n := range []int{2, 3, 4, 5, 8} {
			t.Run(fmt.Sprintf("%s/n%d", tc.name, n), func(t *testing.T) {
				eng, comm := newCommN(t, 1, n)
				finished := false
				eng.After(0, func() { tc.run(comm, 4096, func() { finished = true }) })
				eng.Run()
				if !finished {
					t.Fatal("collective never completed")
				}
				if eng.Now() == 0 {
					t.Error("collective completed in zero virtual time")
				}
				if eng.Pending() != 0 {
					t.Errorf("%d events still pending after completion", eng.Pending())
				}
			})
		}
	}
}

// TestCollectiveByteCounts checks that each algorithm moves exactly the
// closed-form payload volume, including sizes that do not divide evenly
// into ring chunks.
func TestCollectiveByteCounts(t *testing.T) {
	for _, tc := range collectiveCases {
		for _, n := range []int{2, 3, 4, 7} {
			for _, size := range []int{1000, 4096, 65536 + 13} {
				t.Run(fmt.Sprintf("%s/n%d/size%d", tc.name, n, size), func(t *testing.T) {
					eng, comm := newCommN(t, 1, n)
					done := false
					eng.After(0, func() { tc.run(comm, size, func() { done = true }) })
					eng.Run()
					if !done {
						t.Fatal("collective never completed")
					}
					if got, want := comm.BytesSent(), tc.bytes(n, size); got != want {
						t.Errorf("moved %d bytes, closed form says %d", got, want)
					}
				})
			}
		}
	}
}

// TestCollectivesDeterministic runs the same collective twice with one
// seed and once with another: identical seeds must produce bit-identical
// completion times, and the distinct seed must still converge.
func TestCollectivesDeterministic(t *testing.T) {
	for _, tc := range collectiveCases {
		t.Run(tc.name, func(t *testing.T) {
			elapsed := func(seed int64) sim.Time {
				eng, comm := newCommN(t, seed, 5)
				done := false
				eng.After(0, func() { tc.run(comm, 32768, func() { done = true }) })
				eng.Run()
				if !done {
					t.Fatal("collective never completed")
				}
				return eng.Now()
			}
			a, b := elapsed(42), elapsed(42)
			if a != b {
				t.Errorf("same seed, different completion times: %v vs %v", a, b)
			}
			if c := elapsed(7); c <= 0 {
				t.Errorf("seed 7 run finished at %v", c)
			}
		})
	}
}

// TestBarrier completes on non-power-of-two communicators and moves no
// payload bytes.
func TestBarrier(t *testing.T) {
	eng, comm := newCommN(t, 1, 6)
	done := false
	eng.After(0, func() { comm.Barrier(func() { done = true }) })
	eng.Run()
	if !done {
		t.Fatal("barrier never completed")
	}
	if comm.BytesSent() != 0 {
		t.Errorf("barrier moved %d payload bytes", comm.BytesSent())
	}
}

// TestRecvFromSourceMatching posts two source-matched receives in the
// opposite order of the arrivals: matching must be by source rank, not
// arrival order.
func TestRecvFromSourceMatching(t *testing.T) {
	eng, comm := newCommN(t, 1, 3)
	r0 := comm.Ranks[0]
	var from1, from2 int
	eng.After(0, func() {
		comm.Ranks[1].SendTo(0, 111, nil)
		comm.Ranks[2].SendTo(0, 222, nil)
	})
	eng.Run() // both messages are now on rank 0's unexpected queue
	r0.RecvFrom(2, func(size int) { from2 = size })
	r0.RecvFrom(1, func(size int) { from1 = size })
	eng.Run()
	if from1 != 111 || from2 != 222 {
		t.Errorf("source matching failed: from1=%d from2=%d", from1, from2)
	}
}

// TestWildcardRecvStillMatches keeps the AnySource path of the 2-rank OSU
// benchmarks working on larger communicators.
func TestWildcardRecvStillMatches(t *testing.T) {
	eng, comm := newCommN(t, 1, 4)
	got := 0
	comm.Ranks[0].Recv(func(size int) { got = size })
	eng.After(0, func() { comm.Ranks[3].SendTo(0, 777, nil) })
	eng.Run()
	if got != 777 {
		t.Errorf("wildcard recv got %d", got)
	}
}

// TestIsendNeedsTwoRanks pins the 2-rank-only contract of the OSU
// point-to-point API.
func TestIsendNeedsTwoRanks(t *testing.T) {
	_, comm := newCommN(t, 1, 3)
	defer func() {
		if recover() == nil {
			t.Error("Isend on a 3-rank communicator did not panic")
		}
	}()
	comm.Ranks[0].Isend(1, nil)
}

// TestMatchedEntriesAreNotRetained: once a collective has completed, no
// slot of any rank's matching queues — including the spare capacity past
// len, where a splice used to leave a stale copy — may still hold a
// receive continuation or a message, or a finished collective's closures
// stay reachable from the Rank until a later post happens to overwrite
// them.
func TestMatchedEntriesAreNotRetained(t *testing.T) {
	for _, tc := range collectiveCases {
		t.Run(tc.name, func(t *testing.T) {
			eng, comm := newCommN(t, 1, 5)
			finished := false
			eng.After(0, func() { tc.run(comm, 1<<16, func() { finished = true }) })
			eng.Run()
			if !finished {
				t.Fatal("collective never completed")
			}
			for _, r := range comm.Ranks {
				for i, p := range r.pending[:cap(r.pending)] {
					if p.fn != nil {
						t.Errorf("rank %d: pending slot %d of %d still holds a continuation", r.id, i, cap(r.pending))
					}
				}
				for i, m := range r.unexpected[:cap(r.unexpected)] {
					if m != (inMsg{}) {
						t.Errorf("rank %d: unexpected slot %d of %d still holds %+v", r.id, i, cap(r.unexpected), m)
					}
				}
			}
		})
	}
}
