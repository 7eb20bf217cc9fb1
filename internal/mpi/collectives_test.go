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
func newCommN(t testing.TB, seed int64, n int) (*sim.Engine, *Comm) {
	return newCommShared(t, seed, n, n)
}

// newCommShared builds an n-rank communicator over nics NICs on a single
// switch, rank i on NIC i mod nics: with nics < n, ranks share a NIC and
// are told apart by endpoint index alone.
func newCommShared(t testing.TB, seed int64, n, nics int) (*sim.Engine, *Comm) {
	t.Helper()
	eng := sim.NewEngine(seed)
	kern := nsmodel.NewKernel()
	sw := fabric.NewSwitch("s", eng, fabric.DefaultConfig())
	var devs []*cxi.Device
	var doms []*libfabric.Domain
	for i := 0; i < n; i++ {
		if i < nics {
			devs = append(devs, cxi.NewDevice(fmt.Sprintf("cxi%d", i), eng, kern, sw, cxi.DefaultDeviceConfig()))
		}
		proc, err := kern.Spawn(fmt.Sprintf("rank%d", i), 0, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		d, err := libfabric.OpenDomain(eng, libfabric.Info{Device: devs[i%nics], Caller: proc.PID, VNI: 1, TC: fabric.TCDedicated})
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

// barrierCase is the fifth collective, for the tests that cover Barrier
// too: it moves no payload.
var barrierCase = struct {
	name  string
	run   func(c *Comm, size int, done func())
	bytes func(n, size int) uint64
}{"barrier", func(c *Comm, _ int, done func()) { c.Barrier(done) }, func(int, int) uint64 { return 0 }}

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

// TestCollectivesAllocateNothing: on a warm communicator (free lists,
// event arena and matching queues grown by earlier runs) a collective
// allocates nothing at all, including recursive doubling's fold (n = 6)
// and the halo's four-way join. Each rank's round is built once, at
// Connect; a closure or fan-in counter per call, or a map hash on the
// receive path that allocates, shows here.
func TestCollectivesAllocateNothing(t *testing.T) {
	cases := []struct {
		name string
		n    int
		run  func(c *Comm, done func())
	}{
		{"allreduce-ring/n8", 8, func(c *Comm, done func()) { c.AllreduceRing(1<<16, done) }},
		{"allreduce-rd/n8", 8, func(c *Comm, done func()) { c.AllreduceRecursiveDoubling(1<<16, done) }},
		{"allreduce-rd/n6", 6, func(c *Comm, done func()) { c.AllreduceRecursiveDoubling(1<<16, done) }},
		{"alltoall/n8", 8, func(c *Comm, done func()) { c.AlltoallPairwise(4096, done) }},
		{"halo/n8", 8, func(c *Comm, done func()) { c.HaloExchange(4096, done) }},
		{"barrier/n6", 6, func(c *Comm, done func()) { c.Barrier(done) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, comm := newCommN(t, 1, tc.n)
			fired := 0
			done := func() { fired++ }
			run := func() {
				tc.run(comm, done)
				eng.Run()
			}
			for i := 0; i < 3; i++ {
				run()
			}
			if got := testing.AllocsPerRun(10, run); got != 0 {
				t.Errorf("a warm collective allocates %.1f objects, want 0", got)
			}
			if want := 3 + 11; fired != want { // AllocsPerRun runs once more to warm up
				t.Errorf("done fired %d times over %d collectives", fired, want)
			}
		})
	}
}

// TestOverlappingCollectivePanics: a collective started while another is
// in flight on the same communicator would cross the two's messages (one
// implicit tag) and overwrite the running one's round state, so it
// panics; one started from the previous one's done is not overlapping.
func TestOverlappingCollectivePanics(t *testing.T) {
	eng, comm := newCommN(t, 1, 4)
	comm.AllreduceRing(4096, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a second collective in flight did not panic")
			}
		}()
		comm.Barrier(nil)
	}()
	eng.Run()
	chained := 0
	comm.AllreduceRing(4096, func() {
		chained++
		comm.HaloExchange(128, func() { chained++ })
	})
	eng.Run()
	if chained != 2 {
		t.Errorf("%d of 2 chained collectives completed", chained)
	}
	if want := 2*AllreduceRingBytes(4, 4096) + HaloExchangeBytes(4, 128); comm.BytesSent() != want {
		t.Errorf("moved %d bytes, closed forms say %d", comm.BytesSent(), want)
	}
}

// fuzzSizes are the message sizes FuzzCollectives picks from: empty, odd,
// smaller than the rank count, and a few frames.
var fuzzSizes = []int{0, 1, 7, 1000, 4096, 65536 + 13}

// FuzzCollectives chains up to eight collectives, each started from the
// previous one's done, over a communicator of 2–12 ranks on 1–n NICs (so
// ranks may share a NIC) at packet or flow fidelity. Each byte of ops
// picks a collective (including Barrier) and a size. Every done must fire
// exactly once; at each, BytesSent must equal the sum of the closed forms
// so far and every rank's pending and unexpected queues must be empty.
func FuzzCollectives(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(8), []byte{0, 1, 2, 3, 4}, false)
	f.Add(int64(2), uint8(4), uint8(2), []byte{1, 6, 4, 9}, true)
	f.Add(int64(3), uint8(10), uint8(0), []byte{2, 3, 0, 1, 4, 7, 8, 5}, false)
	f.Add(int64(4), uint8(1), uint8(1), []byte{29, 28, 27, 26, 25}, true)
	ops := append(collectiveCases[:len(collectiveCases):len(collectiveCases)], barrierCase)
	f.Fuzz(func(t *testing.T, seed int64, ranks, nics uint8, picks []byte, flow bool) {
		n := 2 + int(ranks)%11
		eng, comm := newCommShared(t, seed, n, 1+int(nics)%n)
		if flow {
			comm.SetFidelity(fabric.FidelityFlow)
		}
		if len(picks) > 8 {
			picks = picks[:8]
		}
		var want uint64
		fired := make([]int, len(picks))
		var start func(i int)
		start = func(i int) {
			if i == len(picks) {
				return
			}
			op := ops[int(picks[i])%len(ops)]
			size := fuzzSizes[int(picks[i])/len(ops)%len(fuzzSizes)]
			want += op.bytes(n, size)
			op.run(comm, size, func() {
				fired[i]++
				if got := comm.BytesSent(); got != want {
					t.Errorf("after collective %d (%s, %d B): %d bytes sent, closed forms say %d", i, op.name, size, got, want)
				}
				for _, r := range comm.Ranks {
					if len(r.pending) != 0 || len(r.unexpected) != 0 {
						t.Errorf("after collective %d (%s): rank %d holds %d pending receives and %d unexpected messages",
							i, op.name, r.id, len(r.pending), len(r.unexpected))
					}
				}
				start(i + 1)
			})
		}
		eng.After(0, func() { start(0) })
		eng.Run()
		for i, k := range fired {
			if k != 1 {
				t.Errorf("collective %d's done fired %d times, want once", i, k)
			}
		}
	})
}
