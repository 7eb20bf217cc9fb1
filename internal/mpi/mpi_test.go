package mpi

import (
	"strings"
	"testing"

	"github.com/caps-sim/shs-k8s/internal/cxi"
	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/libfabric"
	"github.com/caps-sim/shs-k8s/internal/nsmodel"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

func newComm(t *testing.T, seed int64) (*sim.Engine, *Comm) {
	t.Helper()
	eng := sim.NewEngine(seed)
	kern := nsmodel.NewKernel()
	fcfg := fabric.DefaultConfig()
	sw := fabric.NewSwitch("s", eng, fcfg)
	devA := cxi.NewDevice("cxi0", eng, kern, sw, cxi.DefaultDeviceConfig())
	devB := cxi.NewDevice("cxi1", eng, kern, sw, cxi.DefaultDeviceConfig())
	pa, _ := kern.Spawn("rank0", 0, 0, 0, 0)
	pb, _ := kern.Spawn("rank1", 0, 0, 0, 0)
	da, err := libfabric.OpenDomain(eng, libfabric.Info{Device: devA, Caller: pa.PID, VNI: 1, TC: fabric.TCDedicated})
	if err != nil {
		t.Fatal(err)
	}
	db, err := libfabric.OpenDomain(eng, libfabric.Info{Device: devB, Caller: pb.PID, VNI: 1, TC: fabric.TCDedicated})
	if err != nil {
		t.Fatal(err)
	}
	comm, err := Connect(eng, da, db)
	if err != nil {
		t.Fatal(err)
	}
	return eng, comm
}

func TestConnectRequiresTwoRanks(t *testing.T) {
	eng := sim.NewEngine(1)
	if _, err := Connect(eng); err != ErrRankCount {
		t.Errorf("err = %v", err)
	}
}

func TestSendRecvMatch(t *testing.T) {
	eng, comm := newComm(t, 1)
	got := -1
	comm.Ranks[1].Recv(func(size int) { got = size })
	eng.After(0, func() { comm.Ranks[0].Isend(4096, nil) })
	eng.Run()
	if got != 4096 {
		t.Errorf("recv size = %d", got)
	}
}

func TestUnexpectedMessageQueued(t *testing.T) {
	eng, comm := newComm(t, 1)
	// Send before the receive is posted: the message must queue.
	eng.After(0, func() { comm.Ranks[0].Isend(128, nil) })
	eng.Run()
	got := -1
	comm.Ranks[1].Recv(func(size int) { got = size })
	eng.Run()
	if got != 128 {
		t.Errorf("unexpected-queue recv = %d", got)
	}
}

func TestMessageOrderPreserved(t *testing.T) {
	eng, comm := newComm(t, 1)
	var got []int
	for i := 0; i < 3; i++ {
		comm.Ranks[1].Recv(func(size int) { got = append(got, size) })
	}
	eng.After(0, func() {
		comm.Ranks[0].Isend(1, nil)
		comm.Ranks[0].Isend(2, nil)
		comm.Ranks[0].Isend(3, nil)
	})
	eng.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
}

func TestPingPong(t *testing.T) {
	eng, comm := newComm(t, 1)
	rtts := 0
	const rounds = 10
	var round func()
	round = func() {
		if rtts >= rounds {
			return
		}
		comm.Ranks[1].Recv(func(sz int) { comm.Ranks[1].Isend(sz, nil) })
		comm.Ranks[0].SendRecv(64, func(int) {
			rtts++
			round()
		})
	}
	eng.After(0, round)
	eng.Run()
	if rtts != rounds {
		t.Errorf("completed %d rounds, want %d", rtts, rounds)
	}
	// RTT sanity: 10 rounds of 64 B should take microseconds, not millis.
	if eng.Now().Seconds() > 0.001 {
		t.Errorf("10 pingpongs took %v — latency model off", eng.Now())
	}
}

func TestIsendCompletionFires(t *testing.T) {
	eng, comm := newComm(t, 1)
	completed := false
	comm.Ranks[1].Recv(func(int) {})
	eng.After(0, func() { comm.Ranks[0].Isend(1<<20, func() { completed = true }) })
	eng.Run()
	if !completed {
		t.Error("completion never fired")
	}
}

// TestRecvFromNonexistentRankPanics: a receive naming a rank outside the
// communicator can never match, so it panics as SendTo does instead of
// hanging the rank; AnySource is not such a rank.
func TestRecvFromNonexistentRankPanics(t *testing.T) {
	_, comm := newCommN(t, 1, 3)
	for _, src := range []int{-2, 3, 1 << 20} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RecvFrom(%d) on a 3-rank communicator did not panic", src)
				}
			}()
			comm.Ranks[0].RecvFrom(src, func(int) {})
		}()
	}
	comm.Ranks[0].RecvFrom(AnySource, func(int) {})
	comm.Ranks[0].RecvFrom(2, func(int) {})
}

// TestRankLookupMatchesMap holds the dense rank table against the map it
// replaced (address → rank, AnySource when absent), over every address
// on a grid of NICs and endpoint indexes around the members. The
// communicators are chosen so the grid has two ranks on one NIC, a
// non-member endpoint between members of a NIC, indexes past a NIC's row,
// a NIC past the table, and a member on the lowest endpoint index, as
// rank 0 and as the last rank.
func TestRankLookupMatchesMap(t *testing.T) {
	eng := sim.NewEngine(1)
	kern := nsmodel.NewKernel()
	sw := fabric.NewSwitch("s", eng, fabric.DefaultConfig())
	devA := cxi.NewDevice("cxi0", eng, kern, sw, cxi.DefaultDeviceConfig())
	devB := cxi.NewDevice("cxi1", eng, kern, sw, cxi.DefaultDeviceConfig())
	open := func(dev *cxi.Device) *libfabric.Domain {
		p, err := kern.Spawn("rank", 0, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		d, err := libfabric.OpenDomain(eng, libfabric.Info{Device: dev, Caller: p.PID, VNI: 1, TC: fabric.TCDedicated})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a1, a2, a3 := open(devA), open(devA), open(devA) // endpoint indexes 1, 2, 3 on devA
	b1, b2 := open(devB), open(devB)
	if a1.Addr().EP != 1 || b1.Addr().EP != 1 {
		t.Fatalf("first endpoints at %v and %v, want index 1", a1.Addr(), b1.Addr())
	}
	maxNIC := max(devA.Addr(), devB.Addr())
	for _, members := range [][]*libfabric.Domain{
		{a1, b1, a3, b2}, // a2 a non-member between members of devA; rank 0 on index 1
		{a3, b2, a1},     // the last rank on index 1; devB's index 1 a non-member
		{b1, a2},
	} {
		c, err := Connect(eng, members...)
		if err != nil {
			t.Fatal(err)
		}
		oracle := make(map[libfabric.Addr]int)
		for i, d := range members {
			oracle[d.Addr()] = i
		}
		for nic := fabric.Addr(0); nic <= maxNIC+2; nic++ {
			for ep := -2; ep <= 5; ep++ {
				a := libfabric.Addr{NIC: nic, EP: ep}
				want, ok := oracle[a]
				if !ok {
					want = AnySource
				}
				if got := c.rankOf(a); got != want {
					t.Errorf("members %v: rank of %v = %d, the map says %d", c.addrs, a, got, want)
				}
			}
		}
	}
	if _, err := Connect(eng, a1, b1, a1); err == nil || !strings.Contains(err.Error(), "ranks 0 and 2 share address") {
		t.Errorf("a repeated address: err = %v, want ranks 0 and 2 named", err)
	}
}
