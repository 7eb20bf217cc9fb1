package osu

import (
	"testing"

	"github.com/caps-sim/shs-k8s/internal/cxi"
	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/libfabric"
	"github.com/caps-sim/shs-k8s/internal/mpi"
	"github.com/caps-sim/shs-k8s/internal/nsmodel"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

func newComm(t *testing.T, seed int64) (*sim.Engine, *mpi.Comm) {
	t.Helper()
	eng := sim.NewEngine(seed)
	kern := nsmodel.NewKernel()
	sw := fabric.NewSwitch("s", eng, fabric.DefaultConfig())
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
	comm, err := mpi.Connect(eng, da, db)
	if err != nil {
		t.Fatal(err)
	}
	return eng, comm
}

func smallOpts(base Options) Options {
	base.Sizes = []int{1, 64, 4096, 65536, 1 << 20}
	base.Iterations = 20
	base.Warmup = 2
	return base
}

func TestBandwidthCurveShape(t *testing.T) {
	eng, comm := newComm(t, 1)
	var pts []Point
	Bandwidth(eng, comm, smallOpts(DefaultBwOptions()), func(p []Point) { pts = p })
	eng.Run()
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	// Monotone non-decreasing bandwidth with message size.
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value {
			t.Errorf("bw not monotone: %v", pts)
			break
		}
	}
	// Regime checks against the paper's Figure 5: single-digit MB/s at
	// 1 B, >10 GB/s at 1 MB (line rate 200 Gbps = 25 GB/s ceiling).
	if pts[0].Value < 0.5 || pts[0].Value > 20 {
		t.Errorf("bw(1B) = %.2f MB/s, expected O(1) MB/s", pts[0].Value)
	}
	last := pts[len(pts)-1].Value
	if last < 10000 || last > 25000 {
		t.Errorf("bw(1MB) = %.0f MB/s, expected 10-25 GB/s", last)
	}
}

func TestLatencyCurveShape(t *testing.T) {
	eng, comm := newComm(t, 1)
	var pts []Point
	Latency(eng, comm, smallOpts(DefaultLatencyOptions()), func(p []Point) { pts = p })
	eng.Run()
	if len(pts) != 5 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value < pts[i-1].Value {
			t.Errorf("latency not monotone: %v", pts)
			break
		}
	}
	// Paper Figure 7 regime: ~2 µs small-message latency, ~100 µs at 1 MB.
	if pts[0].Value < 1.0 || pts[0].Value > 4.0 {
		t.Errorf("latency(1B) = %.2f µs, expected ~2 µs", pts[0].Value)
	}
	last := pts[len(pts)-1].Value
	if last < 50 || last > 200 {
		t.Errorf("latency(1MB) = %.1f µs, expected ~100 µs", last)
	}
}

func TestRunToRunJitterWithinOnePercent(t *testing.T) {
	// The paper attributes its ≤1% overhead to run-to-run variability;
	// two seeds must differ but stay within a few percent.
	run := func(seed int64) []Point {
		eng, comm := newComm(t, seed)
		var pts []Point
		opts := smallOpts(DefaultBwOptions())
		Bandwidth(eng, comm, opts, func(p []Point) { pts = p })
		eng.Run()
		return pts
	}
	a, b := run(1), run(2)
	differ := false
	for i := range a {
		rel := (a[i].Value - b[i].Value) / a[i].Value
		if rel < 0 {
			rel = -rel
		}
		if rel > 0.05 {
			t.Errorf("size %d: runs differ by %.1f%%", a[i].Size, rel*100)
		}
		if a[i].Value != b[i].Value {
			differ = true
		}
	}
	if !differ {
		t.Error("different seeds produced identical curves — jitter absent")
	}
}

func TestDefaultSizes(t *testing.T) {
	s := DefaultSizes()
	if s[0] != 1 || s[len(s)-1] != 1<<20 || len(s) != 21 {
		t.Errorf("sizes = %v", s)
	}
}

func TestBiBandwidthExceedsUnidirectional(t *testing.T) {
	run := func(bi bool) float64 {
		eng, comm := newComm(t, 3)
		opts := DefaultBwOptions()
		opts.Sizes = []int{1 << 20}
		opts.Iterations, opts.Warmup = 10, 2
		var pts []Point
		if bi {
			BiBandwidth(eng, comm, opts, func(p []Point) { pts = p })
		} else {
			Bandwidth(eng, comm, opts, func(p []Point) { pts = p })
		}
		eng.Run()
		if len(pts) != 1 {
			t.Fatalf("points = %d", len(pts))
		}
		return pts[0].Value
	}
	uni := run(false)
	bi := run(true)
	// Full duplex: bidirectional bandwidth should approach 2x.
	if bi < uni*1.5 {
		t.Errorf("bibw = %.0f MB/s vs bw %.0f MB/s — links not full duplex?", bi, uni)
	}
	if bi > uni*2.2 {
		t.Errorf("bibw = %.0f MB/s exceeds 2x line rate", bi)
	}
}
