package harness

import (
	"bytes"
	"strings"
	"testing"

	"github.com/caps-sim/shs-k8s/internal/metrics"
	"github.com/caps-sim/shs-k8s/internal/osu"
)

// fastCommOpts shrinks sizes/iterations so unit tests stay quick; the full
// sweeps are `shsbench -exp comm`.
func fastCommOpts(kind BenchKind, mode CommMode) CommOptions {
	o := DefaultCommOptions(kind, mode)
	o.Runs = 3
	o.OSU.Sizes = []int{1, 1024, 65536, 1 << 20}
	if kind == BenchBw {
		o.OSU.Iterations, o.OSU.Warmup = 10, 2
	} else {
		o.OSU.Iterations, o.OSU.Warmup = 50, 5
	}
	return o
}

func fastCommFigure(t *testing.T, kind BenchKind, seed int64) *CommFigure {
	t.Helper()
	fig := &CommFigure{Kind: kind}
	for _, m := range []struct {
		mode CommMode
		dst  **CommSeries
	}{{ModeHost, &fig.Host}, {ModeVNITrue, &fig.VNITrue}, {ModeVNIFalse, &fig.VNIFalse}} {
		opts := fastCommOpts(kind, m.mode)
		opts.Seed = seed
		s, err := RunComm(opts)
		if err != nil {
			t.Fatal(err)
		}
		*m.dst = s
	}
	return fig
}

// TestCommOverheadWithinOnePercent is the single-seed form of the
// fig6_bw_overhead and fig8_latency_overhead rows of TestPaperClaims.
func TestCommOverheadWithinOnePercent(t *testing.T) {
	// The paper's §IV-A claim: "The observed overhead is negligible and
	// remains within 1%" for both integration modes, both metrics.
	for _, kind := range []BenchKind{BenchBw, BenchLatency} {
		fig := fastCommFigure(t, kind, 1)
		if ovh := maxAbsOverheadPct(fig); ovh > 1.5 {
			t.Errorf("%s: max overhead of vni:true and vni:false %.2f%%, paper claims ≤1%%", kind, ovh)
		}
	}
}

func TestCommAllModesSameRegime(t *testing.T) {
	fig := fastCommFigure(t, BenchBw, 1)
	for _, size := range fig.Host.Sizes {
		h := metrics.Mean(fig.Host.ByRun[size])
		for _, s := range []*CommSeries{fig.VNITrue, fig.VNIFalse} {
			v := metrics.Mean(s.ByRun[size])
			if v < h*0.9 || v > h*1.1 {
				t.Errorf("size %d: %s = %.1f vs host %.1f", size, s.Mode, v, h)
			}
		}
	}
}

func TestCommHostModeMatchesOSURegime(t *testing.T) {
	s, err := RunComm(fastCommOpts(BenchLatency, ModeHost))
	if err != nil {
		t.Fatal(err)
	}
	small := metrics.Mean(s.ByRun[1])
	if small < 1 || small > 4 {
		t.Errorf("1B latency = %.2f µs, want ~2 µs", small)
	}
}

func TestRenderCommFigures(t *testing.T) {
	fig := fastCommFigure(t, BenchBw, 1)
	var buf bytes.Buffer
	RenderCommValues(&buf, fig, "MB/s")
	out := buf.String()
	if !strings.Contains(out, "1 MB") || !strings.Contains(out, "vni:true") {
		t.Errorf("values table malformed:\n%s", out)
	}
	buf.Reset()
	RenderCommOverhead(&buf, fig)
	if !strings.Contains(buf.String(), "%") {
		t.Error("overhead table missing percent values")
	}
}

func fastAdmissionOpts(p LoadPattern, vni bool) AdmissionOptions {
	o := DefaultAdmissionOptions(p, vni)
	o.Runs = 1
	o.SpikeJobs = 120
	o.RampPeak = 5
	o.RampSustain = 3
	return o
}

func fastAdmissionFigure(t *testing.T, p LoadPattern) *AdmissionFigure {
	t.Helper()
	fig := &AdmissionFigure{Pattern: p}
	for _, m := range []struct {
		vni bool
		dst **AdmissionResult
	}{{true, &fig.VNITrue}, {false, &fig.VNIFalse}} {
		res, err := RunAdmission(fastAdmissionOpts(p, m.vni))
		if err != nil {
			t.Fatal(err)
		}
		*m.dst = res
	}
	return fig
}

func TestRampAllJobsComplete(t *testing.T) {
	res, err := RunAdmission(fastAdmissionOpts(PatternRamp, true))
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, n := range batchSizes(fastAdmissionOpts(PatternRamp, true)) {
		want += n
	}
	delays := res.Delays()
	if len(delays) != want {
		t.Errorf("completed %d jobs, want %d", len(delays), want)
	}
	for _, d := range delays {
		if d <= 0 {
			t.Fatal("non-positive admission delay")
		}
	}
}

func TestRenderAdmissionFigures(t *testing.T) {
	fig := fastAdmissionFigure(t, PatternRamp)
	var buf bytes.Buffer
	RenderRunningJobs(&buf, fig)
	if !strings.Contains(buf.String(), "# jobs") {
		t.Error("running-jobs table malformed")
	}
	buf.Reset()
	RenderAdmissionDelayPerBatch(&buf, fig)
	if !strings.Contains(buf.String(), "batch") {
		t.Error("per-batch table malformed")
	}
	buf.Reset()
	RenderAdmissionBoxplot(&buf, fig)
	out := buf.String()
	if !strings.Contains(out, "median admission overhead") {
		t.Errorf("boxplot table malformed:\n%s", out)
	}
}

func TestBatchSizesRampShape(t *testing.T) {
	opts := DefaultAdmissionOptions(PatternRamp, false)
	sizes := batchSizes(opts)
	if len(sizes) != 10+10+9 {
		t.Fatalf("ramp batches = %d", len(sizes))
	}
	if sizes[0] != 1 || sizes[9] != 10 || sizes[19] != 10 || sizes[len(sizes)-1] != 1 {
		t.Errorf("ramp shape wrong: %v", sizes)
	}
	spike := batchSizes(DefaultAdmissionOptions(PatternSpike, false))
	if len(spike) != 1 || spike[0] != 500 {
		t.Errorf("spike batches = %v", spike)
	}
}

func TestRenderTable1(t *testing.T) {
	var buf bytes.Buffer
	RenderTable1(&buf)
	out := buf.String()
	for _, want := range []string{"k3s", "libfabric", "OSU", "†"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestDefaultOptionsMatchPaper(t *testing.T) {
	bw := DefaultCommOptions(BenchBw, ModeHost)
	if bw.Runs != 10 {
		t.Errorf("bw runs = %d, paper uses 10", bw.Runs)
	}
	if lat := DefaultCommOptions(BenchLatency, ModeHost); lat.Runs != 25 {
		t.Errorf("latency runs = %d, paper uses 25", lat.Runs)
	}
	ramp := DefaultAdmissionOptions(PatternRamp, true)
	if ramp.Runs != 5 || ramp.RampPeak != 10 || ramp.RampSustain != 10 {
		t.Errorf("ramp opts = %+v, paper: 5 runs, peak 10, sustain 10", ramp)
	}
	spike := DefaultAdmissionOptions(PatternSpike, true)
	if spike.SpikeJobs != 500 {
		t.Errorf("spike jobs = %d, paper uses 500", spike.SpikeJobs)
	}
	if len(osu.DefaultSizes()) != 21 {
		t.Error("size sweep should span 1B..1MB")
	}
}

// TestOverlayComparisonSupportsPaperPremise checks the comparison's table;
// the §II-D factors themselves are rows of TestPaperClaims.
func TestOverlayComparisonSupportsPaperPremise(t *testing.T) {
	rows, err := RunOverlayComparison(1, []int{8, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	RenderOverlayComparison(&buf, rows)
	if !strings.Contains(buf.String(), "rdma") {
		t.Error("render malformed")
	}
}
