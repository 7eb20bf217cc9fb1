package harness

import (
	"fmt"
	"math"
	"testing"

	"github.com/caps-sim/shs-k8s/internal/metrics"
	"github.com/caps-sim/shs-k8s/internal/workload"
)

// claimSeeds is how many seeds every claim must hold at: seeds 1..8. One
// seed is not enough — at one run per seed the ramp's median admission
// overhead spans −3 % to 7 % over these seeds.
const claimSeeds = 8

// band is the interval a claim's measure must fall in; an open band
// excludes its ends.
type band struct {
	lo, hi float64
	open   bool
}

func atLeast(x float64) band      { return band{lo: x, hi: math.Inf(1)} }
func atMost(x float64) band       { return band{lo: math.Inf(-1), hi: x} }
func exactly(x float64) band      { return band{lo: x, hi: x} }
func between(lo, hi float64) band { return band{lo: lo, hi: hi, open: true} }

func (b band) holds(v float64) bool {
	if b.open {
		return v > b.lo && v < b.hi
	}
	return v >= b.lo && v <= b.hi
}

func (b band) String() string {
	switch {
	case b.open:
		return fmt.Sprintf("(%g, %g)", b.lo, b.hi)
	case b.lo == b.hi:
		return fmt.Sprintf("= %g", b.lo)
	case math.IsInf(b.hi, 1):
		return fmt.Sprintf("≥ %g", b.lo)
	default:
		return fmt.Sprintf("≤ %g", b.hi)
	}
}

// seedRun is everything the claims read at one seed. Each experiment runs
// once per seed; the Fig 9, 11 and 12 rows share the admission runs.
type seedRun struct {
	bw, lat     *CommFigure
	ramp, spike *AdmissionFigure
	overlay     []OverlayCmpRow // at 8 B and 1 MiB
	tcP50       map[string]float64
	collectives []CollectiveRow
}

// runSeed measures every experiment the claims read. The repetition
// counts are the fewest at which every band holds at every seed: the
// admission experiments run at the paper's sizes with 2 runs per mode
// (the reduced 120-job spike dips below 0 % overhead), the comm figures at
// fastCommOpts with 3 runs (1 run reaches 1.5 %).
func runSeed(t *testing.T, seed int64) *seedRun {
	t.Helper()
	r := &seedRun{
		bw:  fastCommFigure(t, BenchBw, seed),
		lat: fastCommFigure(t, BenchLatency, seed),
	}
	var err error
	if r.ramp, err = RunAdmissionFigure(PatternRamp, 2, seed); err != nil {
		t.Fatal(err)
	}
	if r.spike, err = RunAdmissionFigure(PatternSpike, 2, seed); err != nil {
		t.Fatal(err)
	}
	if r.overlay, err = RunOverlayComparison(seed, []int{8, 1 << 20}); err != nil {
		t.Fatal(err)
	}
	tc := DefaultTCOptions()
	tc.Seed, tc.Pings = seed, 100
	res, err := RunTrafficClassExperiment(tc)
	if err != nil {
		t.Fatal(err)
	}
	r.tcP50 = map[string]float64{}
	for _, row := range res {
		r.tcP50[row.Scenario] = row.LatencyUs.P50
	}
	cfg := DefaultCollectivesConfig()
	cfg.Sizes, cfg.Iterations, cfg.Seed = []int{64 << 10}, 3, seed
	if r.collectives, err = RunCollectivesSweep(cfg); err != nil {
		t.Fatal(err)
	}
	return r
}

// maxAbsOverheadPct is the largest |mean overhead| (%) of vni:true and
// vni:false against the host mean, over every size: the paper's "within
// 1%" reading of Figures 6 and 8.
func maxAbsOverheadPct(fig *CommFigure) float64 {
	worst := 0.0
	for _, s := range []*CommSeries{fig.VNITrue, fig.VNIFalse} {
		for _, size := range fig.Host.Sizes {
			base := metrics.Mean(fig.Host.ByRun[size])
			worst = math.Max(worst, math.Abs(metrics.OverheadPct(metrics.Mean(s.ByRun[size]), base)))
		}
	}
	return worst
}

// admissionLag is the smaller, over both modes, of the peak mean batch
// delay divided by the first batch's: Figure 9's queueing growth.
func admissionLag(fig *AdmissionFigure) float64 {
	lag := math.Inf(1)
	for _, res := range []*AdmissionResult{fig.VNITrue, fig.VNIFalse} {
		byBatch := res.DelaysByBatch()
		peak := 0.0
		for _, ds := range byBatch {
			peak = math.Max(peak, metrics.Mean(ds))
		}
		lag = math.Min(lag, peak/metrics.Mean(byBatch[0]))
	}
	return lag
}

// spikeBacklog is the smaller, over both modes, of the most jobs running
// at any sample of any run: Figure 11's backlog.
func spikeBacklog(fig *AdmissionFigure) float64 {
	backlog := math.Inf(1)
	for _, res := range []*AdmissionResult{fig.VNITrue, fig.VNIFalse} {
		peak := 0
		for _, run := range res.Runs {
			for _, s := range run.Samples {
				peak = max(peak, s.Running)
			}
		}
		backlog = math.Min(backlog, float64(peak))
	}
	return backlog
}

// spikeLeftRunning is the most jobs any run of either mode still had
// running at its last sample.
func spikeLeftRunning(fig *AdmissionFigure) float64 {
	left := 0
	for _, res := range []*AdmissionResult{fig.VNITrue, fig.VNIFalse} {
		for _, run := range res.Runs {
			left = max(left, run.Samples[len(run.Samples)-1].Running)
		}
	}
	return float64(left)
}

// batchColumnGap is the largest gap, over every run of both patterns in
// both modes, between the "# jobs" column's sum and the jobs the run
// submitted: each batch must show in exactly one sample.
func batchColumnGap(figs ...*AdmissionFigure) float64 {
	gap := 0
	for _, fig := range figs {
		for _, res := range []*AdmissionResult{fig.VNITrue, fig.VNIFalse} {
			for _, run := range res.Runs {
				sum := 0
				for _, s := range run.Samples {
					sum += s.BatchSize
				}
				gap = max(gap, abs(sum-len(run.Jobs)))
			}
		}
	}
	return float64(gap)
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

// medianOverheadPct is Figure 12's headline: the vni:true median
// admission delay's overhead over the vni:false median.
func medianOverheadPct(fig *AdmissionFigure) float64 {
	return metrics.OverheadPct(metrics.Median(fig.VNITrue.Delays()), metrics.Median(fig.VNIFalse.Delays()))
}

// minSpillSlowdown is the smallest, over every pattern, of the spilled
// placement's completion time divided by the colocated one's.
func minSpillSlowdown(rows []CollectiveRow) float64 {
	colocated := map[workload.Pattern]float64{}
	for _, r := range rows {
		if r.Placement == PlacementColocated {
			colocated[r.Pattern] = float64(r.Report.Elapsed)
		}
	}
	slowdown := math.Inf(1)
	for _, r := range rows {
		if r.Placement == PlacementSpilled {
			slowdown = math.Min(slowdown, float64(r.Report.Elapsed)/colocated[r.Pattern])
		}
	}
	return slowdown
}

// claims is every claim the evaluation makes about its artefacts: what
// shsbench prints for each artefact must show it at every seed.
var claims = []struct {
	name     string // subtest name
	artefact string
	claim    string
	paper    string // the paper's value, or "—" where the paper gives none
	band     band
	unit     string
	measure  func(*seedRun) float64
}{
	{"fig6_bw_overhead", "Fig 6", "max |mean osu_bw overhead| vs host, vni:true and vni:false",
		"within 1 %", atMost(1), " %", func(r *seedRun) float64 { return maxAbsOverheadPct(r.bw) }},
	{"fig8_latency_overhead", "Fig 8", "max |mean osu_latency overhead| vs host, vni:true and vni:false",
		"within 1 %", atMost(1), " %", func(r *seedRun) float64 { return maxAbsOverheadPct(r.lat) }},
	{"fig9_admission_lag", "Fig 9", "ramp: peak mean batch delay ÷ first batch's, both modes",
		"admission lags submission", atLeast(2), "×", func(r *seedRun) float64 { return admissionLag(r.ramp) }},
	{"fig11_spike_backlog", "Fig 11", "spike: peak running jobs of 500, both modes",
		"—", atLeast(300), " jobs", func(r *seedRun) float64 { return spikeBacklog(r.spike) }},
	{"fig11_spike_drained", "Fig 11", "spike: jobs running at the last sample, every run",
		"—", exactly(0), " jobs", func(r *seedRun) float64 { return spikeLeftRunning(r.spike) }},
	{"fig9_11_batch_column", "Figs 9, 11", "# jobs column's sum − jobs submitted, every run of both patterns",
		"—", exactly(0), " jobs", func(r *seedRun) float64 { return batchColumnGap(r.ramp, r.spike) }},
	{"fig12_ramp_overhead", "Fig 12", "ramp: median admission overhead",
		"3.5 %", between(0, 10), " %", func(r *seedRun) float64 { return medianOverheadPct(r.ramp) }},
	{"fig12_spike_overhead", "Fig 12", "spike: median admission overhead",
		"1.6 %", between(0, 5), " %", func(r *seedRun) float64 { return medianOverheadPct(r.spike) }},
	{"overlay_latency", "§II-D", "overlay ÷ RDMA one-way latency at 8 B",
		"prohibitive", atLeast(5), "×", func(r *seedRun) float64 { return r.overlay[0].LatencyFactor() }},
	{"overlay_bandwidth", "§II-D", "RDMA ÷ overlay streaming bandwidth at 1 MiB",
		"prohibitive", atLeast(4), "×", func(r *seedRun) float64 { return r.overlay[1].BandwidthFactor() }},
	{"tc_low_latency", "use-case (1)", "victim p50 latency, ll+bulk ÷ idle",
		"—", atMost(2), "×", func(r *seedRun) float64 { return r.tcP50["ll+bulk"] / r.tcP50["idle"] }},
	{"tc_bulk", "use-case (1)", "victim p50 latency, bulk+bulk ÷ idle",
		"—", atLeast(10), "×", func(r *seedRun) float64 { return r.tcP50["bulk+bulk"] / r.tcP50["idle"] }},
	{"collectives_spill", "collectives", "spilled ÷ colocated time at 64 KiB, every pattern",
		"—", atLeast(2), "×", func(r *seedRun) float64 { return minSpillSlowdown(r.collectives) }},
}

// TestPaperClaims holds every claim of the claims table at seeds 1..8. A
// failure names the row, the seed, the value and the band; -v logs one line
// per row with the range the seeds measured.
func TestPaperClaims(t *testing.T) {
	runs := make([]*seedRun, claimSeeds)
	for i := range runs {
		runs[i] = runSeed(t, int64(i+1))
	}
	for _, c := range claims {
		t.Run(c.name, func(t *testing.T) {
			lo, hi := math.Inf(1), math.Inf(-1)
			for i, r := range runs {
				v := c.measure(r)
				lo, hi = math.Min(lo, v), math.Max(hi, v)
				if !c.band.holds(v) {
					t.Errorf("%s %s: seed %d measures %.3g%s, outside the band %s%s",
						c.artefact, c.claim, i+1, v, c.unit, c.band, c.unit)
				}
			}
			t.Logf("%s %s: paper %s, band %s%s, seeds 1-%d %.3g..%.3g%s",
				c.artefact, c.claim, c.paper, c.band, c.unit, claimSeeds, lo, hi, c.unit)
		})
	}
}
