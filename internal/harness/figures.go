package harness

import (
	"fmt"
	"io"
	"sort"

	"github.com/caps-sim/shs-k8s/internal/metrics"
)

// CommFigure bundles the three modes of one communication figure.
type CommFigure struct {
	Kind     BenchKind
	Host     *CommSeries
	VNITrue  *CommSeries
	VNIFalse *CommSeries
}

// RunCommFigure measures all three modes; runs 0 takes the paper's count
// from DefaultCommOptions.
func RunCommFigure(kind BenchKind, runs int, seed int64) (*CommFigure, error) {
	fig := &CommFigure{Kind: kind}
	for _, m := range []struct {
		mode CommMode
		dst  **CommSeries
	}{{ModeHost, &fig.Host}, {ModeVNITrue, &fig.VNITrue}, {ModeVNIFalse, &fig.VNIFalse}} {
		opts := DefaultCommOptions(kind, m.mode)
		if runs > 0 {
			opts.Runs = runs
		}
		opts.Seed = seed
		s, err := RunComm(opts)
		if err != nil {
			return nil, err
		}
		*m.dst = s
	}
	return fig, nil
}

// RenderCommValues writes the Figure 5 / Figure 7 table: mean measured
// value per packet size for each mode.
func RenderCommValues(w io.Writer, fig *CommFigure, unit string) {
	fmt.Fprintf(w, "%-10s %14s %14s %14s   [%s]\n", "size", "host", "vni:false", "vni:true", unit)
	for _, size := range fig.Host.Sizes {
		fmt.Fprintf(w, "%-10s %14.3f %14.3f %14.3f\n",
			metrics.FormatBytes(size),
			metrics.Mean(fig.Host.ByRun[size]),
			metrics.Mean(fig.VNIFalse.ByRun[size]),
			metrics.Mean(fig.VNITrue.ByRun[size]))
	}
}

// RenderCommOverhead writes the Figure 6 / Figure 8 table: per-size mean
// overhead relative to the host mean, with p10/p90 bands, for all three
// lines (the host line shows baseline run-to-run jitter, as in the paper).
func RenderCommOverhead(w io.Writer, fig *CommFigure) {
	fmt.Fprintf(w, "%-10s %28s %28s %28s   [%% vs host mean: mean (p10..p90)]\n",
		"size", "host", "vni:false", "vni:true")
	for _, size := range fig.Host.Sizes {
		base := metrics.Mean(fig.Host.ByRun[size])
		row := func(s *CommSeries) string {
			var ovh []float64
			for _, v := range s.ByRun[size] {
				ovh = append(ovh, metrics.OverheadPct(v, base))
			}
			sum := metrics.Summarize(ovh)
			return fmt.Sprintf("%+6.2f%% (%+6.2f..%+6.2f)", sum.Mean, sum.P10, sum.P90)
		}
		fmt.Fprintf(w, "%-10s %28s %28s %28s\n",
			metrics.FormatBytes(size), row(fig.Host), row(fig.VNIFalse), row(fig.VNITrue))
	}
}

// AdmissionFigure bundles both modes of one admission experiment.
type AdmissionFigure struct {
	Pattern  LoadPattern
	VNITrue  *AdmissionResult
	VNIFalse *AdmissionResult
}

// RunAdmissionFigure measures both modes; runs 0 takes the paper's count
// from DefaultAdmissionOptions.
func RunAdmissionFigure(p LoadPattern, runs int, seed int64) (*AdmissionFigure, error) {
	fig := &AdmissionFigure{Pattern: p}
	for _, m := range []struct {
		vni bool
		dst **AdmissionResult
	}{{true, &fig.VNITrue}, {false, &fig.VNIFalse}} {
		opts := DefaultAdmissionOptions(p, m.vni)
		if runs > 0 {
			opts.Runs = runs
		}
		opts.Seed = seed
		res, err := RunAdmission(opts)
		if err != nil {
			return nil, err
		}
		*m.dst = res
	}
	return fig, nil
}

// runningAt samples the mean running-jobs count across runs at second t.
func runningAt(res *AdmissionResult, sec int) (float64, float64, float64) {
	var vals []float64
	for _, run := range res.Runs {
		v := 0
		for _, s := range run.Samples {
			if int(s.T.Seconds()) == sec {
				v = s.Running
				break
			}
		}
		vals = append(vals, float64(v))
	}
	sum := metrics.Summarize(vals)
	return sum.Mean, sum.P10, sum.P90
}

// maxSampleSecond returns the last sampled second across runs.
func (fig *AdmissionFigure) maxSampleSecond() int {
	max := 0
	for _, res := range []*AdmissionResult{fig.VNITrue, fig.VNIFalse} {
		for _, run := range res.Runs {
			for _, s := range run.Samples {
				if int(s.T.Seconds()) > max {
					max = int(s.T.Seconds())
				}
			}
		}
	}
	return max
}

// RenderRunningJobs writes the Figure 9 / Figure 11 series: running jobs
// over time for both modes, with p10/p90 bands, plus the submitted-jobs-
// per-batch line.
func RenderRunningJobs(w io.Writer, fig *AdmissionFigure) {
	fmt.Fprintf(w, "%-8s %24s %24s %10s\n", "t", "vni:true (p10..p90)", "vni:false (p10..p90)", "# jobs")
	last := fig.maxSampleSecond()
	for sec := 0; sec <= last; sec++ {
		mt, lt, ht := runningAt(fig.VNITrue, sec)
		mf, lf, hf := runningAt(fig.VNIFalse, sec)
		batch := 0
		for _, run := range fig.VNITrue.Runs {
			for _, s := range run.Samples {
				if int(s.T.Seconds()) == sec {
					batch = s.BatchSize
					break
				}
			}
			break
		}
		fmt.Fprintf(w, "%02d:%02d    %7.1f (%5.1f..%5.1f)  %7.1f (%5.1f..%5.1f) %10d\n",
			sec/60, sec%60, mt, lt, ht, mf, lf, hf, batch)
	}
}

// RenderAdmissionDelayPerBatch writes the Figure 10 table: per-batch mean
// admission delay with p10/p90 bands for both modes.
func RenderAdmissionDelayPerBatch(w io.Writer, fig *AdmissionFigure) {
	bt := fig.VNITrue.DelaysByBatch()
	bf := fig.VNIFalse.DelaysByBatch()
	var batches []int
	for b := range bt {
		batches = append(batches, b)
	}
	sort.Ints(batches)
	fmt.Fprintf(w, "%-8s %26s %26s   [admission delay s: mean (p10..p90)]\n",
		"batch", "vni:true", "vni:false")
	for _, b := range batches {
		st := metrics.Summarize(bt[b])
		sf := metrics.Summarize(bf[b])
		fmt.Fprintf(w, "%-8d %9.2f (%6.2f..%6.2f) %9.2f (%6.2f..%6.2f)\n",
			b, st.Mean, st.P10, st.P90, sf.Mean, sf.P10, sf.P90)
	}
}

// RenderAdmissionBoxplot writes one panel of Figure 12: the boxplot
// five-number summaries over all jobs of all batches and the median
// overhead (the paper reports 3.5% ramp / 1.6% spike).
func RenderAdmissionBoxplot(w io.Writer, fig *AdmissionFigure) {
	st := metrics.Summarize(fig.VNITrue.Delays())
	sf := metrics.Summarize(fig.VNIFalse.Delays())
	fmt.Fprintf(w, "%s test admission delay (s):\n", fig.Pattern)
	row := func(name string, s metrics.Summary) {
		fmt.Fprintf(w, "  %-10s whiskers %6.2f..%6.2f  box %6.2f..%6.2f  median %6.2f  n=%d\n",
			name, s.WhiskLo, s.WhiskHi, s.Q1, s.Q3, s.P50, s.N)
	}
	row("vni:true", st)
	row("vni:false", sf)
	fmt.Fprintf(w, "  median admission overhead: %.1f%%\n", metrics.OverheadPct(st.P50, sf.P50))
}
