package harness

import (
	"fmt"
	"time"

	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/stack"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
)

// LoadPattern selects the admission experiment (paper §IV-B).
type LoadPattern string

// Load patterns.
const (
	PatternRamp  LoadPattern = "ramp"
	PatternSpike LoadPattern = "spike"
)

// AdmissionOptions configure an admission experiment.
type AdmissionOptions struct {
	Pattern LoadPattern
	// VNI runs with the Slingshot integration (vni:true annotations);
	// false is the baseline.
	VNI  bool
	Runs int // paper: 5
	Seed int64
	// SpikeJobs is the burst size of the spike test (paper: 500).
	SpikeJobs int
	// RampPeak, RampSustain: batches ramp 1..RampPeak, hold RampPeak for
	// RampSustain batches, ramp back down to 1; one batch per second
	// (paper: peak 10, sustain 10).
	RampPeak    int
	RampSustain int
}

// DefaultAdmissionOptions mirrors the paper's parameters.
func DefaultAdmissionOptions(p LoadPattern, vni bool) AdmissionOptions {
	return AdmissionOptions{
		Pattern:     p,
		VNI:         vni,
		Runs:        5,
		Seed:        1,
		SpikeJobs:   500,
		RampPeak:    10,
		RampSustain: 10,
	}
}

// samplePeriod is the running-jobs sampling interval of Figures 9 and 11.
const samplePeriod = time.Second

// JobRecord is one job's lifecycle timing.
type JobRecord struct {
	Name     string
	Batch    int
	SubmitAt sim.Time
	// DoneAt is when the job reported completion (the paper measures
	// submission→completion; deletion then happens immediately and its
	// load is borne by subsequent jobs).
	DoneAt sim.Time
	Done   bool
}

// Delay returns the admission delay in seconds.
func (j JobRecord) Delay() float64 { return j.DoneAt.Sub(j.SubmitAt).Seconds() }

// Sample is one point of the running-jobs time series.
type Sample struct {
	T       sim.Time
	Running int
	// BatchSize is the number of jobs submitted in the most recent batch
	// (the green line of Figures 9/10).
	BatchSize int
}

// AdmissionRun is one repetition's result.
type AdmissionRun struct {
	Samples []Sample
	Jobs    []JobRecord
}

// AdmissionResult aggregates all repetitions of one configuration.
type AdmissionResult struct {
	Opts AdmissionOptions
	Runs []*AdmissionRun
}

// Delays flattens all job delays (seconds) across runs.
func (r *AdmissionResult) Delays() []float64 {
	var out []float64
	for _, run := range r.Runs {
		for _, j := range run.Jobs {
			if j.Done {
				out = append(out, j.Delay())
			}
		}
	}
	return out
}

// DelaysByBatch groups delays by batch ID across runs.
func (r *AdmissionResult) DelaysByBatch() map[int][]float64 {
	out := make(map[int][]float64)
	for _, run := range r.Runs {
		for _, j := range run.Jobs {
			if j.Done {
				out[j.Batch] = append(out[j.Batch], j.Delay())
			}
		}
	}
	return out
}

// RunAdmission executes the experiment.
func RunAdmission(opts AdmissionOptions) (*AdmissionResult, error) {
	res := &AdmissionResult{Opts: opts}
	for run := 0; run < opts.Runs; run++ {
		r, err := runAdmissionOnce(opts, opts.Seed+int64(run)*104729)
		if err != nil {
			return nil, fmt.Errorf("harness: %s run %d: %w", opts.Pattern, run, err)
		}
		res.Runs = append(res.Runs, r)
	}
	return res, nil
}

// batchSizes returns the per-second submission counts for the pattern.
func batchSizes(opts AdmissionOptions) []int {
	if opts.Pattern == PatternSpike {
		return []int{opts.SpikeJobs}
	}
	var out []int
	for n := 1; n <= opts.RampPeak; n++ { // ramp-up
		out = append(out, n)
	}
	for i := 0; i < opts.RampSustain; i++ { // sustain
		out = append(out, opts.RampPeak)
	}
	for n := opts.RampPeak - 1; n >= 1; n-- { // ramp-down
		out = append(out, n)
	}
	return out
}

func runAdmissionOnce(opts AdmissionOptions, seed int64) (*AdmissionRun, error) {
	sopts := stack.DefaultOptions()
	sopts.Seed = seed
	st := stack.New(sopts)
	st.Cluster.CreateNamespace("load")
	t0 := st.Eng.Now()

	batches := batchSizes(opts)
	total := 0
	for _, n := range batches {
		total += n
	}
	// The jobs in submission order, and each one's index there by name.
	run := &AdmissionRun{Jobs: make([]JobRecord, 0, total)}
	index := make(map[string]int, total)
	doneCount := 0

	// Track completions via job status updates.
	st.Cluster.Client.Watch(k8s.KindJob, k8s.WatchOptions{}, func(ev k8s.Event) {
		if ev.Type != k8s.EventModified {
			return
		}
		job := ev.Object.(*k8s.Job)
		i, ok := index[job.Meta.Name]
		if !ok || run.Jobs[i].Done || !job.Status.Completed {
			return
		}
		run.Jobs[i].Done, run.Jobs[i].DoneAt = true, st.Eng.Now()
		doneCount++
	})

	var ann map[string]string
	if opts.VNI {
		ann = map[string]string{vniapi.Annotation: vniapi.AnnotationValueTrue}
	}

	for b, n := range batches {
		st.Eng.At(t0.Add(sim.Duration(b)*time.Second), func() {
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("job-b%02d-%03d", b, i)
				index[name] = len(run.Jobs)
				run.Jobs = append(run.Jobs, JobRecord{Name: name, Batch: b, SubmitAt: st.Eng.Now()})
				st.Cluster.SubmitJob(k8s.EchoJob("load", name, ann))
			}
		})
	}

	// Sampler: from t0 until all jobs are done and the cluster drained. A
	// sample's batch is the one submitted in its period.
	var sampler sim.Ticker
	sample := func() {
		s := Sample{T: st.Eng.Now(), Running: st.Cluster.ActiveJobs()}
		if b := int(s.T.Sub(t0) / samplePeriod); b < len(batches) {
			s.BatchSize = batches[b]
		}
		run.Samples = append(run.Samples, s)
		if doneCount >= total && s.Running == 0 {
			sampler.Stop()
		}
	}
	st.Eng.After(0, func() {
		sampler.Start(st.Eng, samplePeriod, sample)
		sample()
	})

	// Drive with a hard ceiling so a stuck run fails loudly.
	allDone := func() bool { return doneCount >= total }
	if !st.Eng.RunUntilDone(allDone, t0.Add(2*time.Hour)) {
		return nil, fmt.Errorf("only %d/%d jobs completed", doneCount, total)
	}
	// Let teardown and the sampler drain.
	st.Eng.RunFor(time.Minute)
	return run, nil
}
