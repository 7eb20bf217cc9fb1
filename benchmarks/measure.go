package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// rusage reads the process's user+system CPU time and its peak resident
// set. CPU time covers every thread, so it includes the background GC work
// on the second core that wall time hides.
func rusage() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// floorQuantile is the sample at rank floor(q*(n-1)) of xs sorted
// ascending, with no interpolation, so that with few samples a low q is the
// minimum; 0 for an empty slice.
func floorQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1))]
}

// phase is the raw measurement of one closed loop of iterations.
type phase struct {
	iterMs []float64 // wall time of each iteration
	// lapWallMs[k] and lapCPUMs[k] hold slice k's wall and CPU time in each
	// successful iteration (most workloads have one slice, the iteration).
	lapWallMs [][]float64
	lapCPUMs  [][]float64
	samples   []sample // what each successful iteration reported, when kept
	wall      time.Duration
	cpu       time.Duration
	mallocs   uint64
	bytes     uint64
	gcCycles  uint32
	failed    int
	firstErr  error
}

func (p *phase) iters() float64 { return float64(len(p.iterMs)) }

// floorQ is the fraction of iterations the timing floors are read at.
const floorQ = 0.05

// floorMs is the cost of one undisturbed iteration: per slice, the 5th
// percentile of that slice's time over the iterations, summed over the
// slices. Iterations are identical work, so what differs between them is
// the host; see README.md for why the floor is the statistic that repeats.
func floorMs(laps [][]float64) float64 {
	total := 0.0
	for _, lap := range laps {
		total += floorQuantile(lap, floorQ)
	}
	return total
}

// runIteration calls fn once, turning a panic into a failed iteration: a
// fault in the simulator is counted against success_share, not fatal.
func runIteration(fn iterFunc, it *iteration) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn(it)
}

// runPhase drives fn in a closed loop with one client: the next iteration
// starts when the previous one returns. It runs whole iterations until box
// has passed and at least minIters are done. Its buffers are sized for
// expect iterations before the allocation counters are read, so that the
// harness's own bookkeeping stays out of allocs_per_iter; per-iteration
// samples are kept only when keepSamples is set (traced runs).
func runPhase(fn iterFunc, tr *tracer, box time.Duration, minIters, expect int, keepSamples bool) phase {
	if expect < minIters {
		expect = minIters
	}
	p := phase{iterMs: make([]float64, 0, expect)}
	if keepSamples {
		p.samples = make([]sample, 0, expect)
	}
	var it iteration
	// Start every phase from a collected heap so the GC pacer's state does
	// not depend on what ran before.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, _ := rusage()
	start := time.Now()
	for len(p.iterMs) < minIters || time.Since(start) < box {
		it = iteration{tr: tr, wallMs: it.wallMs[:0], cpuMs: it.cpuMs[:0]}
		it.lapCPU, _ = rusage()
		it.lapStart = time.Now()
		t0 := it.lapStart
		id := tr.beginIteration()
		err := runIteration(fn, &it)
		tr.end(id)
		it.lap()
		p.iterMs = append(p.iterMs, float64(it.lapStart.Sub(t0).Nanoseconds())/1e6)
		if err == nil && len(p.lapWallMs) > 0 && len(it.wallMs) != len(p.lapWallMs) {
			err = fmt.Errorf("ran %d timed slices where earlier iterations ran %d: iterations are not identical work",
				len(it.wallMs), len(p.lapWallMs))
		}
		if err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("iteration %d: %w", len(p.iterMs), err)
			}
			continue // a failed iteration's time and counters describe nothing
		}
		if p.lapWallMs == nil {
			p.lapWallMs = make([][]float64, len(it.wallMs))
			p.lapCPUMs = make([][]float64, len(it.wallMs))
			for k := range p.lapWallMs {
				p.lapWallMs[k] = make([]float64, 0, expect)
				p.lapCPUMs[k] = make([]float64, 0, expect)
			}
		}
		for k := range it.wallMs {
			p.lapWallMs[k] = append(p.lapWallMs[k], it.wallMs[k])
			p.lapCPUMs[k] = append(p.lapCPUMs[k], it.cpuMs[k])
		}
		if keepSamples {
			p.samples = append(p.samples, it.out)
		}
	}
	p.wall = time.Since(start)
	cpu1, _ := rusage()
	runtime.ReadMemStats(&m1)
	p.cpu = cpu1 - cpu0
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.bytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcCycles = m1.NumGC - m0.NumGC
	return p
}

// column returns the per-iteration values of one sample column.
func (p *phase) column(c int) []float64 {
	out := make([]float64, len(p.samples))
	for i := range p.samples {
		out[i] = p.samples[i][c]
	}
	return out
}

// metricValue is one reported number; N is how many samples it
// summarises. Its unit is the catalogue's.
type metricValue struct {
	Value float64
	N     int
}

// result is one workload's run.
type result struct {
	Workload  string
	Attempted int
	Failed    int
	FirstErr  string // the first failed iteration's error, "" when none
	Metrics   map[string]metricValue
}

// runConfig sizes a run. The zero box with minIters 1 and warm-up off is
// the dry run the tests use to collect metric names.
type runConfig struct {
	seed     int64
	box      time.Duration // length of the measured phase
	minIters int
	warmup   bool
	trace    bool
}

// runWorkload sets the workload up, measures it, and reports either the
// end-to-end metrics or, on a traced run, the layer metrics.
//
// Set-up is done w.Rounds times over, each round a fresh construction plus
// w.Warmup iterations; the last round's state is the one measured. setup_s
// is the floor of a round, taken the way iter_ms_p05 is: the construction
// and each warm-up iteration (or each of its slices) is a timed slice, the
// floor of a slice is its fastest time over the rounds, and the slices'
// floors are summed.
func runWorkload(w workloadDef, cfg runConfig) (result, error) {
	res := result{Workload: w.Name, Metrics: map[string]metricValue{}}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rounds, warmup := w.Rounds, w.Warmup
	if !cfg.warmup {
		rounds, warmup = 1, 0
	}
	var it iterFunc
	var roundLaps [][]float64 // [slice][round] wall ms
	for r := 1; r <= rounds; r++ {
		var roundTr *tracer
		if r == rounds {
			roundTr = tr // set-up spans come from the round that is kept
		}
		round := iteration{lapStart: time.Now()}
		var err error
		if it, err = w.Setup(cfg.seed, roundTr); err != nil {
			return res, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		round.lap()
		for i := 0; i < warmup; i++ {
			if err := runIteration(it, &round); err != nil {
				return res, fmt.Errorf("%s: warm-up iteration %d of round %d: %w", w.Name, i+1, r, err)
			}
			round.lap()
		}
		if roundLaps == nil {
			roundLaps = make([][]float64, len(round.wallMs))
		}
		if len(round.wallMs) != len(roundLaps) {
			return res, fmt.Errorf("%s: set-up round %d ran %d timed slices, round 1 ran %d", w.Name, r, len(round.wallMs), len(roundLaps))
		}
		for k, ms := range round.wallMs {
			roundLaps[k] = append(roundLaps[k], ms)
		}
	}
	setupS := floorMs(roundLaps) / 1e3

	if cfg.trace {
		return res, measureLayers(w, cfg, it, tr, &res)
	}
	// Twice the iterations the warm-up's pace predicts.
	expect := 0
	if warmup > 0 {
		expect = int(2 * cfg.box.Seconds() / (setupS / float64(warmup)))
	}
	p := runPhase(it, nil, cfg.box, cfg.minIters, expect, false)
	n := len(p.iterMs)
	res.count(&p)
	res.add(map[string]metricValue{
		"setup_s":           {setupS, rounds},
		"iter_ms_p05":       {floorMs(p.lapWallMs), n - p.failed},
		"cpu_ms_p05":        {floorMs(p.lapCPUMs), n - p.failed},
		"allocs_per_iter":   {float64(p.mallocs) / p.iters(), n},
		"alloc_mb_per_iter": {float64(p.bytes) / 1e6 / p.iters(), n},
		"success_share":     {float64(n-p.failed) / p.iters(), n},
	})
	return res, nil
}

func (r *result) add(m map[string]metricValue) {
	for k, v := range m {
		r.Metrics[k] = v
	}
}

func (r *result) count(p *phase) {
	r.Attempted += len(p.iterMs)
	r.Failed += p.failed
	if r.FirstErr == "" && p.firstErr != nil {
		r.FirstErr = p.firstErr.Error()
	}
}
