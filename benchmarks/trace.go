package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/caps-sim/shs-k8s/internal/metrics"
)

// span is one timed call from the benchmark into a layer. Spans of one
// iteration share Iter (0 is the set-up phase); Parent is the ID of the
// enclosing span, -1 at the top. The name is kept as an index so the span
// buffer holds no pointers: the traced workloads collect garbage several
// times per iteration, and a buffer the collector had to scan would slow
// the very run it describes.
type span struct {
	ID, Parent, Iter int
	Name             int // index into spanNames, or iterationSpan
	StartUs, EndUs   float64
}

const iterationSpan = -1

func spanName(i int) string {
	if i == iterationSpan {
		return "iteration"
	}
	return spanNames[i]
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of span IDs currently open
	iter  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) sinceUs() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span under the innermost open one and returns its ID for
// end. The name must be one of spanNames.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	for i, n := range spanNames {
		if n == name {
			return t.open1(i)
		}
	}
	panic("benchmarks: span " + name + " is not in spanNames")
}

// beginIteration opens the root span of the next iteration.
func (t *tracer) beginIteration() int {
	if t == nil {
		return -1
	}
	t.iter++
	return t.open1(iterationSpan)
}

func (t *tracer) open1(name int) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Iter: t.iter, Name: name, StartUs: t.sinceUs()})
	t.open = append(t.open, id)
	return id
}

// end closes span id and any span still open inside it (a panicking
// iteration unwinds past its inner end calls).
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.sinceUs()
	for len(t.open) > 0 {
		top := t.open[len(t.open)-1]
		t.open = t.open[:len(t.open)-1]
		t.spans[top].EndUs = now
		if top == id {
			return
		}
	}
}

// spanMs returns, for each iteration that has spans called name, the total
// milliseconds spent in them.
func (t *tracer) spanMs(name string) []float64 {
	byIter := map[int]float64{}
	var order []int
	for _, s := range t.spans {
		if spanName(s.Name) != name {
			continue
		}
		if _, seen := byIter[s.Iter]; !seen {
			order = append(order, s.Iter)
		}
		byIter[s.Iter] += (s.EndUs - s.StartUs) / 1e3
	}
	out := make([]float64, len(order))
	for i, it := range order {
		out[i] = byIter[it]
	}
	return out
}

// write dumps the spans as JSON lines, one span each.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"iter":%d,"name":%q,"start_us":%.3f,"end_us":%.3f}`+"\n",
			s.ID, s.Parent, s.Iter, spanName(s.Name), s.StartUs, s.EndUs)
	}
	err = w.Flush()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

const repoImportPrefix = "github.com/caps-sim/shs-k8s/internal/"

// Stacks with no repository frame that contain one of these belong to the
// garbage collector's background workers.
var gcBackgroundFrames = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// layerOfStack buckets one profile stack (leaf first) by its nearest
// internal/<pkg> frame, so runtime map and malloc work is charged to the
// layer that caused it. Packages outside the layer list, and stacks with no
// repository frame that are not background GC, go to "other".
func layerOfStack(frames []string, known map[string]bool) string {
	for _, f := range frames {
		i := strings.Index(f, repoImportPrefix)
		if i < 0 {
			continue
		}
		pkg := f[i+len(repoImportPrefix):]
		if j := strings.IndexAny(pkg, "./"); j >= 0 {
			pkg = pkg[:j]
		}
		if known[pkg] {
			return pkg
		}
		return "other"
	}
	for _, f := range frames {
		for _, gc := range gcBackgroundFrames {
			if strings.HasPrefix(f, gc) {
				return "runtime.gc_bg"
			}
		}
	}
	return "other"
}

var errNoSamples = errors.New("pprof traces: no samples")

// parsePprofTraces reads `go tool pprof -traces` text: after a header,
// blocks separated by dashed lines, each a sample value with its unit
// followed by the stack, leaf first. It returns each layer's share of the
// total sample value.
func parsePprofTraces(r io.Reader) (map[string]float64, error) {
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	byLayer := map[string]float64{}
	var total, value float64
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			byLayer[layerOfStack(frames, known)] += value
			total += value
		}
		frames, value = nil, 0
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBlocks := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			inBlocks = true
			continue
		}
		fields := strings.Fields(line)
		if !inBlocks || len(fields) == 0 {
			continue
		}
		if len(frames) == 0 {
			if len(fields) < 2 {
				return nil, fmt.Errorf("pprof traces: no frame after sample value in %q", line)
			}
			// CPU sample values print as Go durations ("10ms", "1.52s").
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value in %q: %w", line, err)
			}
			value = d.Seconds()
			fields = fields[1:]
		}
		// One frame per line; "(inline)" may follow the name.
		frames = append(frames, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, errNoSamples
	}
	for l := range byLayer {
		byLayer[l] /= total
	}
	return byLayer, nil
}

// profileShares runs fn under the CPU profiler and returns each layer's
// share of the samples, read back through `go tool pprof -traces`.
func profileShares(path string, fn func()) (map[string]float64, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	// pprof keeps a scratch directory; hold it inside the checkout.
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(path))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	return parsePprofTraces(bytes.NewReader(out))
}

// measureLayers is the traced run: a phase under spans and the CPU
// profiler, between two halves of an untraced reference phase (so that a
// host that drifts during the run does not read as tracing overhead), then
// the layer isolates. It reports only layer metrics; the end-to-end numbers
// come from untraced runs.
func measureLayers(w workloadDef, cfg runConfig, it iterFunc, tr *tracer, res *result) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	minIters := min(cfg.minIters, 2)
	ref := runPhase(it, nil, cfg.box*15/100, minIters, 0, true)
	var traced phase
	shares, err := profileShares(filepath.Join(outDir, "cpu-"+w.Name+".pprof"), func() {
		traced = runPhase(it, tr, cfg.box*40/100, minIters, 0, true)
	})
	// A dry run is over before the profiler's first tick.
	if err != nil && !(cfg.box == 0 && errors.Is(err, errNoSamples)) {
		return err
	}
	ref2 := runPhase(it, nil, cfg.box*15/100, minIters, 0, false)
	res.count(&ref)
	res.count(&ref2)
	for k := range ref.lapWallMs {
		if k < len(ref2.lapWallMs) {
			ref.lapWallMs[k] = append(ref.lapWallMs[k], ref2.lapWallMs[k]...)
		}
	}
	res.count(&traced)
	if err := tr.write(filepath.Join(outDir, "trace-"+w.Name+".json")); err != nil {
		return err
	}

	n := len(traced.iterMs)
	cpuMs := traced.cpu.Seconds() * 1e3 / traced.iters()
	for _, l := range layers {
		res.Metrics[l+".busy_ms"] = metricValue{shares[l] * cpuMs, n}
	}
	for _, name := range spanNames {
		ms := tr.spanMs(name)
		res.Metrics[name+"_ms"] = metricValue{metrics.Median(ms), len(ms)}
	}
	// Counts are per-iteration medians over the traced phase. Simulated
	// results are read off the first measured iteration instead: on a stack
	// that persists across iterations the engine's random stream moves on,
	// so only a fixed position in it repeats exactly from run to run.
	var med sample
	for c := range columns {
		med[c] = metrics.Median(traced.column(c))
		if c >= vSecPerIter {
			med[c] = 0
			if len(ref.samples) > 0 {
				med[c] = ref.samples[0][c]
			}
		}
		res.Metrics[columns[c].Name] = metricValue{med[c], n}
	}

	_, peakRSS := rusage()
	events := med[cSimEvents]
	res.Metrics["host.iter_ms_p50"] = metricValue{metrics.Median(traced.iterMs), n}
	res.Metrics["host.iter_ms_p95"] = metricValue{metrics.Percentile(traced.iterMs, 95), n}
	res.Metrics["host.work_per_s"] = metricValue{traced.iters() * float64(w.Units) / traced.wall.Seconds(), n}
	res.Metrics["host.cpu_ms_per_iter"] = metricValue{cpuMs, n}
	res.Metrics["sim.elided_share"] = metricValue{ratio(med[cSimElided], events+med[cSimElided]), n}
	res.Metrics["host.ns_per_sim_event"] = metricValue{ratio(cpuMs*1e6, events), n}
	res.Metrics["runtime.gc_cycles"] = metricValue{float64(traced.gcCycles) / traced.iters(), n}
	res.Metrics["host.peak_rss_mb"] = metricValue{peakRSS, 1}
	res.Metrics["trace.overhead_x"] = metricValue{ratio(floorMs(traced.lapWallMs), floorMs(ref.lapWallMs)), n}

	isolateTime := "300ms"
	if cfg.box == 0 {
		isolateTime = "1x"
	}
	iso, err := runIsolates(isolateTime)
	if err != nil {
		return err
	}
	res.add(iso)
	return nil
}

// ratio is a/b, or 0 where the workload has no b to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
