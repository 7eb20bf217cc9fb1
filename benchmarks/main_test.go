package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func TestFloorQuantile(t *testing.T) {
	// The floor quantile does not interpolate: the minimum for few samples,
	// a few ranks in for many.
	ten := []float64{9, 3, 7, 1, 8, 2, 6, 4, 5, 10}
	if got := floorQuantile(ten, 0.05); got != 1 {
		t.Errorf("floor p05 of ten = %g, want the minimum", got)
	}
	hundred := make([]float64, 101)
	for i := range hundred {
		hundred[i] = float64(100 - i)
	}
	if got := floorQuantile(hundred, 0.05); got != 5 {
		t.Errorf("floor p05 of 0..100 = %g, want 5", got)
	}
	if got := floorMs([][]float64{{3, 1, 2}, {20, 10, 30}}); got != 11 {
		t.Errorf("floorMs = %g, want 11 (the floors of the two slices, summed)", got)
	}
}

// cannedTraces is `go tool pprof -traces` output, cut down: a map access
// under vnidb (charged to vnidb, the nearest repository frame, not to sim
// further up), an inlined fabric leaf, a GC worker, an idle scheduler stack
// with no repository frame, and a package that owns no layer.
const cannedTraces = `File: benchmarks
Type: cpu
Time: 2026-09-28 02:04:57 UTC
Duration: 4.13s, Total samples = 2s (48.4%)
-----------+-------------------------------------------------------
     1.20s   runtime.mapaccess2_faststr
             github.com/caps-sim/shs-k8s/internal/vnidb.(*Tx).FindByOwner
             github.com/caps-sim/shs-k8s/internal/vnisvc.(*Endpoint).syncPerResourceJob
             github.com/caps-sim/shs-k8s/internal/sim.(*Engine).Step
             main.runPhase
             runtime.main
-----------+-------------------------------------------------------
     300ms   github.com/caps-sim/shs-k8s/internal/fabric.(*Packet).WireBytes (inline)
             github.com/caps-sim/shs-k8s/internal/fabric.(*Switch).flowDeliver
             github.com/caps-sim/shs-k8s/internal/sim.(*Engine).Step
-----------+-------------------------------------------------------
     200ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
-----------+-------------------------------------------------------
     100ms   runtime.futex
             runtime.notesleep
             runtime.stopm
             runtime.findRunnable
             runtime.schedule
-----------+-------------------------------------------------------
     200ms   runtime.mallocgc
             github.com/caps-sim/shs-k8s/internal/manifest.Parse
             main.main
`

func TestParsePprofTraces(t *testing.T) {
	got, err := parsePprofTraces(strings.NewReader(cannedTraces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"vnidb": 0.60, "fabric": 0.15, "runtime.gc_bg": 0.10, "other": 0.15}
	if len(got) != len(want) {
		t.Errorf("layers = %v, want %v", got, want)
	}
	for l, share := range want {
		if math.Abs(got[l]-share) > 1e-9 {
			t.Errorf("share of %s = %g, want %g", l, got[l], share)
		}
	}
	if _, err := parsePprofTraces(strings.NewReader("File: x\nType: cpu\n")); err == nil {
		t.Error("a profile with no samples parsed without error")
	}
}

func TestTracerNestsAndUnwinds(t *testing.T) {
	var none *tracer
	none.end(none.begin("sim.drain")) // a nil tracer records nothing and does not panic

	tr := newTracer()
	build := tr.begin("stack.build") // set-up span: iteration 0
	tr.end(build)
	it := tr.beginIteration()
	tr.begin("scenario.parse")
	tr.begin("scenario.run")
	tr.end(it) // as after a panic: closes the two spans still open inside
	if len(tr.open) != 0 {
		t.Fatalf("%d spans left open", len(tr.open))
	}
	wantParent := []int{-1, -1, 1, 2}
	wantIter := []int{0, 1, 1, 1}
	for i, s := range tr.spans {
		if s.Parent != wantParent[i] || s.Iter != wantIter[i] || s.EndUs < s.StartUs {
			t.Errorf("span %d = %+v, want parent %d iter %d and end >= start", i, s, wantParent[i], wantIter[i])
		}
	}
	if got := tr.spanMs("scenario.run"); len(got) != 1 {
		t.Errorf("spanMs(scenario.run) = %v, want one iteration", got)
	}
	if got := tr.spanMs("k8s.submit"); len(got) != 0 {
		t.Errorf("spanMs of an unused span = %v, want none", got)
	}
}

func TestCompareSets(t *testing.T) {
	set := func(v float64) []result {
		return []result{{Workload: "w", Metrics: map[string]metricValue{"iter_ms_p05": {Value: v, N: 10}}}}
	}
	defs := []metricDef{{"iter_ms_p05", "ms", "lower", 0.10}}
	var out bytes.Buffer
	if !compareSets(&out, set(100), set(109), defs) {
		t.Errorf("9%% apart under a 10%% bound should agree:\n%s", out.String())
	}
	if compareSets(&out, set(100), set(89), defs) {
		t.Errorf("11%% apart under a 10%% bound should disagree:\n%s", out.String())
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func TestNamesAreWellFormedAndUnique(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer()...) {
		check(d.Name)
	}
}

// benchmarkJSON mirrors the driver's BENCHMARK.json schema.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(repoRoot + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "-C", "benchmarks", "github.com/caps-sim/shs-k8s/benchmarks"}; !reflect.DeepEqual(doc.Command, want) {
		t.Errorf("command = %v, want %v", doc.Command, want)
	}
	if want := []string{"benchmarks"}; !reflect.DeepEqual(doc.Paths, want) {
		t.Errorf("paths = %v, want %v", doc.Paths, want)
	}
	if doc.RunSeconds != 20 {
		t.Errorf("run_seconds = %d, want 20 (the --seconds default)", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d = %+v, want %s: %s", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalogue", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := doc.EndToEnd[i]
		if (metricDef{got.Name, got.Unit, got.Better, got.Bound}) != d {
			t.Errorf("end-to-end metric %d = %+v, want %+v", i, got, d)
		}
	}
	layer := perLayer()
	if len(doc.PerLayer) != len(layer) {
		t.Fatalf("%d layer metrics in BENCHMARK.json, %d in the catalogue", len(doc.PerLayer), len(layer))
	}
	for i, d := range layer {
		got := doc.PerLayer[i]
		if (metricDef{got.Name, got.Unit, got.Better, 0}) != d {
			t.Errorf("layer metric %d = %+v, want %+v", i, got, d)
		}
	}
}

// TestDryRunPrintsTheCatalogue runs every workload for one iteration, end
// to end and traced, and checks that the names printed, line by line and in
// the final JSON object, are exactly the catalogue's (which
// TestCatalogueMatchesBenchmarkJSON ties to BENCHMARK.json). It asserts
// nothing about time.
func TestDryRunPrintsTheCatalogue(t *testing.T) {
	for _, w := range workloads {
		if testing.Short() && w.Name == "cp_pods5000" {
			continue // two seconds per iteration
		}
		for trace, defs := range [][]metricDef{endToEnd, perLayer()} {
			var out bytes.Buffer
			if err := run(options{workload: w.Name, seed: 1, trace: trace, dry: true}, &out); err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", w.Name, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var printed []string
			for _, l := range lines[1 : len(lines)-1] { // between the header and the JSON object
				name, ok := strings.CutPrefix(strings.Fields(l)[0], w.Name+"/")
				if !ok {
					t.Errorf("%s trace=%d: unexpected line %q", w.Name, trace, l)
				}
				printed = append(printed, name)
			}
			sort.Strings(printed)
			if !reflect.DeepEqual(printed, names(defs)) {
				t.Errorf("%s trace=%d printed %v, want %v", w.Name, trace, printed, names(defs))
			}
			var final struct {
				Correct   bool                  `json:"correct"`
				Attempted int                   `json:"attempted"`
				Failed    int                   `json:"failed"`
				Metrics   map[string]jsonMetric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
				t.Fatalf("%s trace=%d: last line is not JSON: %v", w.Name, trace, err)
			}
			if !final.Correct || final.Attempted < 1 || final.Failed != 0 || len(final.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: final line %s", w.Name, trace, lines[len(lines)-1])
			}
			for _, d := range defs {
				if m, ok := final.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%d: final line lacks %s in %s", w.Name, trace, d.Name, d.Unit)
				}
			}
		}
	}
}

// TestFailedIterationIsCounted checks that a wrong output and a panic both
// lower success_share instead of stopping the run.
func TestFailedIterationIsCounted(t *testing.T) {
	calls := 0
	w := workloadDef{Name: "flaky", Units: 1, Setup: func(int64, *tracer) (iterFunc, error) {
		return func(*iteration) error {
			calls++
			switch calls {
			case 2:
				return os.ErrInvalid
			case 3:
				panic("boom")
			}
			return nil
		}, nil
	}}
	res, err := runWorkload(w, runConfig{minIters: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 4 || res.Failed != 2 || res.Metrics["success_share"].Value != 0.5 {
		t.Errorf("attempted %d failed %d success_share %g, want 4, 2, 0.5",
			res.Attempted, res.Failed, res.Metrics["success_share"].Value)
	}
	if !strings.Contains(res.FirstErr, "iteration 2") {
		t.Errorf("first failure = %q, want it to name iteration 2", res.FirstErr)
	}
}
