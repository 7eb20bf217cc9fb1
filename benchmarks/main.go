// Command benchmarks is the repository's benchmark: five long-run workloads
// driven through the public functions of the simulator's internal/
// packages, reporting host-time and allocation end-to-end metrics, or (with
// --trace 1) a per-layer breakdown from spans, a CPU profile and the
// layers' own counters. README.md in this directory explains every number.
//
//	go run -C benchmarks .                                  # all workloads, end to end
//	go run -C benchmarks . --workload cp_pods5000 --trace 1 # one layer table
//	go run -C benchmarks . --selfcheck                      # the noise check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

const (
	// The benchmark runs from its own directory (`go run -C benchmarks .`),
	// so the repository root, which holds scenarios/, is its parent.
	repoRoot = ".."
	// outDir receives span traces and CPU profiles; it is git-ignored.
	outDir = "out"
	// minIters is the fewest measured iterations a median is taken from.
	minIters = 10
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	jsonPath  string
	selfcheck bool
	// dry, set only by the tests, runs one measured iteration and no
	// warm-up.
	dry bool
}

func main() {
	var o options
	fs := flag.NewFlagSet("benchmarks", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "", "run one workload by name (default: all five)")
	fs.Int64Var(&o.seed, "seed", 1, "seed every iteration builds its state from")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the measured phase, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run reporting the layer metrics, 0 = end-to-end metrics")
	fs.StringVar(&o.jsonPath, "json", "", "also write the results to this file as JSON")
	fs.BoolVar(&o.selfcheck, "selfcheck", false, "run the end-to-end set twice and fail if the two disagree beyond a metric's bound")
	_ = fs.Parse(os.Args[1:]) // ExitOnError: Parse does not return an error
	if fs.NArg() > 0 || o.seconds < 0 || (o.trace != 0 && o.trace != 1) || (o.selfcheck && o.trace == 1) {
		fmt.Fprintln(os.Stderr, "benchmarks: unexpected argument, negative --seconds, --trace not 0 or 1, or --selfcheck with --trace 1 (layer metrics have no bounds)")
		os.Exit(2)
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		os.Exit(1)
	}
}

// errFailed reports that the run completed but some iteration's output was
// wrong, or a self-check pair disagreed; the results were still printed.
var errFailed = fmt.Errorf("failed (see the lines above)")

func run(o options, stdout io.Writer) error {
	// The numbers are only comparable between runs at the runtime's default
	// settings.
	for _, env := range []string{"GOGC", "GOMEMLIMIT", "GODEBUG"} {
		if v, set := os.LookupEnv(env); set {
			return fmt.Errorf("%s=%q is set; unset it, the benchmark measures at the runtime's defaults", env, v)
		}
	}
	selected := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workloadDef{w}
	}
	fmt.Fprintf(stdout, "# nproc=%d GOMAXPROCS=%d %s seed=%d seconds=%d trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), o.seed, o.seconds, o.trace)

	cfg := runConfig{
		seed:     o.seed,
		box:      time.Duration(o.seconds) * time.Second,
		minIters: minIters,
		warmup:   true,
		trace:    o.trace == 1,
	}
	if o.dry {
		cfg.box, cfg.minIters, cfg.warmup = 0, 1, false
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer()
	}

	var results []result
	failed := false
	sets := 1
	if o.selfcheck {
		sets = 2
	}
	for set := 0; set < sets; set++ {
		for _, w := range selected {
			res, err := runWorkload(w, cfg)
			if err != nil {
				return err
			}
			printResult(stdout, res, defs)
			failed = failed || res.Failed > 0
			results = append(results, res)
		}
	}
	if o.selfcheck && !compareSets(stdout, results[:len(selected)], results[len(selected):], defs) {
		failed = true
	}
	if o.jsonPath != "" {
		if err := writeJSONFile(o, results, defs); err != nil {
			return err
		}
	}
	if err := printFinalLine(stdout, results, defs, len(selected) > 1); err != nil {
		return err
	}
	if failed {
		return errFailed
	}
	return nil
}

// printResult writes one line per metric: workload/metric value unit
// n=<samples>.
func printResult(w io.Writer, res result, defs []metricDef) {
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Fprintf(w, "%s/%s %.6g %s n=%d\n", res.Workload, d.Name, m.Value, d.Unit, m.N)
	}
	if res.FirstErr != "" {
		fmt.Fprintf(w, "%s: %d of %d iterations failed; first: %s\n", res.Workload, res.Failed, res.Attempted, res.FirstErr)
	}
}

// compareSets prints, for two back-to-back runs of the same tree, both
// values and their relative difference per (workload, metric), and reports
// whether every pair agrees within the metric's bound.
func compareSets(w io.Writer, first, second []result, defs []metricDef) bool {
	ok := true
	for i := range first {
		for _, d := range defs {
			a, b := first[i].Metrics[d.Name].Value, second[i].Metrics[d.Name].Value
			diff := math.Abs(b-a) / math.Abs(a)
			verdict := "ok"
			if !(diff <= d.Bound) {
				verdict, ok = "DISAGREE", false
			}
			fmt.Fprintf(w, "selfcheck %s/%s first=%.6g second=%.6g %s diff=%.2f%% bound=%.1f%% %s\n",
				first[i].Workload, d.Name, a, b, d.Unit, 100*diff, 100*d.Bound, verdict)
		}
	}
	return ok
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// printFinalLine writes the machine-readable summary as the last line of
// standard output. Metric keys are bare for a single workload and
// workload/metric for several.
func printFinalLine(w io.Writer, results []result, defs []metricDef, qualify bool) error {
	final := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Metrics: map[string]jsonMetric{}}
	for _, res := range results {
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for _, d := range defs {
			key := d.Name
			if qualify {
				key = res.Workload + "/" + d.Name
			}
			final.Metrics[key] = jsonMetric{Value: res.Metrics[d.Name].Value, Unit: d.Unit}
		}
	}
	final.Correct = final.Failed == 0
	return json.NewEncoder(w).Encode(final)
}

func writeJSONFile(o options, results []result, defs []metricDef) error {
	type jsonResult struct {
		Workload     string                `json:"workload"`
		Correct      bool                  `json:"correct"`
		Attempted    int                   `json:"attempted"`
		Failed       int                   `json:"failed"`
		FirstFailure string                `json:"first_failure,omitempty"`
		Metrics      map[string]jsonMetric `json:"metrics"`
	}
	doc := struct {
		GoVersion  string       `json:"go_version"`
		NumCPU     int          `json:"nproc"`
		GOMAXPROCS int          `json:"gomaxprocs"`
		Seed       int64        `json:"seed"`
		Seconds    int          `json:"seconds"`
		Trace      int          `json:"trace"`
		Results    []jsonResult `json:"results"`
	}{runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), o.seed, o.seconds, o.trace, nil}
	for _, res := range results {
		jr := jsonResult{res.Workload, res.Failed == 0, res.Attempted, res.Failed, res.FirstErr, map[string]jsonMetric{}}
		for _, d := range defs {
			m := res.Metrics[d.Name]
			jr.Metrics[d.Name] = jsonMetric{m.Value, d.Unit, m.N}
		}
		doc.Results = append(doc.Results, jr)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.jsonPath, append(data, '\n'), 0o644)
}
