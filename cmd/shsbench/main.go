// Command shsbench regenerates the paper's evaluation artefacts: Table I
// and Figures 5-12, printed as data tables (the same series the paper
// plots), and the extension experiments built on the same harness.
//
// Usage:
//
//	shsbench -exp all
//	shsbench -exp fig5 -runs 10
//	shsbench -exp fig12 -runs 5 -seed 42
//	shsbench -exp collectives -fidelity flow
//
// Experiments: table1, fig5..fig12, comm (fig5-8), admission (fig9-12),
// overlay (overlay datapath vs Slingshot RDMA), collectives (pattern ×
// size × placement sweep), fabric (multi-group hot-link report), tc
// (traffic-class interference), all. Any other name is a usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/harness"
)

// artefacts is every table shsbench can print, in print order; groups name
// runs of them. Together they are the valid -exp values: the usage text,
// the unknown-name error and run's selection all read these two tables.
var (
	artefacts = []string{"table1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"overlay", "collectives", "fabric", "tc"}
	groups = map[string][]string{"comm": artefacts[1:5], "admission": artefacts[5:9], "all": artefacts}

	validNames = strings.Join(artefacts, ", ") + ", comm, admission, all"
	errUsage   = errors.New("usage")
)

// selection resolves an -exp value to the artefacts it prints. A name in
// neither table is a usage error, not an empty selection: a script still
// asking for a retired experiment must not go green doing nothing.
func selection(exp string) ([]string, error) {
	if slices.Contains(artefacts, exp) {
		return []string{exp}, nil
	}
	if g, ok := groups[exp]; ok {
		return g, nil
	}
	return nil, fmt.Errorf("%w: unknown experiment %q (valid: %s)", errUsage, exp, validNames)
}

func main() {
	exp := flag.String("exp", "all", "experiment to run ("+validNames+")")
	runs := flag.Int("runs", 0, "repetitions per mode (0 = paper defaults: 10 comm / 5 admission)")
	seed := flag.Int64("seed", 1, "base RNG seed")
	fidelity := flag.String("fidelity", "", "fabric fidelity for the collectives sweep (packet, flow or hybrid)")
	flag.Parse()

	fid, err := fabric.ParseFidelity(*fidelity)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shsbench: %v\n", err)
		os.Exit(2)
	}
	if err := run(*exp, *runs, *seed, fid); err != nil {
		fmt.Fprintf(os.Stderr, "shsbench: %v\n", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(exp string, runs int, seed int64, fid fabric.Fidelity) error {
	sel, err := selection(exp)
	if err != nil {
		return err
	}
	selected := func(names ...string) bool {
		return slices.ContainsFunc(names, func(n string) bool { return slices.Contains(sel, n) })
	}
	header := func(title string) {
		fmt.Printf("\n===== %s =====\n", title)
	}

	if selected("table1") {
		header("Table I: Software versions")
		harness.RenderTable1(os.Stdout)
	}

	commRuns := runs
	if commRuns == 0 {
		commRuns = 10
	}
	if selected("fig5", "fig6") {
		fig, err := harness.RunCommFigure(harness.BenchBw, commRuns, seed)
		if err != nil {
			return err
		}
		if selected("fig5") {
			header("Figure 5: Average Throughput via osu_bw (MB/s)")
			harness.RenderCommValues(os.Stdout, fig, "MB/s")
		}
		if selected("fig6") {
			header("Figure 6: Average Throughput Overhead via osu_bw")
			harness.RenderCommOverhead(os.Stdout, fig)
		}
	}
	if selected("fig7", "fig8") {
		lruns := commRuns
		if exp == "fig8" && runs == 0 {
			lruns = 25 // the paper uses 25 runs for the latency overhead
		}
		fig, err := harness.RunCommFigure(harness.BenchLatency, lruns, seed+1)
		if err != nil {
			return err
		}
		if selected("fig7") {
			header("Figure 7: Average Latency via osu_latency (us)")
			harness.RenderCommValues(os.Stdout, fig, "us")
		}
		if selected("fig8") {
			header("Figure 8: Average Latency Overhead via osu_latency")
			harness.RenderCommOverhead(os.Stdout, fig)
		}
	}

	admRuns := runs
	if admRuns == 0 {
		admRuns = 5
	}
	var ramp, spike *harness.AdmissionFigure
	if selected("fig9", "fig10", "fig12") {
		ramp, err = harness.RunAdmissionFigure(harness.PatternRamp, admRuns, seed+2)
		if err != nil {
			return err
		}
	}
	if selected("fig11", "fig12") {
		spike, err = harness.RunAdmissionFigure(harness.PatternSpike, admRuns, seed+3)
		if err != nil {
			return err
		}
	}
	if selected("fig9") {
		header("Figure 9: Running Jobs during Ramp Test")
		harness.RenderRunningJobs(os.Stdout, ramp)
	}
	if selected("fig10") {
		header("Figure 10: Job Admission Delay per Batch (Ramp)")
		harness.RenderAdmissionDelayPerBatch(os.Stdout, ramp)
	}
	if selected("fig11") {
		header("Figure 11: Running Jobs during Spike Test")
		harness.RenderRunningJobs(os.Stdout, spike)
	}
	if selected("fig12") {
		header("Figure 12: Admission Delay Boxplots")
		harness.RenderAdmissionBoxplot(os.Stdout, ramp)
		harness.RenderAdmissionBoxplot(os.Stdout, spike)
	}
	if selected("overlay") {
		// Extension experiment: overlay datapath vs Slingshot RDMA, the
		// paper's §II-D motivation.
		rows, err := harness.RunOverlayComparison(seed, nil)
		if err != nil {
			return err
		}
		header("Extension: Overlay vs Slingshot RDMA")
		harness.RenderOverlayComparison(os.Stdout, rows)
	}
	if selected("collectives") {
		// Extension experiment: the placement-sensitivity grid — every
		// collective pattern × message size × placement (flat, group-
		// colocated, group-spilled), the job-scale communication view of
		// the dragonfly topology.
		cfg := harness.DefaultCollectivesConfig()
		cfg.Seed = seed
		cfg.Fidelity = fid
		rows, err := harness.RunCollectivesSweep(cfg)
		if err != nil {
			return err
		}
		header("Extension: Collectives vs Placement (8 ranks, 4-group dragonfly)")
		harness.RenderCollectives(os.Stdout, rows)
	}
	if selected("fabric") {
		// Extension experiment: multi-group dragonfly hot-link report —
		// which trunks an all-to-all load saturates, the observability
		// fleet-scale scenarios lean on.
		cfg := harness.DefaultFabricReportConfig()
		cfg.Seed = seed
		rep, err := harness.RunFabricReport(cfg)
		if err != nil {
			return err
		}
		header("Extension: Fabric Hot Links (multi-group all-to-all)")
		harness.RenderFabricReport(os.Stdout, rep, 12)
	}
	if selected("tc") {
		// Extension experiment (not a paper figure): traffic-class
		// isolation for co-scheduled applications, use-case (1) of the
		// paper's introduction.
		res, err := harness.RunTrafficClassExperiment(harness.DefaultTCOptions())
		if err != nil {
			return err
		}
		header("Extension: Traffic-Class Interference (use-case 1)")
		harness.RenderTrafficClasses(os.Stdout, res)
	}
	return nil
}
