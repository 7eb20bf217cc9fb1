package main

// The catalogue is the single list of what the benchmark reports. The
// BENCHMARK.json at the repository root repeats it for the driver;
// TestCatalogueMatchesBenchmarkJSON keeps the two identical.

// metricDef describes one reported metric. Bound is the share of the
// previous median by which an end-to-end metric may worsen before it is a
// regression; layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd lists what a user of the simulator waits on or pays for, all in
// host time. The two timings are floors (5th percentiles over the
// iterations of a run), not medians or means: the benchmark runs on shared
// hosts whose neighbours slow every iteration they overlap, by a share that
// changes from minute to minute, and only the undisturbed iterations repeat
// from run to run. Medians, tails and mean throughput are layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"iter_ms_p05", "ms", "lower", 0.25},
	{"cpu_ms_p05", "ms", "lower", 0.25},
	{"allocs_per_iter", "count", "lower", 0.005},
	{"alloc_mb_per_iter", "MB", "lower", 0.005},
	// Always 1 on a healthy tree, so any bound above zero trips on the
	// first failed iteration of a 10-iteration run.
	{"success_share", "ratio", "higher", 0.001},
}

// layers are the profile buckets: the internal/<pkg> packages that own a
// simulated layer, plus the two buckets for stacks with no repository
// frame. A stack whose nearest internal/ frame is in none of these is
// charged to "other".
var layers = []string{
	"sim", "fabric", "cxi", "libfabric", "mpi", "workload", "k8s", "metactl",
	"vnisvc", "vnidb", "cni", "container", "nsmodel", "stack", "scenario",
	"health", "remediate", "telemetry", "metrics", "harness", "runtime.gc_bg",
	"other",
}

// spanNames are the spans the benchmark records around its own calls into
// the layers; each becomes a <name>_ms metric (per-iteration median of the
// time spent in spans of that name).
var spanNames = []string{
	"scenario.parse", "scenario.run", "stack.build", "k8s.submit",
	"sim.drain", "workload.start", "harness.admission",
}

// Sample columns: what one iteration reports besides its wall time. Counts
// come from the engine and the layers' Stats() accessors and repeat exactly
// for a fixed seed; virt.* values are simulated time and must not move under
// a change that only makes the simulator faster.
const (
	cSimEvents = iota
	cSimElided
	cFabricForwarded
	cFabricTrunk
	cFabricDrops
	cCXIMsgs
	cCXIAuthOK
	cCXIAuthFailed
	cCNIAdds
	cCNIAddsFailed
	cCNIDels
	cVNIAcquisitions
	cVNISyncErrors
	cK8sRetries
	cK8sConflicts
	cK8sRelists
	cK8sExhausted
	vSecPerIter
	vDelayP50
	vDelayP95
	vVNIOverheadPct
	vAllreduceUs
	vCPSecPerJob
	nColumns
)

var columns = [nColumns]metricDef{
	cSimEvents:       {"sim.events", "count", "lower", 0},
	cSimElided:       {"sim.elided", "count", "higher", 0},
	cFabricForwarded: {"fabric.packets_forwarded", "count", "lower", 0},
	cFabricTrunk:     {"fabric.trunk_forwarded", "count", "lower", 0},
	cFabricDrops:     {"fabric.drops", "count", "lower", 0},
	cCXIMsgs:         {"cxi.msgs_sent", "count", "lower", 0},
	cCXIAuthOK:       {"cxi.auth_ok", "count", "lower", 0},
	cCXIAuthFailed:   {"cxi.auth_failed", "count", "lower", 0},
	cCNIAdds:         {"cni.adds_configured", "count", "lower", 0},
	cCNIAddsFailed:   {"cni.adds_failed", "count", "lower", 0},
	cCNIDels:         {"cni.dels", "count", "lower", 0},
	cVNIAcquisitions: {"vnisvc.acquisitions", "count", "lower", 0},
	cVNISyncErrors:   {"vnisvc.sync_errors", "count", "lower", 0},
	cK8sRetries:      {"k8s.retries", "count", "lower", 0},
	cK8sConflicts:    {"k8s.conflicts", "count", "lower", 0},
	cK8sRelists:      {"k8s.relists", "count", "lower", 0},
	cK8sExhausted:    {"k8s.retries_exhausted", "count", "lower", 0},
	vSecPerIter:      {"virt.s_per_iter", "s", "lower", 0},
	vDelayP50:        {"virt.admission_delay_p50_s", "s", "lower", 0},
	vDelayP95:        {"virt.admission_delay_p95_s", "s", "lower", 0},
	vVNIOverheadPct:  {"virt.admission_vni_overhead_pct", "%", "lower", 0},
	vAllreduceUs:     {"virt.allreduce_us", "us", "lower", 0},
	vCPSecPerJob:     {"virt.cp_s_per_job", "s", "lower", 0},
}

// derived are the layer metrics computed from a whole traced run rather
// than per iteration.
var derived = []metricDef{
	{"host.iter_ms_p50", "ms", "lower", 0},
	{"host.iter_ms_p95", "ms", "lower", 0},
	{"host.work_per_s", "1/s", "higher", 0},
	{"host.cpu_ms_per_iter", "ms", "lower", 0},
	{"sim.elided_share", "ratio", "higher", 0},
	{"host.ns_per_sim_event", "ns", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"host.peak_rss_mb", "MB", "lower", 0},
	{"trace.overhead_x", "ratio", "lower", 0},
}

// isolateDefs are layer isolates, timed directly at a layer's public API.
var isolateDefs = []metricDef{
	{"sim.schedule_ns", "ns", "lower", 0},
	{"fabric.packet_ns", "ns", "lower", 0},
	{"fabric.flow_ns", "ns", "lower", 0},
	{"k8s.placement_us", "us", "lower", 0},
	{"vnidb.find_owner_ns_rows500", "ns", "lower", 0},
	{"vnidb.find_owner_ns_rows5000", "ns", "lower", 0},
}

// perLayer returns every metric a traced run reports, in print order.
func perLayer() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{l + ".busy_ms", "ms", "lower", 0})
	}
	for _, s := range spanNames {
		out = append(out, metricDef{s + "_ms", "ms", "lower", 0})
	}
	out = append(out, columns[:]...)
	out = append(out, derived...)
	out = append(out, isolateDefs...)
	return out
}
