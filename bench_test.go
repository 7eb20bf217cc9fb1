// Ablations for the design choices called out in DESIGN.md §5,
// micro-benchmarks of hot control-plane paths, the control-plane
// fleet-scale benchmarks and the allocation-budget gates of the admission
// pipeline. The paper's tables and figures are printed by cmd/shsbench
// (`shsbench -exp <name>`); their claims are asserted across seeds by
// internal/harness's TestPaperClaims.
package shsk8s

import (
	"flag"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/cxi"
	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/harness"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/libcxi"
	"github.com/caps-sim/shs-k8s/internal/nsmodel"
	"github.com/caps-sim/shs-k8s/internal/scenario"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/stack"
	"github.com/caps-sim/shs-k8s/internal/vnidb"
)

// TestScenarioQuickstartSmoke runs the bundled quickstart scenario (the
// shssim front door) twice: it must pass every assertion and produce
// identical results both times — the determinism contract every other
// scenario builds on.
func TestScenarioQuickstartSmoke(t *testing.T) {
	var results []*scenario.Result
	for i := 0; i < 2; i++ {
		sc, err := scenario.ParseFile("scenarios/quickstart.yaml")
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		res := scenario.Run(sc)
		if res.Err != nil {
			t.Fatalf("run: %v", res.Err)
		}
		if !res.Passed() {
			for _, a := range res.Asserts {
				t.Logf("%s", a)
			}
			t.Fatal("quickstart scenario failed")
		}
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0].Asserts, results[1].Asserts) {
		t.Errorf("runs differ:\n%v\n%v", results[0].Asserts, results[1].Asserts)
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblation_AuthAtEPCreation measures the Slingshot model: pay
// authentication once at endpoint allocation, then an auth-free data path.
func BenchmarkAblation_AuthAtEPCreation(b *testing.B) {
	st := stack.New(stack.DefaultOptions())
	proc, err := st.Kernel.Spawn("bench", 0, 0, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	h := libcxi.Open(st.Nodes[0].Device, proc.PID)
	ep, err := h.EPAllocAuto(1, fabric.TCDedicated)
	if err != nil {
		b.Fatal(err)
	}
	dst := st.Nodes[1].Device.Addr()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Eng.After(0, func() {
			if err := ep.Send(dst, 1, 64, nil); err != nil {
				b.Fatal(err)
			}
		})
		st.Eng.Run()
	}
}

// BenchmarkAblation_PerMessageAuth is the strawman: re-authenticate (scan
// services, allocate, send, close) on every message — what a naive
// integration without kernel-bypass-compatible auth would pay.
func BenchmarkAblation_PerMessageAuth(b *testing.B) {
	st := stack.New(stack.DefaultOptions())
	proc, err := st.Kernel.Spawn("bench", 0, 0, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	h := libcxi.Open(st.Nodes[0].Device, proc.PID)
	dst := st.Nodes[1].Device.Addr()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep, err := h.EPAllocAuto(1, fabric.TCDedicated)
		if err != nil {
			b.Fatal(err)
		}
		st.Eng.After(0, func() {
			if err := ep.Send(dst, 1, 64, nil); err != nil {
				b.Fatal(err)
			}
		})
		st.Eng.Run()
		ep.Close()
	}
}

// BenchmarkAblation_VNIQuarantine sweeps the release-quarantine window,
// measuring allocator throughput under churn. Zero quarantine is fastest
// but unsafe (see vnidb's TOCTOU/straggler tests); 30 s matches the paper.
func BenchmarkAblation_VNIQuarantine(b *testing.B) {
	for _, q := range []time.Duration{0, 10 * time.Second, 30 * time.Second} {
		b.Run(fmt.Sprintf("quarantine=%s", q), func(b *testing.B) {
			db := vnidb.Open(vnidb.Options{MinVNI: 1, MaxVNI: 4096, Quarantine: q})
			now := sim.Time(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = now.Add(50 * time.Millisecond)
				err := db.Update(func(tx *vnidb.Tx) error {
					v, err := tx.Acquire("owner", now)
					if err != nil {
						return err
					}
					return tx.Release(v, now)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_TxVsUnsafeAcquire compares the transactional allocator
// with the non-transactional check-then-insert strawman, which
// double-allocates under concurrency (proven by
// vnidb.TestUnsafeAllocatorExhibitsTOCTOU) and scans from the pool start on
// every call.
func BenchmarkAblation_TxVsUnsafeAcquire(b *testing.B) {
	b.Run("transactional", func(b *testing.B) {
		db := vnidb.Open(vnidb.Options{MinVNI: 1, MaxVNI: 1 << 20})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			err := db.Update(func(tx *vnidb.Tx) error {
				_, err := tx.Acquire("o", 0)
				return err
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unsafe", func(b *testing.B) {
		db := vnidb.Open(vnidb.Options{MinVNI: 1, MaxVNI: 1 << 20})
		ua := vnidb.NewUnsafeAllocator(db, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ua.Acquire("o", 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_ChainedCNIAdd measures the pod ADD path with the CXI
// plugin chained after the overlay versus the overlay alone — the cost of
// the paper's chained deployment mode.
func BenchmarkAblation_ChainedCNIAdd(b *testing.B) {
	run := func(b *testing.B, vni bool) {
		st := stack.New(stack.DefaultOptions())
		st.Cluster.CreateNamespace("bench")
		var ann map[string]string
		if vni {
			ann = map[string]string{"vni": "true"}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			name := fmt.Sprintf("cni-%05d", i)
			job := k8s.EchoJob("bench", name, ann)
			job.Spec.DeleteAfterFinished = false
			submitted := st.Eng.Now()
			st.Cluster.SubmitJob(job)
			for {
				st.Eng.RunFor(100 * time.Millisecond)
				if j, ok := st.Cluster.Job("bench", name); ok && j.Status.Completed {
					break
				}
			}
			b.ReportMetric(st.Eng.Now().Sub(submitted).Seconds()*1000/float64(i+1), "simms/job")
		}
	}
	b.Run("overlay-only", func(b *testing.B) { run(b, false) })
	b.Run("overlay+cxi", func(b *testing.B) { run(b, true) })
}

// --- Micro-benchmarks of hot control-plane paths ---

// BenchmarkEPAllocAuth measures the driver's authenticated endpoint
// allocation (the once-per-application cost of the paper's model).
func BenchmarkEPAllocAuth(b *testing.B) {
	eng := sim.NewEngine(1)
	kern := nsmodel.NewKernel()
	sw := fabric.NewSwitch("s", eng, fabric.DefaultConfig())
	dev := cxi.NewDevice("cxi0", eng, kern, sw, cxi.DefaultDeviceConfig())
	root, _ := kern.Spawn("root", 0, 0, 0, 0)
	ns := kern.NewNetNS("pod")
	proc, _ := kern.Spawn("app", 0, 0, ns.Inode, 0)
	id, err := dev.SvcAlloc(root.PID, cxi.SvcDesc{
		Name: "b", Restricted: true,
		Members: []cxi.Member{cxi.NetNSMember(ns.Inode)},
		VNIs:    []fabric.VNI{9},
		Limits:  cxi.ResourceLimits{MaxTXQs: 1 << 30, MaxEQs: 1 << 30, MaxCTs: 1 << 30},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ep, err := dev.EPAlloc(proc.PID, id, 9, fabric.TCDedicated)
		if err != nil {
			b.Fatal(err)
		}
		ep.Close()
	}
}

// BenchmarkSwitchForward measures per-packet switch forwarding including
// the VNI admission check.
func BenchmarkSwitchForward(b *testing.B) {
	eng := sim.NewEngine(1)
	sw := fabric.NewSwitch("s", eng, fabric.DefaultConfig())
	type sink struct{}
	recv := fabric.Receiver(nullReceiver{})
	a := sw.Attach(recv)
	c := sw.Attach(recv)
	_ = sw.GrantVNI(a, 5)
	_ = sw.GrantVNI(c, 5)
	link := fabric.NewHostLink(eng, sw)
	_ = sink{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(0, func() {
			link.Send(&fabric.Packet{Src: a, Dst: c, VNI: 5, TC: fabric.TCDedicated, PayloadBytes: 64, Frames: 1})
		})
		eng.Run()
	}
}

type nullReceiver struct{}

func (nullReceiver) ReceivePacket(*fabric.Packet) {}

// BenchmarkVNIDBAcquireRelease measures one allocate/release transaction
// pair, the endpoint's hot path.
func BenchmarkVNIDBAcquireRelease(b *testing.B) {
	db := vnidb.Open(vnidb.DefaultOptions())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := sim.Time(time.Duration(i) * time.Second) // outlive the quarantine
		err := db.Update(func(tx *vnidb.Tx) error {
			v, err := tx.Acquire("o", now)
			if err != nil {
				return err
			}
			return tx.Release(v, now)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- Control-plane fleet-scale benchmarks (typed client API) ---

// benchControlPlane pushes `jobs` vni:true jobs through the full admission
// pipeline — job controller, VNI webhook sync, pod gate, scheduler
// placement, kubelet, CNI ADD — on an 8-node fleet, and reports the real
// (wall-clock) cost per job. Every hot-path read goes through informer
// listers and indexes, so per-job cost stays near-flat as the fleet grows;
// the seed's APIServer.List copy-scans (scheduler, gate, CNI) made it grow
// linearly with fleet size.
func benchControlPlane(b *testing.B, jobs int) {
	for i := 0; i < b.N; i++ {
		simSec, err := runControlPlane(jobs)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(simSec/float64(jobs), "simsec/job")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*jobs), "wallns/job")
}

// runControlPlane is one benchControlPlane iteration: a fresh 8-node stack,
// `jobs` vni:true jobs submitted at once, run until every job completed.
// It returns the virtual time that took.
func runControlPlane(jobs int) (simSeconds float64, err error) {
	opts := stack.DefaultOptions()
	opts.Nodes = 8
	// Uncap the job controller's client-side rate limiter: the subject
	// here is control-plane asymptotics, not the QPS model.
	opts.Cluster.JobCtl.MaxQPS = 0
	st := stack.New(opts)
	st.Cluster.CreateNamespace("fleet")
	completed := make(map[string]bool, jobs)
	st.Cluster.Client.Watch(k8s.KindJob, k8s.WatchOptions{}, func(ev k8s.Event) {
		job := ev.Object.(*k8s.Job)
		if ev.Type != k8s.EventDeleted && job.Status.Completed {
			completed[job.Meta.Key()] = true
		}
	})
	for j := 0; j < jobs; j++ {
		job := k8s.EchoJob("fleet", fmt.Sprintf("cp-%05d", j),
			map[string]string{"vni": "true"})
		job.Spec.DeleteAfterFinished = false
		st.Cluster.SubmitJob(job)
	}
	deadline := st.Eng.Now().Add(2 * time.Hour)
	if !st.Eng.RunUntilDone(func() bool { return len(completed) >= jobs }, deadline) {
		return 0, fmt.Errorf("only %d/%d jobs completed", len(completed), jobs)
	}
	return st.Eng.Now().Seconds(), nil
}

// cpAllocBudgetPerJob is what one job may allocate on its way through the
// admission pipeline at 200 jobs (stack construction included): the
// measured 42.4 objects with go1.24's swiss maps — 42.0 with go1.22's map
// implementation (GOEXPERIMENT=noswissmap on go1.24) — plus ~2 %. Before
// the CNI chain, its plugins and the runtime reported to a Wrote their
// recycled records implement and the runtime kept the CNI result in the
// pod's sandbox, the same run allocated 43.7 per job (43.3); before free
// lists made their records in chunks and the client's write verbs
// took a Wrote (or Mutation) that the recycled records implement, 49.0
// (48.6); before an object's key and UID shared
// one string, the runtime reported to the
// kubelet's pod task itself, the garbage collector recycled its orphan
// records and a CNI result held its interface and CXI attachment, the same
// run allocated 56.3 per job (55.9); before the informer's cache became a
// field of the store's one record per key, with no cell, second map or
// per-namespace view, 59.6 (59.2); before the kubelet's pod worker, the
// controllers' work loops, the decorator's round and the VNI database's
// transactions carried their steps in recycled records, 85.5; before a pod's
// sandbox, CNI chain and plugin steps became recycled records, with no
// Result clone per plugin and no ID maps per user namespace, 104.6; before
// writes took their request records from the client's free list and Create
// and Update handed the caller's struct to the store, 118.6; before index
// buckets held their first entry inline, index
// values were pairs and an idempotent webhook round an echo by pointer,
// 173.9; before watch deliveries were pooled and informer
// cells stable, 262.5; before committed API objects became
// immutable and shared, 413.0. A change that takes the count past
// the budget has put an allocation back on every commit, every delivery,
// every webhook round, every pod's network bring-up or every pod's
// lifecycle; lower the budget when a change lowers the count.
const cpAllocBudgetPerJob = 43.2

// TestControlPlaneAllocBudget is the control-plane perf gate that cannot
// flake: it asserts the allocation count of the benchControlPlane body,
// which repeats to five digits, and never looks at the clock.
func TestControlPlaneAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not constants under the race detector")
	}
	const jobs = 200
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := runControlPlane(jobs); err != nil {
			t.Fatal(err)
		}
	})
	perJob := allocs / jobs
	t.Logf("%.0f allocations for %d jobs: %.1f per job (budget %.1f)", allocs, jobs, perJob, cpAllocBudgetPerJob)
	if perJob > cpAllocBudgetPerJob {
		t.Errorf("the admission pipeline allocates %.1f objects per job, budget %.1f", perJob, cpAllocBudgetPerJob)
	}
}

// spikeAllocBudget is what one run of the paper's Fig 11/12 burst — 500
// vni:true jobs, each deleted as it completes — may allocate, stack
// included: the measured 18 827 objects with go1.24's swiss maps (18 975
// with go1.22's map implementation, GOEXPERIMENT=noswissmap) plus ~2 %,
// down from 19 866 (20 024) before the CNI chain, its plugins and the
// runtime reported to a Wrote, the runtime kept the CNI result and the
// harness kept its job records in one slice, 22 803 (22 945) before free
// lists made their records in chunks and the write verbs took a Wrote the
// recycled records implement,
// 27 726 (27 882) before one string per object identity,
// runtime calls without callbacks, recycled orphan records and a CNI
// result that holds its attachments, 29 277 (29 460) before the
// informer's cache became a field of the store's records, 47 673 before
// recycled pod-worker, work-loop, decorator and transaction records,
// 63 126 before recycled sandbox and CNI step records and 71 606 before
// recycled write records. It is the count
// behind the repository benchmark's admission_spike500 workload, asserted
// where it cannot flake.
const spikeAllocBudget = 19300

// TestAdmissionSpikeAllocBudget is TestControlPlaneAllocBudget's sibling
// for the paper-fidelity admission path.
func TestAdmissionSpikeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not constants under the race detector")
	}
	opts := harness.DefaultAdmissionOptions(harness.PatternSpike, true)
	opts.Runs = 1
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := harness.RunAdmission(opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations for the %d-job spike (budget %d)", allocs, opts.SpikeJobs, spikeAllocBudget)
	if allocs > spikeAllocBudget {
		t.Errorf("the admission spike allocates %.0f objects, budget %d", allocs, spikeAllocBudget)
	}
}

// suiteAllocBudget is what parsing and running the 18 bundled scenarios
// may allocate, stacks included: the measured 15 891 objects with
// go1.24's swiss maps (15 873 with GOEXPERIMENT=noswissmap) plus
// ~1 %, down from 20 382 (20 367) before a scenario file
// parsed into slabs in one read and a narration line was built in one
// buffer. It is the count behind the repository benchmark's scenario_suite
// workload, asserted where it cannot flake.
const suiteAllocBudget = 16100

// TestScenarioSuiteAllocBudget is TestAdmissionSpikeAllocBudget's sibling
// for `shssim run scenarios/`: every bundled scenario, parsed and run.
func TestScenarioSuiteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not constants under the race detector")
	}
	files, err := filepath.Glob("scenarios/*.yaml")
	if err != nil || len(files) != 18 {
		t.Fatalf("found %d bundled scenarios (%v), want 18", len(files), err)
	}
	allocs := testing.AllocsPerRun(2, func() {
		for _, path := range files {
			sc, err := scenario.ParseFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if res := scenario.Run(sc); !res.Passed() {
				t.Fatalf("%s failed: %v", path, res.Err)
			}
		}
	})
	t.Logf("%.0f allocations for the %d-scenario suite (budget %d)", allocs, len(files), suiteAllocBudget)
	if allocs > suiteAllocBudget {
		t.Errorf("the scenario suite allocates %.0f objects, budget %d", allocs, suiteAllocBudget)
	}
}

// BenchmarkControlPlane_Pods100 etc. demonstrate the client redesign's
// asymptotic win at three fleet scales (see EXPERIMENTS.md for recorded
// per-job costs).
func BenchmarkControlPlane_Pods100(b *testing.B)  { benchControlPlane(b, 100) }
func BenchmarkControlPlane_Pods1000(b *testing.B) { benchControlPlane(b, 1000) }
func BenchmarkControlPlane_Pods5000(b *testing.B) { benchControlPlane(b, 5000) }

// BenchmarkControlPlane_Pods50000 is the one-off scale probe behind the
// 50 000-job row in EXPERIMENTS.md. An iteration takes ~10 s and ~1 GB, so
// it runs only when -bench names it, not under `-bench .`.
func BenchmarkControlPlane_Pods50000(b *testing.B) {
	if !strings.Contains(flag.Lookup("test.bench").Value.String(), "50000") {
		b.Skip("scale probe: run with -bench ControlPlane_Pods50000")
	}
	benchControlPlane(b, 50000)
}

// BenchmarkControlPlane_ListVsLister isolates the read path the redesign
// replaced: finding one job's pods among 5000 via the API server's List
// scan (every pod, key-sorted; until PR 16 deep-copied too) versus the
// informer's pods-by-job index.
func BenchmarkControlPlane_ListVsLister(b *testing.B) {
	const pods = 5000
	eng := sim.NewEngine(1)
	api := k8s.NewAPIServer(eng, k8s.DefaultAPILatency())
	cli := api.Client()
	informer := cli.Informer(k8s.KindPod)
	informer.AddIndex(k8s.IndexPodJob, k8s.PodJobIndex)
	lister := informer.Lister()
	for i := 0; i < pods; i++ {
		cli.Create(&k8s.Pod{Meta: k8s.Meta{
			Kind: k8s.KindPod, Namespace: "fleet", Name: fmt.Sprintf("p-%05d", i),
			Labels: map[string]string{"job-name": fmt.Sprintf("job-%04d", i%500)},
		}}, nil)
	}
	eng.Run()
	wantJob := k8s.IndexKey{Namespace: "fleet", Name: "job-0042"}
	match := func(objs []k8s.Object) int {
		n := 0
		for _, obj := range objs {
			if obj.(*k8s.Pod).Meta.Labels["job-name"] == "job-0042" {
				n++
			}
		}
		return n
	}
	b.Run("apiserver-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if match(api.List(k8s.KindPod, "fleet")) != pods/500 {
				b.Fatal("wrong match count")
			}
		}
	})
	b.Run("lister-index", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if match(lister.ByIndex(k8s.IndexPodJob, wantJob)) != pods/500 {
				b.Fatal("wrong match count")
			}
		}
	})
}
