package scenario

import (
	"fmt"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/health"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/libcxi"
	"github.com/caps-sim/shs-k8s/internal/metrics"
	"github.com/caps-sim/shs-k8s/internal/remediate"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/stack"
	"github.com/caps-sim/shs-k8s/internal/telemetry"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
	"github.com/caps-sim/shs-k8s/internal/vnidb"
	"github.com/caps-sim/shs-k8s/internal/vnisvc"
	"github.com/caps-sim/shs-k8s/internal/workload"
)

// Ops executes scenario events against a live stack and probes its end
// state. It is the one implementation both front ends share: RunHooked
// (run.go) drives it from a YAML event timeline, and interactive mode
// (internal/ctl) drives it from operator commands — a `fail-link` typed
// at the prompt and a fail_link event in a file run the same method.
//
// Lifecycle: NewOps, then Exec a start_fleet event (everything else
// requires the booted stack), then any mix of Exec / Actual / TakeLog.
type Ops struct {
	sc  *Scenario
	res *Result
	st  *stack.Stack
	// pods, jobs and vnis are cached listers over the fleet's control
	// plane; every end-state probe reads through them instead of
	// copy-scanning the API server.
	pods k8s.Lister
	jobs k8s.Lister
	vnis k8s.Lister
	// sampler is the telemetry time series, attached at boot when the
	// scenario's telemetry: section enables it; nil otherwise.
	sampler *telemetry.Sampler
	// wlDone/wlTotal accumulate collective-iteration progress across all
	// run_traffic events, the sampler's workload source.
	wlDone, wlTotal int
	// start is the virtual time of start_fleet; event offsets are
	// relative to it, so stack assembly time does not shift the timeline.
	start sim.Time
	// submitted maps job key -> tenant for every job this run created;
	// completed records the keys seen completing, surviving TTL deletion.
	submitted map[string]string
	completed map[string]bool
	// latUs collects one-way latency samples from pingpong events.
	latUs []float64
	// traffic maps run names to their workload reports (run_traffic).
	traffic map[string]workload.Report
	// counters/daemon/remediator are the health and remediation loop,
	// built at boot only when the scenario's health: section enables it —
	// the loop's watches draw from the API server's delivery-jitter RNG,
	// so wiring it unconditionally would shift every health-less timeline.
	counters   *health.Counters
	daemon     *health.Daemon
	remediator *remediate.Controller
	// faultStart stamps fault injections (node name or canonical link
	// key), the zero point for time_to_detect_us / time_to_recover_us.
	faultStart map[string]sim.Time
	detectUs   map[string]float64
	recoverUs  map[string]float64
	// injectors holds the stop handles of live slow-drain error injectors.
	injectors map[string]*errorInjector
	// violations counts isolation-probe enforcement failures (forged
	// packets delivered, cross-VNI endpoints granted).
	violations int
	rogue      fabric.Addr
	rogueSet   bool
	// logMark is the TakeLog high-water mark into res.Log.
	logMark int
}

// NewOps prepares an executor for the scenario. No stack exists until a
// start_fleet event runs.
func NewOps(sc *Scenario) *Ops {
	return &Ops{sc: sc, res: &Result{Scenario: sc}, completed: map[string]bool{},
		submitted: map[string]string{}, traffic: map[string]workload.Report{},
		faultStart: map[string]sim.Time{}, detectUs: map[string]float64{},
		recoverUs: map[string]float64{}, injectors: map[string]*errorInjector{}}
}

// Stack returns the live stack, nil before start_fleet.
func (r *Ops) Stack() *stack.Stack { return r.st }

// Sampler returns the attached telemetry sampler, nil when the scenario
// does not enable telemetry.
func (r *Ops) Sampler() *telemetry.Sampler { return r.sampler }

// Start returns the virtual time the fleet came up; event offsets and the
// interactive prompt's relative clock measure from it.
func (r *Ops) Start() sim.Time { return r.start }

// TakeLog returns the narration lines appended since the previous call —
// how the interactive front end echoes each command's effects.
func (r *Ops) TakeLog() []string {
	out := r.res.Log[r.logMark:]
	r.logMark = len(r.res.Log)
	return out
}

func (r *Ops) logf(format string, args ...any) {
	at := sim.Time(0)
	if r.st != nil {
		at = r.st.Eng.Now()
	}
	r.res.Log = append(r.res.Log, fmt.Sprintf("[%s] %s", at, fmt.Sprintf(format, args...)))
}

// Exec executes one event against the stack. Events must have passed
// CheckEvent (unknown actions and malformed parameters are rejected there);
// Exec errors are runtime failures — unknown jobs, dead NICs, timeouts.
func (r *Ops) Exec(ev *Event) error { return ActionByName(ev.Action).exec(r, ev) }

func (r *Ops) deleteJob(ev *Event) error {
	key := ev.str("tenant") + "/" + ev.str("name")
	if _, ok := r.submitted[key]; !ok {
		return fmt.Errorf("job %s was never submitted", key)
	}
	r.st.Cluster.Client.Delete(k8s.KindJob, ev.str("tenant"), ev.str("name"))
	r.logf("deleted job %s", key)
	return nil
}

func (r *Ops) createClaim(ev *Event) error {
	r.st.Cluster.Client.Create(vnisvc.NewClaim(ev.str("tenant"), ev.str("name"), ev.str("name")))
	r.logf("created claim %s/%s", ev.str("tenant"), ev.str("name"))
	return nil
}

func (r *Ops) deleteClaim(ev *Event) error {
	r.st.Cluster.Client.Delete(vniapi.KindVniClaim, ev.str("tenant"), ev.str("name"))
	r.logf("deleted claim %s/%s", ev.str("tenant"), ev.str("name"))
	return nil
}

func (r *Ops) failNIC(ev *Event) error {
	r.logf("injecting NIC failure on %s", ev.Target)
	r.markFault(ev.Target)
	return r.st.FailNIC(ev.Target)
}

func (r *Ops) recoverNIC(ev *Event) error {
	r.logf("recovering NIC on %s", ev.Target)
	return r.st.RecoverNIC(ev.Target)
}

// setCordon executes cordon (on) and uncordon.
func (r *Ops) setCordon(ev *Event, on bool) error {
	verb := "uncordoning"
	if on {
		verb = "cordoning"
	}
	r.logf("%s %s", verb, ev.Target)
	return r.st.Cluster.Scheduler.SetCordon(ev.Target, on)
}

func (r *Ops) partitionFabric(ev *Event) error {
	nodes := splitList(ev.str("nodes"))
	r.logf("partitioning fabric: %v vs rest", nodes)
	return r.st.PartitionFabric(nodes)
}

func (r *Ops) healPartition(*Event) error {
	r.st.HealPartition()
	r.logf("fabric partition healed")
	return nil
}

func (r *Ops) resyncVNI(*Event) error {
	if r.st.VNISvc == nil {
		return fmt.Errorf("vni service not installed")
	}
	r.st.VNISvc.Resync()
	r.logf("requeued vni controllers")
	return nil
}

// setLink executes fail_link (down) and recover_link: a global-link pair
// addressed by groups (+ optional link index) or an intra-group trunk
// addressed by switch indices.
func (r *Ops) setLink(ev *Event, down bool) error {
	verb := "recovering"
	if down {
		verb = "failing"
	}
	if ev.str("groups") != "" {
		a, b, err := r.sc.indexPair(ev, "groups", r.sc.Topology.Groups, "group")
		if err != nil {
			return err
		}
		idx := -1
		which := "all global links"
		if _, picked := ev.Params["link"]; picked {
			idx = ev.num("link")
			which = fmt.Sprintf("global link %d", idx)
		}
		r.logf("%s %s between group %d and group %d", verb, which, a, b)
		if down {
			// The daemon keys global links by their gateway switches.
			for gi, id := range r.st.Topo.GlobalLinks(a, b) {
				if idx < 0 || gi == idx {
					r.markFault(canonLinkKey("global", id.From, id.To))
				}
			}
			return r.st.FailGlobalLinks(a, b, idx)
		}
		return r.st.RecoverGlobalLinks(a, b, idx)
	}
	i, j, err := r.sc.trunk(ev)
	if err != nil {
		return err
	}
	r.logf("%s trunk between switch %d and switch %d", verb, i, j)
	if down {
		r.markFault(canonLinkKey("trunk", i, j))
		return r.st.FailTrunk(i, j)
	}
	return r.st.RecoverTrunk(i, j)
}

func (r *Ops) startFleet(*Event) error {
	fl := r.sc.Fleet
	opts := stack.DefaultOptions()
	opts.Seed = r.sc.Seed
	opts.Nodes = fl.Nodes
	opts.VNIService = fl.VNIService
	opts.Topology = r.sc.Topology
	opts.Cluster.Scheduler.NodeCapacity = fl.PodsPerNode
	opts.DB = vnidb.Options{MinVNI: fl.VNIPoolMin, MaxVNI: fl.VNIPoolMax, Quarantine: fl.Quarantine}
	r.st = stack.New(opts)
	r.start = r.st.Eng.Now()
	cli := r.st.Cluster.Client
	podInformer := cli.Informer(k8s.KindPod)
	podInformer.AddIndex(k8s.IndexPodJob, k8s.PodJobIndex)
	r.pods = podInformer.Lister()
	r.jobs = cli.Lister(k8s.KindJob)
	r.vnis = vniapi.VNILister(cli)
	for _, t := range fl.Tenants {
		r.st.Cluster.CreateNamespace(t.Name)
	}
	// Track job completion through the watch so TTL-deleted jobs still
	// count toward jobs_completed.
	cli.Watch(k8s.KindJob, k8s.WatchOptions{}, func(ev k8s.Event) {
		if ev.Type == k8s.EventDeleted {
			return
		}
		job := ev.Object.(*k8s.Job)
		if job.Status.Completed {
			r.completed[job.Meta.Key()] = true
		}
	})
	r.logf("fleet up: %d nodes, %d tenants, vni pool %d-%d, vni service=%v",
		fl.Nodes, len(fl.Tenants), fl.VNIPoolMin, fl.VNIPoolMax, fl.VNIService)
	if spec := r.st.Topo.Spec(); spec.Groups > 1 || spec.SwitchesPerGroup > 1 {
		r.logf("topology: %d group(s) x %d switch(es), %d global link(s) per pair",
			spec.Groups, spec.SwitchesPerGroup, spec.GlobalLinksPerPair)
	}
	if h := r.sc.Health; h.Enabled() {
		r.startHealth(h)
	}
	if t := r.sc.Telemetry; t.Enabled() {
		r.sampler = telemetry.New(r.st.Eng, telemetry.Config{
			Interval: t.SampleEvery, Capacity: t.Capacity})
		src := telemetry.Sources{
			Topo:     r.st.Topo,
			Pods:     r.pods,
			Jobs:     r.jobs,
			Progress: func() (int, int) { return r.wlDone, r.wlTotal },
		}
		if r.daemon != nil {
			src.Health = r.healthStats
		}
		// Always attached: the control-plane fault layer arms mid-run (on
		// the first fault event), after this sampler exists. The source
		// reports Armed=false until then, which omits every control-plane
		// field from the sample.
		src.ControlPlane = r.cpStats
		r.sampler.Attach(src)
		r.logf("telemetry: sampling every %s", t.SampleEvery)
	}
	return nil
}

// FlushTelemetry detaches the sampler and writes the series to the
// scenario's sink, if both are configured. Safe to call on a run without
// telemetry; called by RunHooked after assertions and by interactive mode
// on quit.
func (r *Ops) FlushTelemetry() error {
	if r.sampler == nil {
		return nil
	}
	r.sampler.Detach()
	sink := r.sc.Telemetry.Sink
	if sink == "" {
		return nil
	}
	if err := r.sampler.DumpJSONL(sink); err != nil {
		return fmt.Errorf("telemetry sink: %w", err)
	}
	r.logf("telemetry: wrote %d samples to %s", r.sampler.Len(), sink)
	return nil
}

// buildJob constructs one scenario job; vni "" means no Slingshot access,
// "true" a per-resource VNI, anything else redeems the named claim.
func buildJob(tenant, name, vni string, pods int, runtime sim.Duration, ttlDelete bool) *k8s.Job {
	var ann map[string]string
	if vni != "" {
		ann = map[string]string{vniapi.Annotation: vni}
	}
	return &k8s.Job{
		Meta: k8s.Meta{Kind: k8s.KindJob, Namespace: tenant, Name: name, Annotations: ann},
		Spec: k8s.JobSpec{
			Parallelism:         pods,
			Template:            k8s.PodSpec{Image: "scenario:latest", RunDuration: runtime},
			DeleteAfterFinished: ttlDelete,
		},
	}
}

func (r *Ops) submitJob(ev *Event) error {
	tenant, name, pods := ev.str("tenant"), ev.str("name"), ev.num("pods")
	key := tenant + "/" + name
	if _, dup := r.submitted[key]; dup {
		return fmt.Errorf("job %s already submitted", key)
	}
	r.submitted[key] = tenant
	r.st.Cluster.SubmitJob(buildJob(tenant, name, ev.str("vni"), pods, ev.dur("runtime"), false))
	r.logf("submitted job %s (%d pod(s), vni=%q)", key, pods, ev.str("vni"))
	return nil
}

// churnJobs submits a train of short jobs spaced by interval; with TTL
// deletion on, each completed job releases its VNI, exercising the
// allocate/quarantine/reallocate cycle under sustained churn.
func (r *Ops) churnJobs(ev *Event) error {
	tenant, count, pods := ev.str("tenant"), ev.num("count"), ev.num("pods")
	interval, runtime, vni := ev.dur("interval"), ev.dur("runtime"), ev.str("vni")
	for i := 0; i < count; i++ {
		name := fmt.Sprintf("churn-%s-%03d", tenant, i)
		key := tenant + "/" + name
		if _, dup := r.submitted[key]; dup {
			return fmt.Errorf("job %s already submitted", key)
		}
		r.submitted[key] = tenant
		job := buildJob(tenant, name, vni, pods, runtime, true)
		r.st.Eng.After(time.Duration(i)*interval, func() {
			r.st.Cluster.SubmitJob(job)
		})
	}
	r.logf("churning %d jobs in %s (interval %s, runtime %s)", count, tenant, interval, runtime)
	return nil
}

// tenantVNI returns the VNI attached to jobName when given, else the one
// on the tenant's first VNI CRD instance (virtual or owning — both carry a
// valid VNI value).
func (r *Ops) tenantVNI(tenant, jobName string) (fabric.VNI, error) {
	if jobName != "" {
		vni, err := vniapi.JobVNI(r.vnis, tenant, jobName)
		if err == vniapi.ErrNoInstance {
			err = fmt.Errorf("no VNI CRD for job %s/%s", tenant, jobName)
		}
		return vni, err
	}
	crds := r.vnis.List(tenant)
	if len(crds) == 0 {
		return 0, fmt.Errorf("tenant %s has no VNI", tenant)
	}
	return vniapi.Value(crds[0].(*k8s.Custom))
}

// eachPod walks the tenant's cached pods — through the pods-by-job index
// when job is non-empty, the namespace cache otherwise — until fn returns
// false. It is the single lister-backed pod scan behind every per-pod
// probe below (the seed carried four near-identical copy-scan loops).
func (r *Ops) eachPod(tenant, job string, fn func(*k8s.Pod) bool) {
	var objs []k8s.Object
	if job != "" {
		objs = r.pods.ByIndex(k8s.IndexPodJob, k8s.IndexKey{Namespace: tenant, Name: job})
	} else {
		objs = r.pods.List(tenant)
	}
	for _, obj := range objs {
		if !fn(obj.(*k8s.Pod)) {
			return
		}
	}
}

// probeIsolation attacks every tenant's VNI at the two enforcement layers
// the paper relies on: (1) a rogue switch port the fabric manager never
// authorized injects forged packets below the driver, which Rosetta must
// drop at ingress; (2) a process inside another tenant's pod asks the CXI
// driver for an endpoint on the victim's VNI, which netns-membership
// authentication must refuse. A correct deployment yields
// isolation_violations == 0.
func (r *Ops) probeIsolation(*Event) error {
	tenants := r.sc.Fleet.Tenants
	if !r.rogueSet {
		r.rogue = r.st.Switch.Attach(nullReceiver{})
		r.rogueSet = true
	}

	// Layer 1: forged packets from the unauthorized rogue port.
	type probe struct {
		src fabric.Addr
		vni fabric.VNI
	}
	outstanding := map[probe]int{}
	sent := 0
	for ti, victim := range tenants {
		vni, err := r.tenantVNI(victim.Name, "")
		if err != nil {
			return err
		}
		pkt := &fabric.Packet{
			Src: r.rogue, Dst: r.st.Nodes[ti%len(r.st.Nodes)].Device.Addr(), VNI: vni,
			TC: fabric.TCDedicated, PayloadBytes: 64, Frames: 1,
		}
		outstanding[probe{pkt.Src, pkt.VNI}]++
		sent++
		link := fabric.NewHostLink(r.st.Eng, r.st.Switch)
		r.st.Eng.After(0, func() { link.Send(pkt) })
	}
	dropped := 0
	r.st.Topo.OnDrop(func(pkt *fabric.Packet, reason fabric.DropReason) {
		k := probe{src: pkt.Src, vni: pkt.VNI}
		if outstanding[k] > 0 {
			outstanding[k]--
			dropped++
		}
	})
	r.st.Eng.RunFor(100 * time.Millisecond)
	r.st.Topo.OnDrop(nil)
	r.violations += sent - dropped

	// Layer 2: cross-tenant endpoint allocation against driver auth.
	granted, attempts := 0, 0
	for ai, attacker := range tenants {
		for vi, victim := range tenants {
			if ai == vi {
				continue
			}
			vni, err := r.tenantVNI(victim.Name, "")
			if err != nil {
				return err
			}
			pod, node, err := r.anyRunningPod(attacker.Name)
			if err != nil {
				return err
			}
			proc, err := node.Runtime.Exec(pod.Meta.Namespace, pod.Meta.Name, "attacker", 0, 0)
			if err != nil {
				return err
			}
			attempts++
			h := libcxi.Open(node.Device, proc.PID)
			if _, err := h.EPAllocAuto(vni, fabric.TCDedicated); err == nil {
				granted++
			}
		}
	}
	r.violations += granted
	r.logf("isolation probe: %d rogue packets (%d dropped), %d cross-VNI endpoint attempts (%d denied)",
		sent, dropped, attempts, attempts-granted)
	return nil
}

// anyRunningPod returns a running pod of the tenant and its node.
func (r *Ops) anyRunningPod(tenant string) (*k8s.Pod, *stack.Node, error) {
	var foundPod *k8s.Pod
	var foundNode *stack.Node
	r.eachPod(tenant, "", func(pod *k8s.Pod) bool {
		if pod.Status.Phase != k8s.PodRunning {
			return true
		}
		if node, ok := r.st.NodeByName(pod.Spec.NodeName); ok {
			foundPod, foundNode = pod, node
			return false
		}
		return true
	})
	if foundPod == nil {
		return nil, nil, fmt.Errorf("tenant %s has no running pod", tenant)
	}
	return foundPod, foundNode, nil
}

// runningPods counts Running pods in a tenant, optionally for one job.
func (r *Ops) runningPods(tenant, job string) int {
	n := 0
	r.eachPod(tenant, job, func(pod *k8s.Pod) bool {
		if pod.Status.Phase == k8s.PodRunning {
			n++
		}
		return true
	})
	return n
}

// podsRunning returns the wait predicate "at least want pods of the tenant
// (of one job, if given) are Running". The engine asks after every event,
// and most events — every fabric and NIC one — cannot change a pod, so the
// count is retaken only once the pod informer has absorbed something since
// the last answer.
func (r *Ops) podsRunning(tenant, job string, want int) func() bool {
	var mark uint64
	enough := false
	return func() bool {
		if !r.pods.Unchanged(&mark) {
			enough = r.runningPods(tenant, job) >= want
		}
		return enough
	}
}

func (r *Ops) waitRunning(ev *Event) error {
	tenant, pods, timeout := ev.str("tenant"), ev.num("pods"), ev.dur("timeout")
	ok := r.st.Eng.RunUntilDone(r.podsRunning(tenant, ev.str("job"), pods), r.st.Eng.Now().Add(timeout))
	if !ok {
		return fmt.Errorf("timed out after %s waiting for %d running pod(s) in %s", timeout, pods, tenant)
	}
	r.logf("%d pod(s) running in %s", pods, tenant)
	return nil
}

func (r *Ops) waitJobsComplete(ev *Event) error {
	tenant, timeout := ev.str("tenant"), ev.dur("timeout")
	want := 0
	for _, t := range r.submitted {
		if tenant == "" || t == tenant {
			want++
		}
	}
	ok := r.st.Eng.RunUntilDone(func() bool {
		return r.completedCount(tenant) >= want
	}, r.st.Eng.Now().Add(timeout))
	if !ok {
		return fmt.Errorf("timed out after %s: %d/%d jobs complete", timeout, r.completedCount(tenant), want)
	}
	r.logf("all %d job(s) complete%s", want, scopeSuffix(tenant))
	return nil
}

func scopeSuffix(tenant string) string {
	if tenant == "" {
		return ""
	}
	return " in " + tenant
}

func (r *Ops) completedCount(tenant string) int {
	n := 0
	for key := range r.completed {
		if tenant == "" || r.submitted[key] == tenant {
			n++
		}
	}
	return n
}

// pingpong gangs the job's pods (netns authentication, as the paper's data
// path requires) and measures one-way latency between the first two over
// the job's private VNI, feeding the latency_us assertions. The gang is
// closed on every way out, so the pods' CNI DEL finds their services idle.
func (r *Ops) pingpong(ev *Event) error {
	tenant, jobName := ev.str("tenant"), ev.str("job")
	rounds, bytes, timeout := ev.num("rounds"), ev.num("bytes"), ev.dur("timeout")

	if ok := r.st.Eng.RunUntilDone(r.podsRunning(tenant, jobName, 2), r.st.Eng.Now().Add(timeout)); !ok {
		return fmt.Errorf("timed out waiting for 2 running pods of %s/%s", tenant, jobName)
	}
	vni, err := r.tenantVNI(tenant, jobName)
	if err != nil {
		return err
	}
	gang, err := workload.PodGang(r.st, tenant, jobName, vni, fabric.TCLowLatency)
	if err != nil {
		return err
	}
	defer gang.Close()
	// Ranks 0 and 1 ping; any further pods of the job hold idle endpoints.
	ping, pong := gang.Comm.Ranks[0], gang.Comm.Ranks[1]
	done := 0
	var roundStart sim.Time
	var round func()
	round = func() {
		if done >= rounds {
			return
		}
		roundStart = r.st.Eng.Now()
		pong.Recv(func(sz int) { pong.SendTo(0, sz, nil) })
		ping.SendTo(1, bytes, nil)
		ping.RecvFrom(1, func(int) {
			rtt := r.st.Eng.Now().Sub(roundStart)
			r.latUs = append(r.latUs, float64(rtt)/float64(time.Microsecond)/2)
			done++
			round()
		})
	}
	r.st.Eng.After(0, round)
	deadline := r.st.Eng.Now().Add(timeout)
	if ok := r.st.Eng.RunUntilDone(func() bool { return done >= rounds }, deadline); !ok {
		// Fault scenarios expect traffic to blackhole (NIC down, fabric
		// partitioned); tolerate_stall turns the stall into a logged
		// observation instead of a run error.
		if ev.flag("tolerate_stall") {
			r.logf("pingpong %s/%s stalled as expected: %d/%d rounds after %s",
				tenant, jobName, done, rounds, timeout)
			return nil
		}
		return fmt.Errorf("pingpong stalled: %d/%d rounds after %s", done, rounds, timeout)
	}
	s := metrics.Summarize(r.latUs[len(r.latUs)-rounds:])
	r.logf("pingpong %s/%s: %d rounds of %d B, one-way p50 %.3f us",
		tenant, jobName, rounds, bytes, s.P50)
	return nil
}

// runTraffic executes a named traffic spec over a job's gang: it waits for
// the job's pods, opens one netns-authenticated domain per pod on the
// job's VNI, connects an N-rank communicator and drives the collective
// iteration loop, recording the report under the run name for the
// traffic_* assertions.
func (r *Ops) runTraffic(ev *Event) error {
	tenant, jobName, timeout := ev.str("tenant"), ev.str("job"), ev.dur("timeout")
	runName, spec := runName(ev), r.sc.traffic(ev.str("traffic"))
	obj, ok := r.st.Cluster.Client.Get(k8s.KindJob, tenant, jobName)
	if !ok {
		return fmt.Errorf("job %s/%s does not exist", tenant, jobName)
	}
	ranks := obj.(*k8s.Job).Spec.Parallelism
	if ranks < 2 {
		return fmt.Errorf("job %s/%s has parallelism %d, need ≥ 2 ranks", tenant, jobName, ranks)
	}
	if ok := r.st.Eng.RunUntilDone(r.podsRunning(tenant, jobName, ranks), r.st.Eng.Now().Add(timeout)); !ok {
		return fmt.Errorf("timed out waiting for %d running pods of %s/%s", ranks, tenant, jobName)
	}
	vni, err := r.tenantVNI(tenant, jobName)
	if err != nil {
		return err
	}
	finished := false
	var rep workload.Report
	wspec := spec.Workload()
	r.wlTotal += wspec.Iterations
	progress := func(int) { r.wlDone++ }
	done := func(wr workload.Report) { rep, finished = wr, true }
	// The run owns the gangs it asks for: it closes them as it vacates and
	// completes, or when it is abandoned.
	env := workload.Env{Connect: func() (*workload.Gang, error) {
		return workload.PodGang(r.st, tenant, jobName, vni, fabric.TCBulkData)
	}}
	if r.daemon != nil {
		// Under the health loop the gang is migratable: when a member's
		// node gets cordoned, the run vacates at the next iteration
		// boundary and re-gangs once the evicted pods are rescheduled.
		env.Preempted = func() bool { return r.gangPreempted(tenant, jobName) }
		env.Ready = func() bool { return r.gangReady(tenant, jobName, ranks) }
	}
	abandon, err := workload.RunMigratable(r.st.Eng, r.st.Topo, wspec, env, progress, done)
	if err != nil {
		return err
	}
	if ok := r.st.Eng.RunUntilDone(func() bool { return finished }, r.st.Eng.Now().Add(timeout)); !ok {
		abandon()
		return fmt.Errorf("traffic %q stalled after %s (%d ranks, pattern %s)", runName, timeout, ranks, spec.Pattern)
	}
	r.traffic[runName] = rep
	if rep.Migrations > 0 {
		r.logf("traffic %s migrated %d time(s) off cordoned nodes", runName, rep.Migrations)
	}
	r.logf("traffic %s on %s/%s: %s x%d of %d B over %d ranks in %s (%s on global links)",
		runName, tenant, jobName, spec.Pattern, rep.Spec.Iterations, rep.Spec.Bytes,
		rep.Ranks, rep.Elapsed, metrics.FormatBytes(int(rep.GlobalLinkBytes)))
	return nil
}

type nullReceiver struct{}

func (nullReceiver) ReceivePacket(*fabric.Packet) {}
