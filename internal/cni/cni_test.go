package cni

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/caps-sim/shs-k8s/internal/cxi"
	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/nsmodel"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
)

type cniEnv struct {
	eng  *sim.Engine
	kern *nsmodel.Kernel
	api  *k8s.APIServer
	sw   *fabric.Switch
	dev  *cxi.Device
	root *nsmodel.Process
	cxip *CXIPlugin
	over *OverlayPlugin
	ch   *Chain
}

func newCNIEnv(t *testing.T) *cniEnv {
	t.Helper()
	eng := sim.NewEngine(1)
	kern := nsmodel.NewKernel()
	fcfg := fabric.DefaultConfig()
	fcfg.JitterFrac = 0
	sw := fabric.NewSwitch("s", eng, fcfg)
	dev := cxi.NewDevice("cxi0", eng, kern, sw, cxi.DefaultDeviceConfig())
	api := k8s.NewAPIServer(eng, k8s.DefaultAPILatency())
	root, err := kern.Spawn("cni-root", 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	over := NewOverlayPlugin(eng, "node0", "10.42.0")
	cxip := NewCXIPlugin(eng, api.Client(), dev, root.PID)
	ch := NewChain(eng, over, cxip)
	return &cniEnv{eng: eng, kern: kern, api: api, sw: sw, dev: dev, root: root, cxip: cxip, over: over, ch: ch}
}

// createPod stores a pod object and returns it after the API settles.
func (e *cniEnv) createPod(t *testing.T, name string, annotations map[string]string, grace sim.Duration) *k8s.Pod {
	t.Helper()
	pod := &k8s.Pod{
		Meta: k8s.Meta{Kind: k8s.KindPod, Namespace: "tenant", Name: name,
			Annotations: annotations,
			Labels:      map[string]string{"job-name": "job-" + name}},
		Spec: k8s.PodSpec{TerminationGracePeriod: grace},
	}
	e.api.Client().Create(pod, nil)
	e.eng.RunFor(time.Second)
	return pod
}

// createVNICRD stores the VNI CRD instance the controller would create.
func (e *cniEnv) createVNICRD(t *testing.T, jobName string, vni fabric.VNI) {
	t.Helper()
	cr := &k8s.Custom{
		Meta: k8s.Meta{Kind: vniapi.KindVNI, Namespace: "tenant", Name: "vni-" + jobName},
		Spec: map[string]string{vniapi.SpecVNI: fmt.Sprint(vni), vniapi.SpecJob: jobName},
	}
	e.api.Client().Create(cr, nil)
	e.eng.RunFor(time.Second)
}

func (e *cniEnv) add(t *testing.T, args Args) (*Result, error) {
	t.Helper()
	var res *Result
	var err error
	doneCh := false
	e.ch.Add(args, func(r *Result, e2 error) { res, err, doneCh = r, e2, true })
	e.eng.RunFor(time.Minute)
	if !doneCh {
		t.Fatal("ADD never completed")
	}
	return res, err
}

func (e *cniEnv) del(t *testing.T, args Args) error {
	t.Helper()
	var err error
	doneCh := false
	e.ch.Del(args, func(e2 error) { err, doneCh = e2, true })
	e.eng.RunFor(time.Minute)
	if !doneCh {
		t.Fatal("DEL never completed")
	}
	return err
}

func TestChainedAddConfiguresOverlayAndCXI(t *testing.T) {
	e := newCNIEnv(t)
	e.createPod(t, "p1", map[string]string{vniapi.Annotation: "true"}, 0)
	e.createVNICRD(t, "job-p1", 4242)
	ns := e.kern.NewNetNS("p1")
	res, err := e.add(t, Args{ContainerID: "c1", NetNS: ns.Inode, PodNamespace: "tenant", PodName: "p1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Interfaces) != 1 || res.Interfaces[0].Name != "eth0" {
		t.Errorf("interfaces = %+v", res.Interfaces)
	}
	if res.CXI == nil || res.CXI.VNI != 4242 {
		t.Fatalf("cxi attachment = %+v", res.CXI)
	}
	// The CXI service must authenticate processes in the pod netns.
	app, _ := e.kern.Spawn("app", 0, 0, ns.Inode, 0)
	ep, err := e.dev.EPAlloc(app.PID, cxi.SvcID(res.CXI.SvcID), 4242, fabric.TCDedicated)
	if err != nil {
		t.Fatalf("pod process cannot use its CXI service: %v", err)
	}
	ep.Close()
	if !e.sw.HasVNI(e.dev.Addr(), 4242) {
		t.Error("VNI not granted on switch")
	}
	st := e.cxip.Stats()
	if st.AddsConfigured != 1 || st.AddsPassthru != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestAddPassthroughWithoutAnnotation(t *testing.T) {
	e := newCNIEnv(t)
	e.createPod(t, "plain", nil, 0)
	ns := e.kern.NewNetNS("plain")
	res, err := e.add(t, Args{ContainerID: "c2", NetNS: ns.Inode, PodNamespace: "tenant", PodName: "plain"})
	if err != nil {
		t.Fatal(err)
	}
	if res.CXI != nil {
		t.Error("CXI configured for non-VNI pod")
	}
	if e.cxip.Stats().AddsPassthru != 1 {
		t.Errorf("stats = %+v", e.cxip.Stats())
	}
	if len(e.dev.SvcList()) != 1 { // only the default service
		t.Errorf("services = %d, want only default", len(e.dev.SvcList()))
	}
}

func TestAddFailsWithoutVNICRD(t *testing.T) {
	e := newCNIEnv(t)
	e.createPod(t, "orphan", map[string]string{vniapi.Annotation: "true"}, 0)
	ns := e.kern.NewNetNS("orphan")
	_, err := e.add(t, Args{ContainerID: "c3", NetNS: ns.Inode, PodNamespace: "tenant", PodName: "orphan"})
	if err == nil {
		t.Fatal("ADD succeeded with no VNI available")
	}
	if !errors.Is(err, ErrPluginFailed) {
		t.Errorf("err = %v", err)
	}
	if e.cxip.Stats().AddsFailed != 1 {
		t.Errorf("stats = %+v", e.cxip.Stats())
	}
}

func TestAddRetriesUntilCRDAppears(t *testing.T) {
	e := newCNIEnv(t)
	e.createPod(t, "late", map[string]string{vniapi.Annotation: "true"}, 0)
	ns := e.kern.NewNetNS("late")
	var res *Result
	var err error
	completed := false
	e.ch.Add(Args{ContainerID: "c4", NetNS: ns.Inode, PodNamespace: "tenant", PodName: "late"},
		func(r *Result, e2 error) { res, err, completed = r, e2, true })
	// CRD appears after ~400 ms, within the retry budget.
	e.eng.After(400*time.Millisecond, func() {
		cr := &k8s.Custom{
			Meta: k8s.Meta{Kind: vniapi.KindVNI, Namespace: "tenant", Name: "vni-late"},
			Spec: map[string]string{vniapi.SpecVNI: "777", vniapi.SpecJob: "job-late"},
		}
		e.api.Client().Create(cr, nil)
	})
	e.eng.RunFor(time.Minute)
	if !completed {
		t.Fatal("ADD never completed")
	}
	if err != nil {
		t.Fatalf("ADD failed despite CRD arriving within retries: %v", err)
	}
	if res.CXI == nil || res.CXI.VNI != 777 {
		t.Errorf("cxi = %+v", res.CXI)
	}
}

func TestAddEnforcesGracePeriodCeiling(t *testing.T) {
	e := newCNIEnv(t)
	e.createPod(t, "slow", map[string]string{vniapi.Annotation: "true"},
		sim.Duration(45*time.Second))
	e.createVNICRD(t, "job-slow", 1000)
	ns := e.kern.NewNetNS("slow")
	_, err := e.add(t, Args{ContainerID: "c5", NetNS: ns.Inode, PodNamespace: "tenant", PodName: "slow"})
	if err == nil {
		t.Fatal("ADD accepted grace period > 30s")
	}
}

func TestDelDestroysCXIService(t *testing.T) {
	e := newCNIEnv(t)
	e.createPod(t, "p1", map[string]string{vniapi.Annotation: "true"}, 0)
	e.createVNICRD(t, "job-p1", 4242)
	ns := e.kern.NewNetNS("p1")
	args := Args{ContainerID: "c1", NetNS: ns.Inode, PodNamespace: "tenant", PodName: "p1"}
	if _, err := e.add(t, args); err != nil {
		t.Fatal(err)
	}
	if err := e.del(t, args); err != nil {
		t.Fatal(err)
	}
	if n := len(e.dev.SvcList()); n != 1 {
		t.Errorf("services after DEL = %d, want 1 (default)", n)
	}
	if e.sw.HasVNI(e.dev.Addr(), 4242) {
		t.Error("VNI still granted after DEL")
	}
	// DEL is idempotent.
	if err := e.del(t, args); err != nil {
		t.Errorf("second DEL: %v", err)
	}
	if e.cxip.Stats().SvcsDestroyed != 1 {
		t.Errorf("stats = %+v", e.cxip.Stats())
	}
}

func TestDelViaMemberSearchAfterPluginRestart(t *testing.T) {
	e := newCNIEnv(t)
	e.createPod(t, "p1", map[string]string{vniapi.Annotation: "true"}, 0)
	e.createVNICRD(t, "job-p1", 4242)
	ns := e.kern.NewNetNS("p1")
	args := Args{ContainerID: "c1", NetNS: ns.Inode, PodNamespace: "tenant", PodName: "p1"}
	if _, err := e.add(t, args); err != nil {
		t.Fatal(err)
	}
	// Simulate plugin restart: fresh plugin with empty state.
	e.cxip = NewCXIPlugin(e.eng, e.api.Client(), e.dev, e.root.PID)
	e.ch = NewChain(e.eng, e.over, e.cxip)
	if err := e.del(t, args); err != nil {
		t.Fatal(err)
	}
	if n := len(e.dev.SvcList()); n != 1 {
		t.Errorf("services after restart DEL = %d", n)
	}
}

func TestCheckDetectsVanishedService(t *testing.T) {
	e := newCNIEnv(t)
	e.createPod(t, "p1", map[string]string{vniapi.Annotation: "true"}, 0)
	e.createVNICRD(t, "job-p1", 4242)
	ns := e.kern.NewNetNS("p1")
	args := Args{ContainerID: "c1", NetNS: ns.Inode, PodNamespace: "tenant", PodName: "p1"}
	res, err := e.add(t, args)
	if err != nil {
		t.Fatal(err)
	}
	var checkErr error
	completed := false
	e.ch.Check(args, func(err error) { checkErr, completed = err, true })
	e.eng.RunFor(time.Second)
	if !completed || checkErr != nil {
		t.Fatalf("healthy CHECK: %v (completed=%v)", checkErr, completed)
	}
	// Destroy the service behind the plugin's back.
	if err := e.dev.SvcDestroy(e.root.PID, cxi.SvcID(res.CXI.SvcID)); err != nil {
		t.Fatal(err)
	}
	completed = false
	e.ch.Check(args, func(err error) { checkErr, completed = err, true })
	e.eng.RunFor(time.Second)
	if !completed || checkErr == nil {
		t.Error("CHECK missed vanished service")
	}
}

func TestChainAbortsOnFirstAddFailure(t *testing.T) {
	e := newCNIEnv(t)
	// No pod object at all: overlay succeeds, cxi fails on pod lookup.
	ns := e.kern.NewNetNS("ghost")
	_, err := e.add(t, Args{ContainerID: "cg", NetNS: ns.Inode, PodNamespace: "tenant", PodName: "ghost"})
	if err == nil {
		t.Fatal("chain ADD succeeded for missing pod")
	}
	// Overlay attached before the failure; runtime-level cleanup calls
	// DEL, which must visit overlay despite the earlier cxi failure.
	if e.over.Attachments() != 1 {
		t.Fatalf("attachments = %d", e.over.Attachments())
	}
	if err := e.del(t, Args{ContainerID: "cg", NetNS: ns.Inode, PodNamespace: "tenant", PodName: "ghost"}); err != nil {
		t.Fatal(err)
	}
	if e.over.Attachments() != 0 {
		t.Error("overlay attachment leaked after DEL")
	}
}

func TestOverlayAssignsDistinctIPs(t *testing.T) {
	e := newCNIEnv(t)
	seen := map[string]bool{}
	for i := 0; i < 5; i++ {
		e.createPod(t, fmt.Sprintf("ip%d", i), nil, 0)
		ns := e.kern.NewNetNS("x")
		res, err := e.add(t, Args{ContainerID: fmt.Sprintf("ipc%d", i), NetNS: ns.Inode,
			PodNamespace: "tenant", PodName: fmt.Sprintf("ip%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		ip := res.Interfaces[0].IP
		if seen[ip] {
			t.Fatalf("duplicate IP %s", ip)
		}
		seen[ip] = true
	}
}

func TestOverlayAddRejectsInvalidNetns(t *testing.T) {
	e := newCNIEnv(t)
	e.createPod(t, "bad", nil, 0)
	_, err := e.add(t, Args{ContainerID: "cb", NetNS: nsmodel.InvalidInode,
		PodNamespace: "tenant", PodName: "bad"})
	if err == nil {
		t.Fatal("ADD accepted invalid netns")
	}
}

func TestTwoTenantsGetIsolatedServices(t *testing.T) {
	e := newCNIEnv(t)
	e.createPod(t, "a", map[string]string{vniapi.Annotation: "true"}, 0)
	e.createPod(t, "b", map[string]string{vniapi.Annotation: "true"}, 0)
	e.createVNICRD(t, "job-a", 100)
	e.createVNICRD(t, "job-b", 200)
	nsA := e.kern.NewNetNS("a")
	nsB := e.kern.NewNetNS("b")
	resA, err := e.add(t, Args{ContainerID: "ca", NetNS: nsA.Inode, PodNamespace: "tenant", PodName: "a"})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := e.add(t, Args{ContainerID: "cb", NetNS: nsB.Inode, PodNamespace: "tenant", PodName: "b"})
	if err != nil {
		t.Fatal(err)
	}
	if resA.CXI.VNI == resB.CXI.VNI {
		t.Fatal("tenants share a VNI")
	}
	// Tenant A's process cannot allocate through tenant B's service.
	appA, _ := e.kern.Spawn("appA", 0, 0, nsA.Inode, 0)
	if _, err := e.dev.EPAlloc(appA.PID, cxi.SvcID(resB.CXI.SvcID), 200, fabric.TCDedicated); err == nil {
		t.Error("tenant A allocated through tenant B's service")
	}
}

// Property: for any sequence of ADD/DEL operations on distinct containers,
// the device's service count equals 1 (default) + live VNI-annotated
// containers, and DEL is always idempotent.
func TestQuickChainAddDelAccounting(t *testing.T) {
	f := func(ops []bool) bool {
		e := newCNIEnvQuick()
		live := map[string]Args{}
		next := 0
		for _, isAdd := range ops {
			if isAdd {
				name := fmt.Sprintf("q%d", next)
				next++
				pod := &k8s.Pod{
					Meta: k8s.Meta{Kind: k8s.KindPod, Namespace: "tenant", Name: name,
						Annotations: map[string]string{vniapi.Annotation: "true"},
						Labels:      map[string]string{"job-name": "job-" + name}},
				}
				e.api.Client().Create(pod, nil)
				e.api.Client().Create(&k8s.Custom{
					Meta: k8s.Meta{Kind: vniapi.KindVNI, Namespace: "tenant", Name: "vni-job-" + name},
					Spec: map[string]string{vniapi.SpecVNI: fmt.Sprint(2000 + next), vniapi.SpecJob: "job-" + name},
				}, nil)
				e.eng.RunFor(time.Second)
				ns := e.kern.NewNetNS(name)
				args := Args{ContainerID: "c-" + name, NetNS: ns.Inode, PodNamespace: "tenant", PodName: name}
				okAdd := false
				e.ch.Add(args, func(r *Result, err error) { okAdd = err == nil })
				e.eng.RunFor(time.Minute)
				if !okAdd {
					return false
				}
				live[name] = args
			} else {
				for name, args := range live {
					okDel := false
					e.ch.Del(args, func(err error) { okDel = err == nil })
					e.eng.RunFor(time.Minute)
					if !okDel {
						return false
					}
					delete(live, name)
					break
				}
			}
			if got := len(e.dev.SvcList()); got != 1+len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(77))}); err != nil {
		t.Error(err)
	}
}

// newCNIEnvQuick builds the environment without *testing.T for quick.Check.
func newCNIEnvQuick() *cniEnv {
	eng := sim.NewEngine(99)
	kern := nsmodel.NewKernel()
	fcfg := fabric.DefaultConfig()
	fcfg.JitterFrac, fcfg.RunSigma = 0, 0
	sw := fabric.NewSwitch("s", eng, fcfg)
	dev := cxi.NewDevice("cxi0", eng, kern, sw, cxi.DefaultDeviceConfig())
	api := k8s.NewAPIServer(eng, k8s.DefaultAPILatency())
	root, err := kern.Spawn("cni-root", 0, 0, 0, 0)
	if err != nil {
		panic(err)
	}
	over := NewOverlayPlugin(eng, "node0", "10.42.0")
	cxip := NewCXIPlugin(eng, api.Client(), dev, root.PID)
	ch := NewChain(eng, over, cxip)
	return &cniEnv{eng: eng, kern: kern, api: api, sw: sw, dev: dev, cxip: cxip, over: over, ch: ch}
}

// probePlugin records the interfaces each ADD finds in prev, appends its
// own, and fails after appending when told to.
type probePlugin struct {
	eng  *sim.Engine
	name string
	fail bool
	seen [][]string
	dels int
}

func (p *probePlugin) Name() string { return p.name }

func (p *probePlugin) Add(args Args, prev *Result, done func(*Result, error)) {
	p.eng.After(time.Millisecond, func() {
		var names []string
		for _, iface := range prev.Interfaces {
			names = append(names, iface.Name)
		}
		p.seen = append(p.seen, names)
		prev.AddInterface(Interface{Name: p.name, Sandbox: args.NetNS})
		if p.fail {
			done(nil, errors.New("injected failure"))
			return
		}
		done(prev, nil)
	})
}

func (p *probePlugin) Del(args Args, done func(error)) {
	p.dels++
	p.eng.After(time.Millisecond, func() { done(nil) })
}

func (p *probePlugin) Check(args Args, done func(error)) { done(nil) }

func TestEachPluginSeesThePreviousInterfaces(t *testing.T) {
	e := newCNIEnv(t)
	a := &probePlugin{eng: e.eng, name: "net1"}
	b := &probePlugin{eng: e.eng, name: "net2"}
	e.ch = NewChain(e.eng, e.over, a, b)
	ns := e.kern.NewNetNS("p")
	res, err := e.add(t, Args{ContainerID: "c", NetNS: ns.Inode, PodNamespace: "tenant", PodName: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(a.seen, b.seen); got != "[[eth0]] [[eth0 net1]]" {
		t.Errorf("plugins saw %s, want [[eth0]] [[eth0 net1]]", got)
	}
	if len(res.Interfaces) != 3 || res.Interfaces[2].Name != "net2" {
		t.Errorf("result interfaces = %+v", res.Interfaces)
	}
}

func TestAddFailureReportsNoResult(t *testing.T) {
	e := newCNIEnv(t)
	bad := &probePlugin{eng: e.eng, name: "bad", fail: true}
	e.ch = NewChain(e.eng, e.over, bad)
	ns := e.kern.NewNetNS("p")
	res, err := e.add(t, Args{ContainerID: "c", NetNS: ns.Inode, PodNamespace: "tenant", PodName: "p"})
	if err == nil || !errors.Is(err, ErrPluginFailed) || res != nil {
		t.Fatalf("ADD through a failing plugin = %+v, %v; want nil, ErrPluginFailed", res, err)
	}
}

// TestAddFindsVNIAfterTwoRetries makes the VNI CRD appear while the second
// retry waits out its backoff: the initial fetch and the first retry miss,
// the second retry finds it, and the ADD completes exactly once.
func TestAddFindsVNIAfterTwoRetries(t *testing.T) {
	e := newCNIEnv(t)
	e.createPod(t, "late", map[string]string{vniapi.Annotation: "true"}, 0)
	ns := e.kern.NewNetNS("late")
	// The free list is LIFO: the ADD takes this record, which the test
	// then watches count down its retries.
	st := e.cxip.steps.Get()
	e.cxip.steps.Put(st)
	calls := 0
	var res *Result
	var err error
	e.ch.Add(Args{ContainerID: "c", NetNS: ns.Inode, PodNamespace: "tenant", PodName: "late"},
		func(r *Result, e2 error) { res, err = r, e2; calls++ })
	for st.job == "" || st.retries > vniFetchRetries-2 {
		if !e.eng.Step() {
			t.Fatal("ADD finished before its second retry")
		}
	}
	e.api.Client().Create(&k8s.Custom{
		Meta: k8s.Meta{Kind: vniapi.KindVNI, Namespace: "tenant", Name: "vni-late"},
		Spec: map[string]string{vniapi.SpecVNI: "777", vniapi.SpecJob: "job-late"},
	}, nil)
	for calls == 0 && e.eng.Step() {
		if st.job != "" && st.retries != vniFetchRetries-2 {
			t.Fatalf("ADD retried a third time (%d retries left)", st.retries)
		}
	}
	if calls != 1 || err != nil || res == nil || res.CXI == nil || res.CXI.VNI != 777 {
		t.Fatalf("ADD completed %d times with %+v, %v; want once with VNI 777", calls, res, err)
	}
	if s := e.cxip.Stats(); s.AddsTotal != 1 || s.AddsConfigured != 1 || s.AddsFailed != 0 {
		t.Errorf("stats = %+v", s)
	}
	if n := len(e.dev.SvcFindByMember(cxi.NetNSMember(ns.Inode))); n != 1 {
		t.Errorf("%d services for the netns, want 1", n)
	}
}

// TestFreeListsHoldEveryRecordAfterDrain runs n ADDs, n CHECKs and n DELs
// at once: each verb has n records in flight at every layer, so a drained
// chain holds exactly n of each — fewer is a leaked record, more a record
// put back twice.
func TestFreeListsHoldEveryRecordAfterDrain(t *testing.T) {
	const n = 4
	e := newCNIEnv(t)
	var args [n]Args
	for i := range args {
		name := fmt.Sprintf("p%d", i)
		e.createPod(t, name, map[string]string{vniapi.Annotation: "true"}, 0)
		e.createVNICRD(t, "job-"+name, fabric.VNI(100+i))
		args[i] = Args{ContainerID: "c-" + name, NetNS: e.kern.NewNetNS(name).Inode, PodNamespace: "tenant", PodName: name}
	}
	completed := 0
	for _, a := range args {
		e.ch.Add(a, func(_ *Result, err error) {
			if err != nil {
				t.Error(err)
			}
			completed++
		})
	}
	e.eng.RunFor(time.Minute)
	for _, a := range args {
		e.ch.Check(a, func(err error) {
			if err != nil {
				t.Error(err)
			}
			completed++
		})
	}
	e.eng.RunFor(time.Minute)
	for _, a := range args {
		e.ch.Del(a, func(err error) {
			if err != nil {
				t.Error(err)
			}
			completed++
		})
	}
	e.eng.RunFor(time.Minute)
	if completed != 3*n {
		t.Fatalf("%d of %d verbs completed", completed, 3*n)
	}
	if c, o, x := e.ch.ops.Len(), e.over.steps.Len(), e.cxip.steps.Len(); c != n || o != n || x != n {
		t.Errorf("free lists made chain %d, overlay %d, cxi %d records; want %d each", c, o, x, n)
	}
	if !e.ch.ops.Idle() || !e.over.steps.Idle() || !e.cxip.steps.Idle() {
		t.Error("a free list does not hold every record it made")
	}
}
