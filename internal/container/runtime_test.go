package container

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/cni"
	"github.com/caps-sim/shs-k8s/internal/cxi"
	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/nsmodel"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
)

type rtEnv struct {
	eng  *sim.Engine
	kern *nsmodel.Kernel
	api  *k8s.APIServer
	dev  *cxi.Device
	sw   *fabric.Switch
	rt   *Runtime
	over *cni.OverlayPlugin
	cxip *cni.CXIPlugin
}

// newRTEnv builds a runtime whose chain is overlay → cxi → extra.
func newRTEnv(t *testing.T, extra ...cni.Plugin) *rtEnv {
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
	over := cni.NewOverlayPlugin(eng, "node0", "10.42.0")
	cxip := cni.NewCXIPlugin(eng, api.Client(), dev, root.PID)
	chain := cni.NewChain(eng, append([]cni.Plugin{over, cxip}, extra...)...)
	rt := NewRuntime(eng, kern, chain, "node0")
	return &rtEnv{eng: eng, kern: kern, api: api, dev: dev, sw: sw, rt: rt, over: over, cxip: cxip}
}

func (e *rtEnv) storePod(t *testing.T, name string, annotations map[string]string) *k8s.Pod {
	t.Helper()
	pod := &k8s.Pod{
		Meta: k8s.Meta{Kind: k8s.KindPod, Namespace: "ns", Name: name,
			Annotations: annotations,
			Labels:      map[string]string{"job-name": "job-" + name}},
	}
	e.api.Client().Create(pod, nil)
	e.eng.RunFor(time.Second)
	return pod
}

func (e *rtEnv) storeVNICRD(t *testing.T, jobName string, vni fabric.VNI) {
	t.Helper()
	e.api.Client().Create(&k8s.Custom{
		Meta: k8s.Meta{Kind: vniapi.KindVNI, Namespace: "ns", Name: "vni-" + jobName},
		Spec: map[string]string{vniapi.SpecVNI: fmt.Sprint(vni), vniapi.SpecJob: jobName},
	}, nil)
	e.eng.RunFor(time.Second)
}

// podDone records how the runtime ended a call: the setup error and how
// many calls ended.
type podDone struct {
	err   error
	calls int
}

func (d *podDone) SetupDone(err error) { d.err = err; d.calls++ }
func (d *podDone) TornDown()           { d.calls++ }

func (e *rtEnv) setup(t *testing.T, pod *k8s.Pod) error {
	t.Helper()
	var d podDone
	e.rt.SetupPod(pod, &d)
	e.eng.RunFor(time.Minute)
	if d.calls != 1 {
		t.Fatalf("SetupPod completed %d times", d.calls)
	}
	return d.err
}

func (e *rtEnv) teardown(t *testing.T, pod *k8s.Pod) {
	t.Helper()
	var d podDone
	e.rt.TeardownPod(pod, &d)
	e.eng.RunFor(time.Minute)
	if d.calls != 1 {
		t.Fatalf("TeardownPod completed %d times", d.calls)
	}
}

func TestSetupCreatesIsolatedSandbox(t *testing.T) {
	e := newRTEnv(t)
	pod := e.storePod(t, "p1", nil)
	if err := e.setup(t, pod); err != nil {
		t.Fatal(err)
	}
	sb, ok := e.rt.SandboxFor("ns", "p1")
	if !ok {
		t.Fatal("sandbox missing")
	}
	if sb.NetNS == e.kern.HostNetNS() {
		t.Error("pod shares host netns")
	}
	if sb.UserNS == e.kern.HostUserNS() {
		t.Error("pod shares the host user namespace")
	}
	if len(sb.Result.Interfaces) != 1 {
		t.Errorf("interfaces = %+v", sb.Result.Interfaces)
	}
}

func TestSetupVNIPodCreatesService(t *testing.T) {
	e := newRTEnv(t)
	pod := e.storePod(t, "p1", map[string]string{vniapi.Annotation: "true"})
	e.storeVNICRD(t, "job-p1", 5000)
	if err := e.setup(t, pod); err != nil {
		t.Fatal(err)
	}
	sb, _ := e.rt.SandboxFor("ns", "p1")
	if sb.Result.CXI == nil || sb.Result.CXI.VNI != 5000 {
		t.Fatalf("cxi = %+v", sb.Result.CXI)
	}
	// A process exec'd in the pod can allocate an endpoint on the VNI —
	// even as container root with a forged UID, because auth is by netns.
	p, err := e.rt.Exec("ns", "p1", "app", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := e.dev.EPAlloc(p.PID, cxi.SvcID(sb.Result.CXI.SvcID), 5000, fabric.TCDedicated)
	if err != nil {
		t.Fatalf("EPAlloc from pod: %v", err)
	}
	ep.Close()
}

func TestSetupFailureCleansUpAndDeletesNamespaces(t *testing.T) {
	e := newRTEnv(t)
	// VNI-annotated pod with no VNI CRD: the CXI plugin will fail ADD.
	pod := e.storePod(t, "fail", map[string]string{vniapi.Annotation: "true"})
	if err := e.setup(t, pod); err == nil {
		t.Fatal("setup succeeded without VNI")
	}
	if _, ok := e.rt.SandboxFor("ns", "fail"); ok {
		t.Error("sandbox left behind after failed setup")
	}
	if e.rt.Sandboxes() != 0 {
		t.Error("sandbox count nonzero")
	}
	if n := len(e.dev.SvcList()); n != 1 {
		t.Errorf("services = %d after failed setup", n)
	}
}

func TestTeardownKillsProcessesAndDeletesServices(t *testing.T) {
	e := newRTEnv(t)
	pod := e.storePod(t, "p1", map[string]string{vniapi.Annotation: "true"})
	e.storeVNICRD(t, "job-p1", 5000)
	if err := e.setup(t, pod); err != nil {
		t.Fatal(err)
	}
	p, err := e.rt.Exec("ns", "p1", "app", 1000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	e.teardown(t, pod)
	if _, alive := e.kern.Process(p.PID); alive {
		t.Error("container process survived teardown")
	}
	if n := len(e.dev.SvcList()); n != 1 {
		t.Errorf("services after teardown = %d", n)
	}
	if e.sw.HasVNI(e.dev.Addr(), 5000) {
		t.Error("VNI grant survived teardown")
	}
	// Teardown of unknown pod is a no-op.
	e.teardown(t, pod)
}

func TestHostNetworkPodSkipsCNI(t *testing.T) {
	e := newRTEnv(t)
	pod := &k8s.Pod{
		Meta: k8s.Meta{Kind: k8s.KindPod, Namespace: "ns", Name: "hostpod"},
		Spec: k8s.PodSpec{HostNetwork: true},
	}
	e.api.Client().Create(pod, nil)
	e.eng.RunFor(time.Second)
	if err := e.setup(t, pod); err != nil {
		t.Fatal(err)
	}
	sb, _ := e.rt.SandboxFor("ns", "hostpod")
	if sb.NetNS != e.kern.HostNetNS() {
		t.Error("host-network pod not in host netns")
	}
	if e.cxip.Stats().AddsTotal != 0 {
		t.Error("CNI invoked for host-network pod")
	}
	e.teardown(t, pod)
}

func TestExecRequiresSandbox(t *testing.T) {
	e := newRTEnv(t)
	if _, err := e.rt.Exec("ns", "ghost", "app", 0, 0); err == nil {
		t.Error("Exec succeeded without sandbox")
	}
}

func TestDoubleSetupRejected(t *testing.T) {
	e := newRTEnv(t)
	pod := e.storePod(t, "p1", nil)
	if err := e.setup(t, pod); err != nil {
		t.Fatal(err)
	}
	if err := e.setup(t, pod); err == nil {
		t.Error("second setup accepted")
	}
}

func TestUserNamespaceIdentityShift(t *testing.T) {
	e := newRTEnv(t)
	podA := e.storePod(t, "a", nil)
	podB := e.storePod(t, "b", nil)
	if err := e.setup(t, podA); err != nil {
		t.Fatal(err)
	}
	if err := e.setup(t, podB); err != nil {
		t.Fatal(err)
	}
	pa, _ := e.rt.Exec("ns", "a", "app", 0, 0)
	pb, _ := e.rt.Exec("ns", "b", "app", 0, 0)
	ua, _, _ := e.kern.HostCredentials(pa.PID)
	ub, _, _ := e.kern.HostCredentials(pb.PID)
	if ua == 0 || ub == 0 {
		t.Error("container root mapped to host root")
	}
	if ua == ub {
		t.Error("two pods share a UID shift")
	}
}

// failingPlugin appends its interface to prev and then fails its ADD, the
// partial attachment the CNI spec makes the runtime clean up with DEL.
type failingPlugin struct {
	eng   *sim.Engine
	netns nsmodel.Inode
	dels  int
}

func (f *failingPlugin) Name() string { return "failing" }

func (f *failingPlugin) Add(args cni.Args, prev *cni.Result, done func(*cni.Result, error)) {
	f.eng.After(time.Millisecond, func() {
		f.netns = args.NetNS
		prev.AddInterface(cni.Interface{Name: "net1", Sandbox: args.NetNS})
		done(nil, errors.New("injected failure"))
	})
}

func (f *failingPlugin) Del(args cni.Args, done func(error)) {
	f.dels++
	f.eng.After(time.Millisecond, func() { done(nil) })
}

func (f *failingPlugin) Check(args cni.Args, done func(error)) { done(nil) }

func TestPluginFailingAfterItsInterfaceIsCleanedUp(t *testing.T) {
	bad := &failingPlugin{}
	e := newRTEnv(t, bad)
	bad.eng = e.eng
	pod := e.storePod(t, "p1", map[string]string{vniapi.Annotation: "true"})
	e.storeVNICRD(t, "job-p1", 5000)
	if err := e.setup(t, pod); !errors.Is(err, cni.ErrPluginFailed) {
		t.Fatalf("setup = %v, want ErrPluginFailed", err)
	}
	// DEL ran over the whole chain: the failing plugin, the CXI plugin
	// (whose service is gone) and the overlay (whose attachment is gone).
	if bad.dels != 1 || e.cxip.Stats().DelsTotal != 1 || e.over.Attachments() != 0 {
		t.Errorf("DEL visits: failing %d, cxi %d; overlay attachments left %d",
			bad.dels, e.cxip.Stats().DelsTotal, e.over.Attachments())
	}
	if _, ok := e.rt.SandboxFor("ns", "p1"); ok || e.rt.Sandboxes() != 0 {
		t.Error("sandbox left behind after failed setup")
	}
	if ids := e.dev.SvcFindByMember(cxi.NetNSMember(bad.netns)); len(ids) != 0 {
		t.Errorf("CXI services %v still name the failed pod's netns", ids)
	}
	if _, ok := e.kern.NetNS(bad.netns); ok {
		t.Error("netns of the failed pod survived")
	}
	if n := e.rt.steps.Len(); n != 1 || !e.rt.steps.Idle() {
		t.Errorf("runtime free list made %d records (idle %v), want it to hold the 1 that was in flight", n, e.rt.steps.Idle())
	}
}

// TestSandboxAllocations pins what one warm pod's network costs: a vni:true
// pod's sandbox, CNI ADD through overlay and CXI plugin, and its teardown.
// Each of the ten objects an ADD allocates outlives it — they are the
// pod's network, not the machinery that built it:
//
//	pod key, container ID, Sandbox, NetNamespace, UserNamespace  (runtime)
//	Result, which holds its interface and CXI attachment         (chain)
//	the pod IP                                                   (overlay)
//	service name, Members, the cxi.Svc                           (CXI plugin)
//
// DEL allocates nothing. Chain steps, plugin steps and the runtime's own
// continuation are recycled records: a count above the pin has put a
// closure or a copy back on the path.
func TestSandboxAllocations(t *testing.T) {
	const runs = 50
	e := newRTEnv(t)
	e.storeVNICRD(t, "job-p", 5000)
	pods := make([]*k8s.Pod, 2*(runs+1)) // AllocsPerRun runs once more to warm up
	for i := range pods {
		pods[i] = &k8s.Pod{Meta: k8s.Meta{Kind: k8s.KindPod, Namespace: "ns", Name: fmt.Sprint("p", i),
			Annotations: map[string]string{vniapi.Annotation: "true"},
			Labels:      map[string]string{"job-name": "job-p"}}}
		e.api.Client().Create(pods[i], nil)
	}
	e.eng.RunFor(time.Second)
	done := &podDone{}
	// Grow every map to its size in the measurement with the first half.
	warm, measured := pods[:runs+1], pods[runs+1:]
	for _, pod := range warm {
		e.rt.SetupPod(pod, done)
	}
	e.eng.RunFor(time.Minute)
	for _, pod := range warm {
		e.rt.TeardownPod(pod, done)
	}
	e.eng.RunFor(time.Minute)

	i := 0
	add := testing.AllocsPerRun(runs, func() {
		e.rt.SetupPod(measured[i], done)
		e.eng.RunFor(time.Minute)
		i++
	})
	if done.err != nil || e.rt.Sandboxes() != runs+1 {
		t.Fatalf("%d sandboxes after the measured ADDs (last error %v)", e.rt.Sandboxes(), done.err)
	}
	i = 0
	del := testing.AllocsPerRun(runs, func() {
		e.rt.TeardownPod(measured[i], done)
		e.eng.RunFor(time.Minute)
		i++
	})
	if e.rt.Sandboxes() != 0 || len(e.dev.SvcList()) != 1 {
		t.Fatalf("%d sandboxes, %d services after the measured DELs", e.rt.Sandboxes(), len(e.dev.SvcList()))
	}
	if add != wantSandboxAddAllocs || del != 0 {
		t.Errorf("a warm pod's ADD allocates %v objects and its DEL %v; want %d and 0", add, del, wantSandboxAddAllocs)
	}
}

const wantSandboxAddAllocs = 10
