package container

import (
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
	cxip *cni.CXIPlugin
}

func newRTEnv(t *testing.T) *rtEnv {
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
	cxip := cni.NewCXIPlugin(eng, api.Client(), dev, root.PID, cni.DefaultCXIPluginConfig())
	chain := cni.NewChain(eng, 5*time.Millisecond, over, cxip)
	rt := NewRuntime(eng, kern, chain, DefaultConfig(), "node0")
	return &rtEnv{eng: eng, kern: kern, api: api, dev: dev, sw: sw, rt: rt, cxip: cxip}
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

func (e *rtEnv) setup(t *testing.T, pod *k8s.Pod) error {
	t.Helper()
	var err error
	completed := false
	e.rt.SetupPod(pod, func(e2 error) { err, completed = e2, true })
	e.eng.RunFor(time.Minute)
	if !completed {
		t.Fatal("SetupPod never completed")
	}
	return err
}

func (e *rtEnv) teardown(t *testing.T, pod *k8s.Pod) {
	t.Helper()
	completed := false
	e.rt.TeardownPod(pod, func() { completed = true })
	e.eng.RunFor(time.Minute)
	if !completed {
		t.Fatal("TeardownPod never completed")
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
		t.Error("pod shares host userns despite UserNamespaces=true")
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
