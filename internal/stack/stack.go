// Package stack assembles the complete simulated deployment: the kernel
// namespace model, the Slingshot fabric with one CXI NIC per node, the CNI
// chain (overlay + CXI plugin) and container runtime on each node, the
// Kubernetes control plane, and — when enabled — the VNI Service. It is the
// single entry point used by examples, experiments and benchmarks.
package stack

import (
	"fmt"

	"github.com/caps-sim/shs-k8s/internal/cni"
	"github.com/caps-sim/shs-k8s/internal/container"
	"github.com/caps-sim/shs-k8s/internal/cxi"
	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/nsmodel"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/vnidb"
	"github.com/caps-sim/shs-k8s/internal/vnisvc"
)

// Options configure a deployment.
type Options struct {
	Seed  int64
	Nodes int
	// VNIService installs the paper's integration (vni:true runs); when
	// false the cluster is the vni:false baseline with only the globally
	// accessible default VNI.
	VNIService bool
	Fabric     fabric.Config
	// Topology shapes the fabric: dragonfly groups, switches per group
	// and NIC striping. The default (1 group × 1 switch) reproduces the
	// paper's single-switch pilot byte for byte.
	Topology fabric.TopologySpec
	Device   cxi.DeviceConfig
	Cluster  k8s.ClusterConfig
	DB       vnidb.Options
}

// DefaultOptions mirrors the paper's two-node OpenCUBE deployment.
func DefaultOptions() Options {
	return Options{
		Seed:       1,
		Nodes:      2,
		VNIService: true,
		Fabric:     fabric.DefaultConfig(),
		Topology:   fabric.DefaultTopologySpec(),
		Device:     cxi.DefaultDeviceConfig(),
		Cluster:    k8s.DefaultClusterConfig(),
		DB:         vnidb.DefaultOptions(),
	}
}

// Node bundles one worker's per-node components.
type Node struct {
	Name    string
	Device  *cxi.Device
	Runtime *container.Runtime
	CXICNI  *cni.CXIPlugin
	Overlay *cni.OverlayPlugin
	// SwitchIndex is the edge switch the node's NIC attaches to; Group
	// is that switch's dragonfly group.
	SwitchIndex int
	Group       int
}

// Stack is a fully assembled deployment.
type Stack struct {
	Opts   Options
	Eng    *sim.Engine
	Kernel *nsmodel.Kernel
	// Topo is the fabric topology every NIC is attached to.
	Topo    *fabric.Topology
	Cluster *k8s.Cluster
	Nodes   []*Node
	DB      *vnidb.DB
	// VNISvc is nil when Options.VNIService is false.
	VNISvc *vnisvc.Service
	// CNIRoot is the privileged process CNI plugins run as.
	CNIRoot nsmodel.PID
}

// New assembles a deployment.
func New(opts Options) *Stack {
	if opts.Nodes <= 0 {
		opts.Nodes = 2
	}
	eng := sim.NewEngine(opts.Seed)
	kern := nsmodel.NewKernel()
	topo := fabric.NewTopology(eng, opts.Fabric, opts.Topology)
	root, err := kern.Spawn("cni-root", 0, 0, 0, 0)
	if err != nil {
		panic(err) // fresh kernel: cannot fail
	}

	s := &Stack{Opts: opts, Eng: eng, Kernel: kern, Topo: topo, CNIRoot: root.PID}
	s.DB = vnidb.Open(opts.DB)

	names := make([]string, opts.Nodes)
	for i := range names {
		names[i] = fmt.Sprintf("node%d", i)
	}
	opts.Cluster.NodeNames = names
	// Topology-aware placement: hand the scheduler the node→group map so
	// it can co-locate a job's pods within a dragonfly group. A single
	// group carries no information, so the map stays nil and scoring
	// reduces to the plain least-loaded spread.
	if topo.Spec().Groups > 1 {
		groups := make(map[string]int, len(names))
		for i, name := range names {
			groups[name] = topo.GroupOf(topo.SwitchForNode(i))
		}
		opts.Cluster.Scheduler.NodeGroups = groups
	}

	// Per-node data plane: each NIC attaches to its edge switch under the
	// topology's striping. The CXI CNI plugin needs the API server, which
	// is created with the cluster, which in turn needs each node's
	// runtime — a construction cycle broken by lazyRuntime, a dispatcher
	// resolved on first use (no pod can reach a kubelet before New
	// returns, so the indirection is safe).
	for i, name := range names {
		swIdx := topo.SwitchForNode(i)
		dev := cxi.NewDevice(fmt.Sprintf("cxi%d", i), eng, kern, topo.Switches()[swIdx], opts.Device)
		over := cni.NewOverlayPlugin(eng, name, fmt.Sprintf("10.42.%d", i))
		s.Nodes = append(s.Nodes, &Node{
			Name: name, Device: dev, Overlay: over,
			SwitchIndex: swIdx, Group: topo.GroupOf(swIdx),
		})
	}

	cluster := k8s.NewCluster(eng, opts.Cluster, func(nodeName string) k8s.Runtime {
		return &lazyRuntime{stack: s, node: nodeName}
	})
	s.Cluster = cluster

	for _, node := range s.Nodes {
		cxip := cni.NewCXIPlugin(eng, cluster.Client, node.Device, root.PID)
		node.CXICNI = cxip
		chain := cni.NewChain(eng, node.Overlay, cxip)
		node.Runtime = container.NewRuntime(eng, kern, chain, node.Name)
	}

	if opts.VNIService {
		s.VNISvc = vnisvc.Install(cluster.Client, cluster.JobCtl, s.DB)
	}
	// Let node registration settle.
	eng.RunFor(1e9)
	return s
}

// lazyRuntime defers to the node's real runtime, which is constructed just
// after the cluster (see New). No pod can reach a kubelet before New
// returns, so the indirection is safe.
type lazyRuntime struct {
	stack *Stack
	node  string
}

func (l *lazyRuntime) resolve() *container.Runtime {
	for _, n := range l.stack.Nodes {
		if n.Name == l.node {
			return n.Runtime
		}
	}
	panic("stack: unknown node " + l.node)
}

// SetupPod implements k8s.Runtime.
func (l *lazyRuntime) SetupPod(pod *k8s.Pod, done k8s.PodDone) { l.resolve().SetupPod(pod, done) }

// TeardownPod implements k8s.Runtime.
func (l *lazyRuntime) TeardownPod(pod *k8s.Pod, done k8s.PodDone) { l.resolve().TeardownPod(pod, done) }

// FailNIC administratively downs the named node's NIC port on the switch,
// modelling a NIC or cable fault: all traffic to or from the node is dropped
// with fabric.DropLinkDown until RecoverNIC.
func (s *Stack) FailNIC(node string) error {
	n, ok := s.NodeByName(node)
	if !ok {
		return fmt.Errorf("stack: fail nic: unknown node %q", node)
	}
	return s.Topo.SetPortDown(n.Device.Addr(), true)
}

// RecoverNIC brings a failed NIC back. VNI grants were retained, so traffic
// flows again immediately.
func (s *Stack) RecoverNIC(node string) error {
	n, ok := s.NodeByName(node)
	if !ok {
		return fmt.Errorf("stack: recover nic: unknown node %q", node)
	}
	return s.Topo.SetPortDown(n.Device.Addr(), false)
}

// PartitionFabric splits the fabric in two: the named nodes form one
// partition group, every other port (including rogue test ports) the other.
// Cross-partition packets drop with fabric.DropPartitioned until
// Topo.SetPartition(nil) heals it.
func (s *Stack) PartitionFabric(nodes []string) error {
	groups := make(map[fabric.Addr]int, len(nodes))
	for _, name := range nodes {
		n, ok := s.NodeByName(name)
		if !ok {
			return fmt.Errorf("stack: partition: unknown node %q", name)
		}
		groups[n.Device.Addr()] = 1
	}
	s.Topo.SetPartition(groups)
	return nil
}

// NodeByName returns the node bundle.
func (s *Stack) NodeByName(name string) (*Node, bool) {
	for _, n := range s.Nodes {
		if n.Name == name {
			return n, true
		}
	}
	return nil, false
}

// RuntimeForPod returns the runtime hosting a scheduled pod.
func (s *Stack) RuntimeForPod(namespace, name string) (*container.Runtime, bool) {
	obj, ok := s.Cluster.Client.Get(k8s.KindPod, namespace, name)
	if !ok {
		return nil, false
	}
	pod := obj.(*k8s.Pod)
	node, ok := s.NodeByName(pod.Spec.NodeName)
	if !ok {
		return nil, false
	}
	return node.Runtime, true
}
