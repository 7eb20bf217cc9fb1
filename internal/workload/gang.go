package workload

import (
	"fmt"

	"github.com/caps-sim/shs-k8s/internal/cxi"
	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/libfabric"
	"github.com/caps-sim/shs-k8s/internal/mpi"
	"github.com/caps-sim/shs-k8s/internal/nsmodel"
	"github.com/caps-sim/shs-k8s/internal/stack"
)

// Gang is a set of ranks ready to communicate: one process per rank, each
// holding an authenticated libfabric domain on the gang's VNI, connected
// into Comm in rank order. The gang owns the domains — whoever builds one
// closes it, which releases the CXI endpoints and lets the services behind
// them be destroyed (a CNI DEL or a Slurm epilog refuses a busy service).
type Gang struct {
	Comm *mpi.Comm
	doms []*libfabric.Domain
}

// Close releases every rank's domain. Closing twice is harmless.
func (g *Gang) Close() {
	for _, d := range g.doms {
		d.Close()
	}
}

// PodGang execs one process inside each running pod of a Kubernetes job —
// the netns-membership authentication the paper's data path requires — in
// pod-name order (the lister's), so rank numbering is deterministic for a
// given placement.
func PodGang(st *stack.Stack, tenant, job string, vni fabric.VNI, tc fabric.TrafficClass) (*Gang, error) {
	var pods []*k8s.Pod
	for _, obj := range st.Cluster.Client.Lister(k8s.KindPod).List(tenant) {
		pod := obj.(*k8s.Pod)
		if pod.Meta.Labels["job-name"] != job || pod.Status.Phase != k8s.PodRunning {
			continue
		}
		pods = append(pods, pod)
	}
	if len(pods) < 2 {
		return nil, fmt.Errorf("workload: job %s/%s has %d running pod(s), need ≥ 2 for a gang", tenant, job, len(pods))
	}
	return bringUp(st, len(pods), vni, tc, func(rank int) (*cxi.Device, nsmodel.PID, error) {
		pod := pods[rank]
		node, ok := st.NodeByName(pod.Spec.NodeName)
		if !ok {
			return nil, 0, fmt.Errorf("pod %s on unknown node %s", pod.Meta.Name, pod.Spec.NodeName)
		}
		proc, err := node.Runtime.Exec(pod.Meta.Namespace, pod.Meta.Name, fmt.Sprintf("rank%d", rank), 0, 0)
		if err != nil {
			return nil, 0, err
		}
		return node.Device, proc.PID, nil
	})
}

// HostGang spawns one host process per node, in argument order, running as
// uid/gid: the bare-metal path, authenticating against the default service
// (VNI 1) or against UID/GID-member services such as the ones slurmd
// creates for a job's user, in contrast to PodGang's netns authentication.
func HostGang(st *stack.Stack, uid nsmodel.UID, gid nsmodel.GID, nodes []*stack.Node, vni fabric.VNI, tc fabric.TrafficClass) (*Gang, error) {
	return bringUp(st, len(nodes), vni, tc, func(rank int) (*cxi.Device, nsmodel.PID, error) {
		proc, err := st.Kernel.Spawn(fmt.Sprintf("rank%d", rank), uid, gid, 0, 0)
		if err != nil {
			return nil, 0, err
		}
		return nodes[rank].Device, proc.PID, nil
	})
}

// bringUp is the one road from processes to a communicator: start starts
// rank i's process and names its NIC, the domain is opened as that process,
// and the ranks are connected. A failure on the way closes what was opened.
func bringUp(st *stack.Stack, ranks int, vni fabric.VNI, tc fabric.TrafficClass,
	start func(rank int) (*cxi.Device, nsmodel.PID, error)) (*Gang, error) {
	g := &Gang{}
	for rank := 0; rank < ranks; rank++ {
		var d *libfabric.Domain
		dev, pid, err := start(rank)
		if err == nil {
			d, err = libfabric.OpenDomain(st.Eng, libfabric.Info{Device: dev, Caller: pid, VNI: vni, TC: tc})
		}
		if err != nil {
			g.Close()
			return nil, fmt.Errorf("workload: rank %d: %w", rank, err)
		}
		g.doms = append(g.doms, d)
	}
	comm, err := mpi.Connect(st.Eng, g.doms...)
	if err != nil {
		g.Close()
		return nil, fmt.Errorf("workload: %w", err)
	}
	g.Comm = comm
	return g, nil
}
