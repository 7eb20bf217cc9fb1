// Converged: the full HPC-Cloud convergence picture. Three VNI-management
// regimes share one fabric and one exclusive VNI pool:
//
//   - a Slurm batch job (classic HPC path: slurmd creates UID-member CXI
//     services during job creation, §II-C),
//   - a user-requested Dynamic RDMA Credential (the DRC path, §II-C),
//   - a Kubernetes job with the paper's VNI Service (the cloud path, §III).
//
// All three get distinct VNIs, all three communicate over the same switch,
// and none can reach the others' Virtual Networks.
//
//	go run ./examples/converged
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/caps-sim/shs-k8s/internal/cxi"
	"github.com/caps-sim/shs-k8s/internal/drc"
	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/slurm"
	"github.com/caps-sim/shs-k8s/internal/stack"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
)

func main() {
	st := stack.New(stack.DefaultOptions())
	root, err := st.Kernel.Spawn("site-daemons", 0, 0, 0, 0)
	if err != nil {
		log.Fatal(err)
	}

	// --- HPC path: Slurm ---
	slurmCtl := slurm.NewController(st.DB, st.Eng, root.PID, []*slurm.Node{
		{Name: "node0", Device: st.Nodes[0].Device},
		{Name: "node1", Device: st.Nodes[1].Device},
	})
	hpcJob, err := slurmCtl.Submit(3001, 3001, []string{"node0", "node1"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("slurm job %d: VNI %d, services on node0+node1 (UID-member auth)\n", hpcJob.ID, hpcJob.VNI)

	// --- User path: DRC ---
	drcSvc := drc.NewService(st.DB, st.Eng, root.PID)
	cred, err := drcSvc.Acquire(4001)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := drcSvc.Redeem(cred.ID, 4001, st.Nodes[0].Device); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("drc credential %d: VNI %d, redeemed on node0\n", cred.ID, cred.VNI)

	// --- Cloud path: Kubernetes + VNI Service ---
	st.Cluster.CreateNamespace("cloud")
	kjob := k8s.EchoJob("cloud", "workflow", map[string]string{vniapi.Annotation: "true"})
	kjob.Spec.Template.RunDuration = time.Hour
	kjob.Spec.DeleteAfterFinished = false
	st.Cluster.SubmitJob(kjob)
	st.Eng.RunFor(10 * time.Second)
	k8sVNI, err := vniapi.JobVNI(vniapi.VNILister(st.Cluster.Client), "cloud", "workflow")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("k8s job workflow: VNI %d via VNI Service (netns-member auth)\n\n", k8sVNI)

	// Exclusivity across regimes.
	if hpcJob.VNI == cred.VNI || hpcJob.VNI == k8sVNI || cred.VNI == k8sVNI {
		log.Fatal("VNI exclusivity violated across management paths")
	}
	fmt.Println("VNI exclusivity across slurm/drc/k8s: ok")
	fmt.Printf("shared pool state: %+v\n\n", st.Counters(stack.DB).DB)

	// Cross-regime isolation: the Slurm user cannot allocate on the k8s
	// job's VNI, and the pod cannot allocate on the Slurm VNI.
	slurmUser, _ := st.Kernel.Spawn("mpi-rank", 3001, 3001, 0, 0)
	if _, err := st.Nodes[0].Device.EPAlloc(slurmUser.PID, mustSvc(slurmCtl, hpcJob.ID), k8sVNI, fabric.TCDedicated); err != nil {
		fmt.Printf("slurm user on k8s VNI: denied (%v)\n", errShort(err))
	} else {
		log.Fatal("slurm user reached k8s VNI")
	}
	pod := firstRunningPod(st, "cloud")
	node, _ := st.NodeByName(pod.Spec.NodeName)
	podProc, err := node.Runtime.Exec("cloud", pod.Meta.Name, "app", 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := node.Device.EPAlloc(podProc.PID, mustSvc(slurmCtl, hpcJob.ID), hpcJob.VNI, fabric.TCDedicated); err != nil {
		fmt.Printf("pod process on slurm VNI: denied (%v)\n", errShort(err))
	} else {
		log.Fatal("pod reached slurm VNI")
	}

	// Each regime works within its own domain.
	svc0, _ := slurmCtl.ServiceOn(hpcJob.ID, "node0")
	ep, err := st.Nodes[0].Device.EPAlloc(slurmUser.PID, svc0, hpcJob.VNI, fabric.TCDedicated)
	if err != nil {
		log.Fatal(err)
	}
	ep.Close()
	fmt.Println("slurm user on own VNI: ok")

	// Clean teardown of all three.
	if err := slurmCtl.Complete(hpcJob.ID); err != nil {
		log.Fatal(err)
	}
	if err := drcSvc.Withdraw(cred.ID, 4001, st.Nodes[0].Device); err != nil {
		log.Fatal(err)
	}
	if err := drcSvc.Release(cred.ID, 4001); err != nil {
		log.Fatal(err)
	}
	st.Cluster.Client.Delete(k8s.KindJob, "cloud", "workflow", nil)
	st.Eng.RunFor(20 * time.Second)
	fmt.Printf("\nafter teardown: %+v (all VNIs quarantined, none allocated)\n", st.Counters(stack.DB).DB)
}

func firstRunningPod(st *stack.Stack, ns string) *k8s.Pod {
	for _, obj := range st.Cluster.Client.Lister(k8s.KindPod).List(ns) {
		pod := obj.(*k8s.Pod)
		if pod.Status.Phase == k8s.PodRunning {
			return pod
		}
	}
	log.Fatal("no running pod")
	return nil
}

func mustSvc(ctl *slurm.Controller, id slurm.JobID) cxi.SvcID {
	svc, ok := ctl.ServiceOn(id, "node0")
	if !ok {
		log.Fatal("slurm service missing")
	}
	return svc
}

func errShort(err error) string {
	s := err.Error()
	if len(s) > 60 {
		return s[:60] + "..."
	}
	return s
}
