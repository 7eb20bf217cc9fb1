// Quickstart: bring up the simulated two-node Slingshot-Kubernetes
// deployment, submit a job with the `vni: "true"` annotation (paper
// Listing 1), and run an RDMA ping-pong between its two pods over the
// job's private Virtual Network.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/stack"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
	"github.com/caps-sim/shs-k8s/internal/workload"
)

func main() {
	// 1. Assemble the deployment: fabric + CXI NICs + CNI chain +
	//    Kubernetes + VNI service (DESIGN.md §3).
	st := stack.New(stack.DefaultOptions())
	st.Cluster.CreateNamespace("quickstart")
	fmt.Println("cluster up: 2 nodes, VNI service installed")

	// 2. Submit a two-pod job requesting Slingshot access. The single
	//    annotation is the entire user-facing interface.
	job := &k8s.Job{
		Meta: k8s.Meta{
			Kind: k8s.KindJob, Namespace: "quickstart", Name: "pingpong",
			Annotations: map[string]string{vniapi.Annotation: "true"},
		},
		Spec: k8s.JobSpec{
			Parallelism: 2,
			Template:    k8s.PodSpec{Image: "pingpong:latest", RunDuration: time.Hour},
		},
	}
	st.Cluster.SubmitJob(job)

	// 3. Wait for the pods; the scheduler spreads them across both nodes.
	for i := 0; i < 100; i++ {
		st.Eng.RunFor(200 * time.Millisecond)
		if running(st) == 2 {
			break
		}
	}
	if running(st) != 2 {
		log.Fatal("pods did not start")
	}

	// 4. Read the VNI the service assigned to the job.
	vni, err := vniapi.JobVNI(vniapi.VNILister(st.Cluster.Client), "quickstart", "pingpong")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job admitted, VNI service assigned VNI %d\n", vni)

	// 5. Gang the job: one process exec'ed inside each pod opens an RDMA
	//    domain. Authentication is by the pod's network namespace — no
	//    UID/GID involved. Ranks follow pod-name order.
	gang, err := workload.PodGang(st, "quickstart", "pingpong", vni, fabric.TCLowLatency)
	if err != nil {
		log.Fatal(err)
	}
	comm := gang.Comm
	for rank, obj := range st.Cluster.Client.Lister(k8s.KindPod).List("quickstart") {
		pod := obj.(*k8s.Pod)
		fmt.Printf("  pod %s on %s: RDMA endpoint %v\n", pod.Meta.Name, pod.Spec.NodeName, comm.Ranks[rank].Addr())
	}

	// 6. Ping-pong: 1000 round trips of 8 B.
	const rounds = 1000
	done := 0
	start := st.Eng.Now()
	var round func()
	round = func() {
		if done >= rounds {
			return
		}
		comm.Ranks[1].Recv(func(sz int) { comm.Ranks[1].Isend(sz, nil) })
		comm.Ranks[0].SendRecv(8, func(int) {
			done++
			round()
		})
	}
	st.Eng.After(0, round)
	for done < rounds && st.Eng.Step() {
	}
	rtt := st.Eng.Now().Sub(start) / rounds
	fmt.Printf("pingpong: %d round trips, avg RTT %v (one-way latency ~%v)\n",
		rounds, rtt, rtt/2)

	// 7. Tear down: the ranks close their endpoints, so the CNI plugin can
	//    destroy the pods' CXI services; deleting the job releases the VNI
	//    (after the 30 s quarantine it becomes reusable).
	gang.Close()
	st.Cluster.Client.Delete(k8s.KindJob, "quickstart", "pingpong", nil)
	st.Eng.RunFor(30 * time.Second)
	stats := st.Counters(stack.DB).DB
	fmt.Printf("job deleted: %d VNIs allocated, %d quarantined\n", stats.Allocated, stats.Quarantined)
}

func running(st *stack.Stack) int {
	n := 0
	for _, obj := range st.Cluster.Client.Lister(k8s.KindPod).List("quickstart") {
		if obj.(*k8s.Pod).Status.Phase == k8s.PodRunning {
			n++
		}
	}
	return n
}
