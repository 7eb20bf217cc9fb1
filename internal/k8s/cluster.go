package k8s

import "github.com/caps-sim/shs-k8s/internal/sim"

// ClusterConfig assembles a whole control plane.
type ClusterConfig struct {
	NodeNames []string
	API       APILatency
	Scheduler SchedulerConfig
	JobCtl    JobControllerConfig
	Kubelet   KubeletConfig
}

// DefaultClusterConfig returns the two-node configuration matching the
// paper's OpenCUBE pilot deployment.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		NodeNames: []string{"node0", "node1"},
		API:       DefaultAPILatency(),
		Scheduler: DefaultSchedulerConfig(),
		JobCtl:    DefaultJobControllerConfig(),
		Kubelet:   DefaultKubeletConfig(),
	}
}

// Cluster bundles the control-plane components.
type Cluster struct {
	Eng *sim.Engine
	API *APIServer
	// Client is the shared typed client every consumer reads and writes
	// through: informer-backed listers, filtered watches, optimistic
	// concurrency.
	Client    *Client
	Scheduler *Scheduler
	JobCtl    *JobController
	Kubelets  []*Kubelet
	jobs      *Informer
}

// NewCluster builds a cluster. runtimeFor supplies each node's container
// runtime (the production one wires in the CNI chain with the CXI plugin).
func NewCluster(eng *sim.Engine, cfg ClusterConfig, runtimeFor func(node string) Runtime) *Cluster {
	api := NewAPIServer(eng, cfg.API)
	cli := api.Client()
	c := &Cluster{
		Eng:       eng,
		API:       api,
		Client:    cli,
		Scheduler: NewScheduler(cli, cfg.Scheduler, cfg.NodeNames),
		JobCtl:    NewJobController(cli, cfg.JobCtl),
		jobs:      cli.Informer(KindJob),
	}
	for _, n := range cfg.NodeNames {
		node := &Node{Meta: Meta{Kind: KindNode, Name: n}}
		cli.Create(node, nil)
		c.Kubelets = append(c.Kubelets, NewKubelet(cli, cfg.Kubelet, n, runtimeFor(n)))
	}
	return c
}

// CreateNamespace registers a namespace.
func (c *Cluster) CreateNamespace(name string) {
	c.Client.Create(&Namespace{Meta: Meta{Kind: KindNamespace, Name: name}}, nil)
}

// SubmitJob creates a job resource, which the store keeps (see
// Client.Create). Submissions ride the retry layer, so a job submitted into
// an apiserver outage is queued with backoff rather than lost.
func (c *Cluster) SubmitJob(job *Job) {
	job.Meta.Kind = KindJob
	c.Client.Create(job, nil)
}

// Job returns the current state of a job (a live read of the committed
// object: read-only).
func (c *Cluster) Job(namespace, name string) (*Job, bool) {
	obj, ok := c.Client.Get(KindJob, namespace, name)
	if !ok {
		return nil, false
	}
	return obj.(*Job), true
}

// ActiveJobs counts jobs with at least one non-terminal pod — the quantity
// plotted as "Running Jobs" in the paper's Figures 9 and 11. It ranges the
// job informer's cache directly: a count needs no key order, so sampling it
// every virtual second costs neither a sort nor a copy.
func (c *Cluster) ActiveJobs() int {
	c.jobs.noteRead()
	n := 0
	for _, r := range c.jobs.t.recs {
		if job, ok := r.cached.(*Job); ok && !job.Status.Completed && job.Status.Active > 0 {
			n++
		}
	}
	return n
}

// EchoJob builds the paper's admission workload: one alpine container
// running a single echo command, deleted immediately after completion.
func EchoJob(namespace, name string, annotations map[string]string) *Job {
	return &Job{
		Meta: Meta{
			Kind:        KindJob,
			Namespace:   namespace,
			Name:        name,
			Annotations: annotations,
		},
		Spec: JobSpec{
			Parallelism: 1,
			Template: PodSpec{
				Image:                  "alpine:latest",
				RunDuration:            50e6, // ~50 ms for `echo` incl. shell startup
				TerminationGracePeriod: 0,
			},
			DeleteAfterFinished: true,
		},
	}
}
