// Package slurm models the classic HPC-side VNI management path the paper
// uses as its reference point (§II-C): "This approach is implemented, for
// instance, in Slurm via the daemon slurmd, which creates the required
// services during job creation." It provides a minimal slurmctld/slurmd
// pair: job submission allocates a VNI from the shared database and every
// node's slurmd creates a UID-member CXI service for the job's user before
// launching the job step; job completion tears them down and releases the
// VNI.
//
// Together with internal/vnisvc (the cloud path) and internal/drc (the
// user-driven path), this completes the three VNI-management regimes of a
// converged HPC-Cloud site, all drawing from one exclusive VNI pool.
package slurm

import (
	"errors"
	"fmt"
	"sync"

	"github.com/caps-sim/shs-k8s/internal/cxi"
	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/nsmodel"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/vnidb"
)

// Errors.
var (
	ErrNoSuchJob  = errors.New("slurm: no such job")
	ErrNoNodes    = errors.New("slurm: job needs at least one node")
	ErrJobRunning = errors.New("slurm: job already running")
)

// JobID identifies a Slurm job.
type JobID int

// JobState is the job lifecycle state.
type JobState string

// Job states.
const (
	StatePending   JobState = "PENDING"
	StateRunning   JobState = "RUNNING"
	StateCompleted JobState = "COMPLETED"
)

// Job is one allocation.
type Job struct {
	ID    JobID
	User  nsmodel.UID
	Group nsmodel.GID
	Nodes []string
	State JobState
	VNI   fabric.VNI
	// services maps node name -> CXI service created by that node's slurmd.
	services map[string]cxi.SvcID
}

// Node is one compute node under slurmd management.
type Node struct {
	Name   string
	Device *cxi.Device
}

// Controller is the slurmctld + slurmd ensemble.
type Controller struct {
	mu    sync.Mutex
	db    *vnidb.DB
	clock sim.Clock
	root  nsmodel.PID // slurmd runs as root
	nodes map[string]*Node
	jobs  map[JobID]*Job
	next  JobID
}

// NewController creates the ensemble over the shared VNI database.
func NewController(db *vnidb.DB, clock sim.Clock, root nsmodel.PID, nodes []*Node) *Controller {
	c := &Controller{db: db, clock: clock, root: root,
		nodes: make(map[string]*Node), jobs: make(map[JobID]*Job), next: 1}
	for _, n := range nodes {
		c.nodes[n.Name] = n
	}
	return c
}

// Submit allocates a job: a VNI from the pool plus one CXI service per
// allocated node, restricted to the submitting user's UID and GID — the
// member model slurmd uses on real systems.
func (c *Controller) Submit(user nsmodel.UID, group nsmodel.GID, nodeNames []string) (*Job, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(nodeNames) == 0 {
		return nil, ErrNoNodes
	}
	for _, n := range nodeNames {
		if _, ok := c.nodes[n]; !ok {
			return nil, fmt.Errorf("slurm: unknown node %q", n)
		}
	}
	job := &Job{ID: c.next, User: user, Group: group,
		Nodes: append([]string(nil), nodeNames...), State: StatePending,
		services: make(map[string]cxi.SvcID)}
	c.next++

	// slurmctld: acquire the job's VNI.
	err := c.db.Update(func(tx *vnidb.Tx) error {
		v, err := tx.Acquire(fmt.Sprintf("slurm/job-%d", job.ID), c.clock.Now())
		if err != nil {
			return err
		}
		job.VNI = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	// slurmd on each node: create the job's CXI service.
	for _, name := range job.Nodes {
		dev := c.nodes[name].Device
		id, err := dev.SvcAlloc(c.root, cxi.SvcDesc{
			Name:       fmt.Sprintf("slurm-job-%d", job.ID),
			Restricted: true,
			Members:    []cxi.Member{cxi.UIDMember(user), cxi.GIDMember(group)},
			VNIs:       []fabric.VNI{job.VNI},
		})
		if err != nil {
			c.rollbackLocked(job)
			return nil, fmt.Errorf("slurm: slurmd on %s: %w", name, err)
		}
		job.services[name] = id
	}
	job.State = StateRunning
	c.jobs[job.ID] = job
	return job, nil
}

// rollbackLocked undoes a partially set-up job.
func (c *Controller) rollbackLocked(job *Job) {
	for _, name := range job.Nodes {
		if id, ok := job.services[name]; ok {
			_ = c.nodes[name].Device.SvcDestroy(c.root, id)
		}
	}
	_ = c.db.Update(func(tx *vnidb.Tx) error {
		return tx.Release(job.VNI, c.clock.Now())
	})
}

// Complete finishes a job: services destroyed, VNI released (quarantined).
// Destruction fails while application endpoints remain open, mirroring the
// driver's refusal to remove busy services — Slurm epilogs handle this by
// killing user processes first; callers here must close endpoints. Nodes
// are torn down in submit order, so a refusal names the first busy node
// and leaves exactly the services from that node on.
func (c *Controller) Complete(id JobID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	job, ok := c.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchJob, id)
	}
	for _, name := range job.Nodes {
		svcID, ok := job.services[name]
		if !ok {
			continue // destroyed by an earlier, refused Complete
		}
		if err := c.nodes[name].Device.SvcDestroy(c.root, svcID); err != nil {
			return fmt.Errorf("slurm: teardown on %s: %w", name, err)
		}
		delete(job.services, name)
	}
	if err := c.db.Update(func(tx *vnidb.Tx) error {
		return tx.Release(job.VNI, c.clock.Now())
	}); err != nil {
		return err
	}
	job.State = StateCompleted
	delete(c.jobs, id)
	return nil
}

// Job returns a snapshot of a running job.
func (c *Controller) Job(id JobID) (Job, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return Job{}, false
	}
	out := *j
	out.services = nil
	return out, true
}

// ServiceOn returns the job's CXI service on a node.
func (c *Controller) ServiceOn(id JobID, node string) (cxi.SvcID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return 0, false
	}
	svc, ok := j.services[node]
	return svc, ok
}

// RunningJobs returns the number of live jobs.
func (c *Controller) RunningJobs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.jobs)
}
