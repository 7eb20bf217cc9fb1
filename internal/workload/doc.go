// Package workload is the job-scale traffic engine over the simulated
// deployment, and the one road from a running job to a traffic report: it
// brings up a gang of MPI ranks (gang.go) — a process exec'ed inside each
// running pod of a Kubernetes job, or host processes with a uid/gid on a
// list of nodes — whose libfabric domains it opens, connects into an
// N-rank communicator and owns until the gang is closed; runs a
// configurable iteration loop of collective operations (internal/mpi) on
// the virtual clock; and reports per-job completion time together with the
// fabric counters that explain it (global-link bytes, peak link
// utilization, trunk drops).
//
// The engine is what turns the dragonfly topology of internal/fabric from
// a data structure into an experiment platform: the same collective on the
// same fleet completes at very different speeds depending on whether the
// scheduler co-located the gang inside one group or spilled it across
// groups, and the report quantifies both the slowdown and the global-link
// traffic that causes it. The scenario DSL's traffic: section
// (internal/scenario, docs/workloads.md) and the collectives sweep in
// cmd/shsbench are the two front ends.
package workload
