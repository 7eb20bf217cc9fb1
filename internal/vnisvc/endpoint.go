// Package vnisvc implements the paper's core contribution (C): the VNI
// Service, which manages the lifetime and association of Slingshot VNIs in
// a Kubernetes cluster (paper §III-C). It comprises
//
//   - the VNI Endpoint: webhook handlers with Metacontroller apply
//     semantics (/sync, /finalize) in front of the ACID VNI Database, and
//   - the VNI Controller: two decorator controllers (one for Jobs, one for
//     VniClaims) built on internal/metactl, plus the pod-creation gate that
//     holds a job's pods until its VNI CRD instance exists.
//
// Both ownership models are implemented: Per-Resource VNIs (annotation
// vni:"true": the job owns a fresh VNI) and VNI Claims (annotation
// vni:"<claim-name>": jobs redeem a claim's VNI and are tracked as users).
package vnisvc

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/metactl"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
	"github.com/caps-sim/shs-k8s/internal/vnidb"
)

// Errors surfaced by the endpoint.
var (
	ErrNoSuchClaim = errors.New("vnisvc: no such vni claim")
)

// EndpointStats counts endpoint activity.
type EndpointStats struct {
	JobSyncs      uint64
	JobFinalizes  uint64
	ClaimSyncs    uint64
	ClaimFinals   uint64
	Acquisitions  uint64
	Releases      uint64
	UsersAdded    uint64
	UsersRemoved  uint64
	SyncErrors    uint64
	StalledFinals uint64 // claim finalizations deferred due to live users
}

// Endpoint is the VNI Endpoint: webhook logic over the VNI database. All
// database work runs in single serialized transactions, so concurrent
// acquisitions cannot race (paper §III-C2). The endpoint itself serves one
// hook call at a time: its counters and the slice a /sync answer lists its
// child in are its own, and that answer is valid until the next call.
type Endpoint struct {
	db    *vnidb.DB
	clock sim.Clock
	stats EndpointStats
	// child is the one-element slice a /sync answer that builds a new child
	// lists it in.
	child [1]*k8s.Custom
}

// NewEndpoint creates the endpoint.
func NewEndpoint(db *vnidb.DB, clock sim.Clock) *Endpoint {
	return &Endpoint{db: db, clock: clock}
}

// DB exposes the underlying database (for inspection and the CLI).
func (e *Endpoint) DB() *vnidb.DB { return e.db }

// Stats returns a copy of the counters.
func (e *Endpoint) Stats() EndpointStats { return e.stats }

// AppendJobKeyPrefix appends job/<namespace>/<name>/, the prefix of every
// database key that names the job: the owner of its own VNI and its user
// entry on a claim's VNI. The CNI binary finds a pod's VNI by it.
func AppendJobKeyPrefix(b []byte, namespace, name string) []byte {
	b = append(append(b, "job/"...), namespace...)
	b = append(append(b, '/'), name...)
	return append(b, '/')
}

// appendOwnerForJob appends the database owner key for a job-owned VNI,
// job/<namespace>/<name>/<uid>. The UID makes re-created same-name jobs
// distinct owners.
func appendOwnerForJob(b []byte, m *k8s.Meta) []byte {
	return append(AppendJobKeyPrefix(b, m.Namespace, m.Name), m.UID...)
}

func ownerForJob(m *k8s.Meta) string {
	var buf [96]byte
	return string(appendOwnerForJob(buf[:0], m))
}

// ownerForClaim builds the database owner key for a claim-owned VNI.
// Claims are keyed by namespace and the VniClaim object's name — the name
// jobs put in their annotation (paper Listing 3 redeems the claim object
// "vni-claim-test" by exactly that name); Kubernetes enforces its
// uniqueness within the namespace, as the paper requires.
func ownerForClaim(namespace, claimName string) string {
	return "claim/" + namespace + "/" + claimName
}

// userForJob is the database user key for a job redeeming a claim.
func userForJob(m *k8s.Meta) string { return ownerForJob(m) }

// The VNI CRD instance attached to a job, or owned by a claim object, is
// named after its parent behind one of these prefixes.
const (
	jobChildPrefix   = "vni-"
	claimChildPrefix = "vni-claim-"
)

// desiredChild answers a /sync with the one child, named prefix+parent,
// whose spec is exactly vni plus the given key/value pairs. When the
// request's observed children already hold that child — that name, those
// values, no other key — the answer is that child itself, the committed
// object the decorator passed in: apply semantics' own form of "nothing to
// change", which is what every re-sync after a status write comes to.
// Otherwise a new child is built and listed in the endpoint's slice; its
// name and its SpecVNI value are two substrings of one string.
func (e *Endpoint) desiredChild(req metactl.SyncRequest, prefix, parent string, vni fabric.VNI, kv ...string) metactl.SyncResponse {
	var buf [64]byte
	b := append(append(buf[:0], prefix...), parent...)
	n := len(b)
	b = strconv.AppendUint(b, uint64(vni), 10)
	digits := b[n:]
	for i, c := range req.Children {
		if strings.HasPrefix(c.Meta.Name, prefix) && c.Meta.Name[len(prefix):] == parent &&
			len(c.Spec) == 1+len(kv)/2 && c.Spec[vniapi.SpecVNI] == string(digits) && hasPairs(c.Spec, kv) {
			return metactl.SyncResponse{Children: req.Children[i : i+1]}
		}
	}
	id := string(b)
	spec := make(map[string]string, 1+len(kv)/2)
	spec[vniapi.SpecVNI] = id[n:]
	for i := 0; i < len(kv); i += 2 {
		spec[kv[i]] = kv[i+1]
	}
	e.child[0] = &k8s.Custom{Meta: k8s.Meta{Name: id[:n]}, Spec: spec}
	return metactl.SyncResponse{Children: e.child[:]}
}

func hasPairs(spec map[string]string, kv []string) bool {
	for i := 0; i < len(kv); i += 2 {
		if v, ok := spec[kv[i]]; !ok || v != kv[i+1] {
			return false
		}
	}
	return true
}

// JobHooks returns the webhook implementation for the job decorator.
func (e *Endpoint) JobHooks() metactl.Hooks { return jobHooks{e} }

// ClaimHooks returns the webhook implementation for the claim decorator.
func (e *Endpoint) ClaimHooks() metactl.Hooks { return claimHooks{e} }

type jobHooks struct{ e *Endpoint }

// Sync implements /sync for jobs (paper: "The /sync endpoint is called for
// both newly created jobs and VNI Claims"; it is idempotent).
func (h jobHooks) Sync(req metactl.SyncRequest) (metactl.SyncResponse, error) {
	e := h.e
	e.stats.JobSyncs++
	job, ok := req.Parent.(*k8s.Job)
	if !ok {
		e.stats.SyncErrors++
		return metactl.SyncResponse{}, fmt.Errorf("vnisvc: job sync got %T", req.Parent)
	}
	requested, claim := vniapi.Requested(job.Meta.Annotations)
	if !requested {
		return metactl.SyncResponse{}, nil
	}
	if claim == "" {
		return e.syncPerResourceJob(req, job)
	}
	return e.syncClaimJob(req, job, claim)
}

// syncPerResourceJob acquires (idempotently) a fresh VNI owned by the job
// and returns the owning VNI CRD instance.
func (e *Endpoint) syncPerResourceJob(req metactl.SyncRequest, job *k8s.Job) (metactl.SyncResponse, error) {
	// The key becomes a string only for an owner the database has not seen.
	var buf [96]byte
	owner := appendOwnerForJob(buf[:0], &job.Meta)
	var vni fabric.VNI
	err := e.db.Update(func(tx *vnidb.Tx) error {
		if row, ok := tx.FindByOwnerKey(owner); ok {
			vni = row.VNI // idempotent re-sync
			return nil
		}
		v, err := tx.Acquire(string(owner), e.clock.Now())
		if err != nil {
			return err
		}
		e.stats.Acquisitions++
		vni = v
		return nil
	})
	if err != nil {
		e.stats.SyncErrors++
		return metactl.SyncResponse{}, err
	}
	return e.desiredChild(req, jobChildPrefix, job.Meta.Name, vni,
		vniapi.SpecJob, job.Meta.Name), nil
}

// syncClaimJob attaches the job to an existing claim's VNI: it (1) searches
// the database for the VNI associated with the claim, (2) adds the job as a
// user of that VNI, and (3) returns a "virtual" (non-owning) VNI CRD
// instance — the exact three steps of paper §III-C2.
func (e *Endpoint) syncClaimJob(req metactl.SyncRequest, job *k8s.Job, claim string) (metactl.SyncResponse, error) {
	owner := ownerForClaim(job.Meta.Namespace, claim)
	user := userForJob(&job.Meta)
	var vni fabric.VNI
	err := e.db.Update(func(tx *vnidb.Tx) error {
		row, ok := tx.FindByOwner(owner)
		if !ok {
			return fmt.Errorf("%w: %q in namespace %q", ErrNoSuchClaim, claim, job.Meta.Namespace)
		}
		vni = row.VNI
		if slices.Contains(row.Users, user) {
			return nil // idempotent re-sync
		}
		if err := tx.AddUser(row.VNI, user, e.clock.Now()); err != nil {
			return err
		}
		e.stats.UsersAdded++
		return nil
	})
	if err != nil {
		e.stats.SyncErrors++
		return metactl.SyncResponse{}, err
	}
	return e.desiredChild(req, jobChildPrefix, job.Meta.Name, vni,
		vniapi.SpecJob, job.Meta.Name, vniapi.SpecClaim, claim, vniapi.SpecVirtual, "true"), nil
}

// Finalize implements /finalize for jobs: owning jobs release their VNI;
// claim-redeeming jobs are removed as users. Idempotent.
func (h jobHooks) Finalize(req metactl.SyncRequest) (metactl.FinalizeResponse, error) {
	e := h.e
	e.stats.JobFinalizes++
	job, ok := req.Parent.(*k8s.Job)
	if !ok {
		return metactl.FinalizeResponse{Finalized: true}, nil
	}
	requested, claim := vniapi.Requested(job.Meta.Annotations)
	if !requested {
		return metactl.FinalizeResponse{Finalized: true}, nil
	}
	if claim == "" {
		owner := ownerForJob(&job.Meta)
		err := e.db.Update(func(tx *vnidb.Tx) error {
			row, ok := tx.FindByOwner(owner)
			if !ok {
				return nil // already released
			}
			if err := tx.Release(row.VNI, e.clock.Now()); err != nil {
				return err
			}
			e.stats.Releases++
			return nil
		})
		if err != nil {
			return metactl.FinalizeResponse{}, err
		}
		return metactl.FinalizeResponse{Finalized: true}, nil
	}
	owner := ownerForClaim(job.Meta.Namespace, claim)
	user := userForJob(&job.Meta)
	err := e.db.Update(func(tx *vnidb.Tx) error {
		row, ok := tx.FindByOwner(owner)
		if !ok {
			return nil // claim already gone
		}
		if !slices.Contains(row.Users, user) {
			return nil // already removed
		}
		if err := tx.RemoveUser(row.VNI, user, e.clock.Now()); err != nil {
			return err
		}
		e.stats.UsersRemoved++
		return nil
	})
	if err != nil {
		return metactl.FinalizeResponse{}, err
	}
	return metactl.FinalizeResponse{Finalized: true}, nil
}

type claimHooks struct{ e *Endpoint }

// claimName is the identity jobs redeem: the VniClaim object's name (see
// ownerForClaim). The spec.name field from paper Listing 2 is retained as
// a human-readable label.
func claimName(c *k8s.Custom) string {
	return c.Meta.Name
}

// Sync implements /sync for VniClaim objects: acquire the claim's VNI and
// return the owning VNI CRD instance.
func (h claimHooks) Sync(req metactl.SyncRequest) (metactl.SyncResponse, error) {
	e := h.e
	e.stats.ClaimSyncs++
	c, ok := req.Parent.(*k8s.Custom)
	if !ok || c.Meta.Kind != vniapi.KindVniClaim {
		e.stats.SyncErrors++
		return metactl.SyncResponse{}, fmt.Errorf("vnisvc: claim sync got %T", req.Parent)
	}
	owner := ownerForClaim(c.Meta.Namespace, claimName(c))
	var vni fabric.VNI
	err := e.db.Update(func(tx *vnidb.Tx) error {
		if row, ok := tx.FindByOwner(owner); ok {
			vni = row.VNI
			return nil
		}
		v, err := tx.Acquire(owner, e.clock.Now())
		if err != nil {
			return err
		}
		e.stats.Acquisitions++
		vni = v
		return nil
	})
	if err != nil {
		e.stats.SyncErrors++
		return metactl.SyncResponse{}, err
	}
	return e.desiredChild(req, claimChildPrefix, c.Meta.Name, vni,
		vniapi.SpecClaim, claimName(c)), nil
}

// Finalize implements /finalize for VniClaim objects: deletion is granted
// only once all users of the claim have been removed, preventing the claim's
// VNI from being handed out while jobs still use it (paper §III-C2:
// "deletion request is only granted once all users of the VNI claim have
// been removed from the database").
func (h claimHooks) Finalize(req metactl.SyncRequest) (metactl.FinalizeResponse, error) {
	e := h.e
	e.stats.ClaimFinals++
	c, ok := req.Parent.(*k8s.Custom)
	if !ok {
		return metactl.FinalizeResponse{Finalized: true}, nil
	}
	owner := ownerForClaim(c.Meta.Namespace, claimName(c))
	finalized := false
	err := e.db.Update(func(tx *vnidb.Tx) error {
		row, ok := tx.FindByOwner(owner)
		if !ok {
			finalized = true // never acquired or already released
			return nil
		}
		if len(row.Users) > 0 {
			return nil // stall: users remain
		}
		if err := tx.Release(row.VNI, e.clock.Now()); err != nil {
			return err
		}
		e.stats.Releases++
		finalized = true
		return nil
	})
	if err != nil {
		return metactl.FinalizeResponse{}, err
	}
	if !finalized {
		e.stats.StalledFinals++
		// Keep the existing children while stalled.
		return metactl.FinalizeResponse{Finalized: false, Children: req.Children}, nil
	}
	return metactl.FinalizeResponse{Finalized: true}, nil
}
