package k8s

import (
	"fmt"
	"hash/fnv"
)

// CommitRecorder is the immutability oracle: the check that keeps the
// isolation defensive copies used to buy. It hashes the full content of
// every committed object the informers deliver and, at drain, re-hashes
// each recorded pointer; one that changed was written after its commit, by
// a handler, through a Get or List result, or through a map or slice a
// Clone still shares. Tests and the fuzzer arm it; a product run never
// constructs one.
type CommitRecorder struct {
	seen map[Object]struct{}
	recs []commitRecord
}

type commitRecord struct {
	obj  Object
	hash uint64
	name string // kind, key and resource version as first delivered
}

// RecordCommits arms the oracle on every informer the client has and on
// every one it creates later. The recorder's handler runs ahead of all
// others, so a handler's write lands after the hash is taken; it draws no
// random number and schedules no event, so timelines are untouched.
func (c *Client) RecordCommits() *CommitRecorder {
	if c.rec == nil {
		c.rec = &CommitRecorder{seen: make(map[Object]struct{})}
		for _, inf := range c.byKind {
			c.rec.attach(inf)
		}
	}
	return c.rec
}

func (r *CommitRecorder) attach(inf *Informer) {
	for _, obj := range inf.t.list("", true) {
		r.record(obj)
	}
	first := &watchReg{handler: func(ev Event) { r.record(ev.Object) }}
	inf.handlers = append([]*watchReg{first}, inf.handlers...)
}

func (r *CommitRecorder) record(obj Object) {
	if _, dup := r.seen[obj]; dup {
		return
	}
	r.seen[obj] = struct{}{}
	m := obj.GetMeta()
	r.recs = append(r.recs, commitRecord{obj: obj, hash: contentHash(obj),
		name: fmt.Sprintf("%s %s rv %d", m.Kind, m.Key(), m.ResourceVersion)})
}

// Verify re-hashes every recorded object and names the first, in delivery
// order, whose content changed since it was recorded.
func (r *CommitRecorder) Verify() error {
	for _, rec := range r.recs {
		if contentHash(rec.obj) != rec.hash {
			return fmt.Errorf("k8s: %s written after commit", rec.name)
		}
	}
	return nil
}

// contentHash covers every field of the object, exported or not: fmt walks
// the struct by reflection and prints map entries in sorted key order.
func contentHash(obj Object) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", obj)
	return h.Sum64()
}
