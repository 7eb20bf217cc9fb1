package k8s

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

const kindWidget Kind = "Widget"

func widgetColorIndex(obj Object) IndexKey { return IndexKey{Name: obj.(*Custom).Spec["color"]} }

// oracleIndex is one registered index as the oracle sees it: the function,
// and every value any object was ever filed under.
type oracleIndex struct {
	name string
	fn   IndexFunc
	used map[IndexKey]bool
}

// scanIndex is what the informer's buckets replaced: every stored object of
// the kind, in key order, whose index value is v.
func scanIndex(store map[string]Object, keys []string, fn IndexFunc, v IndexKey) []Object {
	var out []Object
	for _, k := range keys {
		if fn(store[k]) == v {
			out = append(out, store[k])
		}
	}
	return out
}

// checkInformerAgainstStore recomputes every read the lister serves from
// the store alone — Get, List, ByIndex and IndexCount for every value ever
// used, in key order — and compares; then the shape of the cache itself:
// no bucket without an entry, none for the unfiled value, and every bucket
// well formed (checkBucket).
func checkInformerAgainstStore(t *testing.T, when string, api *APIServer, kind Kind, namespaces, names []string, indexes []*oracleIndex) {
	t.Helper()
	inf := api.Client().Informer(kind)
	l := inf.Lister()
	store := api.store(kind)
	keys := make([]string, 0, len(store))
	for k := range store {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	all := make([]Object, 0, len(keys))
	byNS := make(map[string][]Object)
	for _, k := range keys {
		all = append(all, store[k])
		ns := store[k].GetMeta().Namespace
		byNS[ns] = append(byNS[ns], store[k])
	}
	if got := l.List(""); !slices.Equal(got, all) {
		t.Fatalf("%s: %s List(\"\") = %d objects, store scan %d (or another order, or another version)", when, kind, len(got), len(all))
	}
	for _, ns := range namespaces {
		if got := l.List(ns); !slices.Equal(got, byNS[ns]) {
			t.Fatalf("%s: %s List(%q) = %d objects, store scan %d", when, kind, ns, len(got), len(byNS[ns]))
		}
		for _, name := range names {
			got, ok := l.Get(ns, name)
			want, stored := store[ns+"/"+name]
			if ok != stored || got != want {
				t.Fatalf("%s: %s Get(%s/%s) = %v, %v; store holds %v, %v", when, kind, ns, name, got, ok, want, stored)
			}
		}
	}
	if len(inf.byNS) != len(byNS) {
		t.Fatalf("%s: %s cache keeps %d namespace views, %d namespaces hold objects", when, kind, len(inf.byNS), len(byNS))
	}
	for v, b := range inf.byNS {
		checkBucket(t, when, inf, "namespace view", v, b)
	}

	for _, ix := range indexes {
		live := make(map[IndexKey]bool)
		for _, k := range keys {
			if v := ix.fn(store[k]); v != (IndexKey{}) {
				live[v], ix.used[v] = true, true
			}
		}
		for v := range ix.used {
			want := scanIndex(store, keys, ix.fn, v)
			if got := l.ByIndex(ix.name, v); !slices.Equal(got, want) {
				t.Fatalf("%s: %s ByIndex(%s, %q) = %d objects, store scan %d (or another order, or another version)",
					when, kind, ix.name, v, len(got), len(want))
			}
			if got := l.IndexCount(ix.name, v); got != len(want) {
				t.Fatalf("%s: %s IndexCount(%s, %q) = %d, store scan %d", when, kind, ix.name, v, got, len(want))
			}
		}
		if n := l.IndexCount(ix.name, IndexKey{}); n != 0 {
			t.Fatalf("%s: %s index %s files %d objects under the unfiled value", when, kind, ix.name, n)
		}
		if got := len(inf.index(ix.name).buckets); got != len(live) {
			t.Fatalf("%s: %s index %s keeps %d buckets, %d values are in use", when, kind, ix.name, got, len(live))
		}
		for v, b := range inf.index(ix.name).buckets {
			checkBucket(t, when, inf, "index "+ix.name, v, b)
		}
	}
}

// checkBucket holds one bucket to its representation: it is not empty, the
// inline entry and every map entry is the informer's cell of the key it is
// filed under, and no key is filed twice.
func checkBucket(t *testing.T, when string, inf *Informer, where string, v IndexKey, b bucket) {
	t.Helper()
	if b.len() == 0 {
		t.Fatalf("%s: %s %s keeps an empty bucket for %q", when, inf.kind, where, v)
	}
	if b.c != nil && inf.objs[b.c.obj.GetMeta().Key()] != b.c {
		t.Fatalf("%s: %s %s %q: the inline entry is not the cell of %s", when, inf.kind, where, v, b.c.obj.GetMeta().Key())
	}
	for key, c := range b.m {
		if c == nil || inf.objs[key] != c || c == b.c {
			t.Fatalf("%s: %s %s %q: map entry %q is not that key's cell, or is the inline entry again", when, inf.kind, where, v, key)
		}
	}
}

// TestInformerMatchesStoreScan is the oracle for the informer's cells and
// index buckets: seeded random creates, status updates, relabels (the
// object moves buckets), re-parentings, label removals (unfiled), deletes,
// recreations under the same name, owner garbage collection and broken
// watches repaired by relist, over pods, jobs and an owner-indexed custom
// kind. After every drained step each lister read must equal its
// recomputation from the store by scan.
func TestInformerMatchesStoreScan(t *testing.T) {
	const steps = 5000
	namespaces := []string{"a", "b"}
	names := []string{"n0", "n1", "n2", "n3", "n4"}
	jobNames := []string{"", "j0", "j1", "j2"} // "" = no job-name label
	colors := []string{"", "red", "green", "blue"}

	for seed := int64(1); seed <= 5; seed++ {
		eng := sim.NewEngine(seed)
		api := NewAPIServer(eng, APILatency{Request: 6 * time.Millisecond, WatchDelivery: 25 * time.Millisecond, Jitter: 0.35})
		cli := api.Client()
		rng := rand.New(rand.NewSource(seed))

		indexes := map[Kind][]*oracleIndex{
			KindPod: {
				{name: IndexPodJob, fn: PodJobIndex, used: map[IndexKey]bool{}},
				{name: IndexOwner, fn: OwnerIndex, used: map[IndexKey]bool{}},
			},
			KindJob:    nil,
			kindWidget: {{name: IndexOwner, fn: OwnerIndex, used: map[IndexKey]bool{}}},
		}
		kinds := []Kind{KindPod, KindJob, kindWidget}
		for _, kind := range kinds {
			for _, ix := range indexes[kind] {
				cli.Informer(kind).AddIndex(ix.name, ix.fn)
			}
		}

		pickOwner := func() UID { // a live job's UID, or none
			jobs := api.List(KindJob, "")
			if len(jobs) == 0 || rng.Intn(4) == 0 {
				return ""
			}
			return jobs[rng.Intn(len(jobs))].GetMeta().UID
		}
		podLabels := func() map[string]string {
			if job := jobNames[rng.Intn(len(jobNames))]; job != "" {
				return map[string]string{"job-name": job}
			}
			return nil
		}
		create := func(kind Kind, ns, name string) {
			m := Meta{Kind: kind, Namespace: ns, Name: name}
			switch kind {
			case KindPod:
				m.Labels, m.OwnerUID = podLabels(), pickOwner()
				cli.Create(&Pod{Meta: m})
			case KindJob:
				cli.Create(&Job{Meta: m})
			default:
				m.OwnerUID = pickOwner()
				cli.Create(&Custom{Meta: m, Spec: map[string]string{"color": colors[rng.Intn(len(colors))]}})
			}
		}
		// write issues one random write; most land on an existing object
		// because the name pool is small.
		write := func() string {
			kind := kinds[rng.Intn(len(kinds))]
			ns, name := namespaces[rng.Intn(len(namespaces))], names[rng.Intn(len(names))]
			switch op := rng.Intn(10); {
			case op < 3:
				create(kind, ns, name)
				return "create"
			case op < 5:
				cli.UpdateStatus(kind, ns, name, func(obj Object) bool {
					switch o := obj.(type) {
					case *Pod:
						o.Status.Message += "."
					case *Job:
						o.Status.Active++
					case *Custom:
						o.Status = map[string]string{"n": fmt.Sprint(rng.Int())}
					}
					return true
				})
				return "status"
			case op < 7: // relabel, or remove the label: the object moves buckets or is unfiled
				cli.Patch(kind, ns, name, func(obj Object) bool {
					switch o := obj.(type) {
					case *Pod:
						o.Meta.Labels = podLabels()
					case *Custom:
						o.Spec = map[string]string{"color": colors[rng.Intn(len(colors))]}
					}
					return true
				})
				return "relabel"
			case op < 8:
				owner := pickOwner()
				cli.Patch(kind, ns, name, func(obj Object) bool {
					obj.GetMeta().OwnerUID = owner
					return kind != KindJob
				})
				return "re-parent"
			case op < 9:
				cli.Delete(kind, ns, name)
				return "delete"
			default: // recreate under the same name: a new UID behind a cached key
				cli.Delete(kind, ns, name)
				eng.Run()
				create(kind, ns, name)
				return "recreate"
			}
		}

		for step := 1; step <= steps; step++ {
			var op string
			switch {
			case step == steps/2:
				// An index registered late is backfilled from the cache.
				ix := &oracleIndex{name: "color", fn: widgetColorIndex, used: map[IndexKey]bool{}}
				cli.Informer(kindWidget).AddIndex(ix.name, ix.fn)
				indexes[kindWidget] = append(indexes[kindWidget], ix)
				op = "add index"
			case rng.Intn(50) == 0:
				// Writes the severed stream never delivers, then the repair.
				kind := kinds[rng.Intn(len(kinds))]
				api.BreakWatch(kind)
				for i := rng.Intn(6); i >= 0; i-- {
					write()
				}
				eng.Run()
				cli.Informer(kind).relist()
				op = "break+relist " + string(kind)
			default:
				op = write()
			}
			eng.Run()
			when := fmt.Sprintf("seed %d step %d (%s)", seed, step, op)
			for _, kind := range kinds {
				checkInformerAgainstStore(t, when, api, kind, namespaces, names, indexes[kind])
			}
			if err := cli.VerifyCaches(); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
		}
	}
}

// TestIndexBucketTransitions walks one pods-by-job bucket and one owner
// bucket through every shape a bucket takes — empty, one inline entry, an
// inline entry beside a map, a map beside a free inline slot, and back —
// with the store-scan oracle after each step: two pods of one job, the
// delete of the inline entry and of a map entry, a re-parenting, a relist.
// The same job name in a second namespace is another value of the pair.
func TestIndexBucketTransitions(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()
	indexes := []*oracleIndex{
		{name: IndexPodJob, fn: PodJobIndex, used: map[IndexKey]bool{}},
		{name: IndexOwner, fn: OwnerIndex, used: map[IndexKey]bool{}},
	}
	inf := cli.Informer(KindPod)
	for _, ix := range indexes {
		inf.AddIndex(ix.name, ix.fn)
	}
	job := IndexKey{"a", "j"}
	step := func(what string, wantJob int, do func()) {
		t.Helper()
		do()
		eng.Run()
		checkInformerAgainstStore(t, what, api, KindPod, []string{"a", "b"}, []string{"p0", "p1", "p2", "p3"}, indexes)
		if got := inf.Lister().IndexCount(IndexPodJob, job); got != wantJob {
			t.Fatalf("%s: %d pods filed under %v, want %d", what, got, job, wantJob)
		}
	}
	create := func(ns, name string, owner UID) func() {
		return func() {
			cli.Create(&Pod{Meta: Meta{Kind: KindPod, Namespace: ns, Name: name,
				Labels: map[string]string{"job-name": "j"}, OwnerUID: owner}})
		}
	}
	del := func(name string) func() { return func() { cli.Delete(KindPod, "a", name) } }

	step("0→1: first pod, inline", 1, create("a", "p0", "u1"))
	step("the same job name in another namespace", 1, create("b", "p0", "u1"))
	step("1→2: second pod, the map is made", 2, create("a", "p1", "u1"))
	step("2→3", 3, create("a", "p2", "u1"))
	step("3→2: the inline entry leaves, the map stays", 2, del("p0"))
	step("2→3: the free inline slot is taken again", 3, create("a", "p3", "u1"))
	step("3→2: a map entry leaves", 2, del("p1"))
	step("re-parented: the pod changes owner buckets, not job buckets", 2, func() {
		cli.Patch(KindPod, "a", "p2", func(obj Object) bool { obj.GetMeta().OwnerUID = "u2"; return true })
	})
	step("relist behind a broken watch", 3, func() {
		api.BreakWatch(KindPod)
		create("a", "p0", "u2")()
		eng.Run()
		inf.relist()
	})
	step("3→2", 2, del("p3"))
	step("2→1", 1, del("p2"))
	step("1→0: the bucket is dropped", 0, del("p0"))
}

// TestInformerUpdateTouchesNoMap pins what absorbing a new version of a
// cached object costs when no index value changed: one lookup and a
// pointer store — nothing allocated, no bucket made or dropped.
func TestInformerUpdateTouchesNoMap(t *testing.T) {
	eng, api := newTestAPI()
	cli := api.Client()
	inf := cli.Informer(KindPod)
	inf.AddIndex(IndexPodJob, PodJobIndex)
	inf.AddIndex(IndexOwner, OwnerIndex)
	pod := &Pod{Meta: Meta{Kind: KindPod, Namespace: "ns", Name: "p",
		Labels: map[string]string{"job-name": "j"}, OwnerUID: "uid-of-j"}}
	mustCreate(t, eng, api, pod)

	c := inf.objs[pod.Meta.Key()]
	next := pod.Clone()
	if allocs := testing.AllocsPerRun(100, func() { inf.apply(pod.Meta.Key(), next) }); allocs != 0 {
		t.Errorf("absorbing an update allocates %v objects, want 0", allocs)
	}
	if inf.objs[pod.Meta.Key()] != c || c.obj != next {
		t.Error("the update replaced the cell instead of storing into it")
	}
	if got := inf.index(IndexPodJob).buckets[IndexKey{"ns", "j"}]; got.c != c || got.m != nil {
		t.Errorf("the update re-filed the pod: its job bucket is %+v", got)
	}
}
