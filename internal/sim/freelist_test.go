package sim

import (
	"testing"
	"unsafe"
)

// rec is a record the size of a small event argument: 40 bytes, 12 to a
// chunk.
type rec struct {
	a, b, c int
	p       *rec
	s       byte
}

// perChunk is how many recs one chunk holds.
const perChunk = chunkBytes / int(unsafe.Sizeof(rec{}))

// TestFreeListRecordsReadAsZero takes records past several chunks, each
// held and written before the next is taken: every one reads as zero and
// none is handed out twice. Fails if a chunk hands out one element for all
// (&chunk[0] for &chunk[i]).
func TestFreeListRecordsReadAsZero(t *testing.T) {
	var l FreeList[rec]
	seen := make(map[*rec]bool)
	for i := 0; i < singles+3*perChunk+1; i++ {
		r := l.Get()
		if *r != (rec{}) {
			t.Fatalf("record %d reads %+v, want zero", i, *r)
		}
		if seen[r] {
			t.Fatalf("record %d was handed out twice", i)
		}
		seen[r] = true
		*r = rec{a: i + 1, p: r, s: 1}
	}
}

// TestFreeListReusesLastIn: what was put back last comes out first, as it
// was put. Fails if Get takes the first record on the list (l.free[0]).
func TestFreeListReusesLastIn(t *testing.T) {
	var l FreeList[rec]
	x, y, z := l.Get(), l.Get(), l.Get()
	x.a, y.a = 1, 2
	l.Put(x)
	l.Put(y)
	if got := l.Get(); got != y || got.a != 2 {
		t.Fatalf("Get after Put(x), Put(y) = %p (a=%d), want y %p", got, got.a, y)
	}
	if got := l.Get(); got != x || got.a != 1 {
		t.Fatalf("second Get = %p (a=%d), want x %p", got, got.a, x)
	}
	if got := l.Get(); got == x || got == y || got == z {
		t.Fatal("Get on an empty list returned a record that is out")
	}
}

// TestFreeListChunksFreshRecords: a burst of n Gets on an empty list makes
// the first singles records one at a time and then a chunk per perChunk
// records. The list's own slice, which the chunks' rest waits in and Put
// grows as it always did, is made beforehand. Fails with a chunk of 1 (n =
// 1 for every record).
func TestFreeListChunksFreshRecords(t *testing.T) {
	const n, runs = 200, 20
	want := singles + (n-singles+perChunk-1)/perChunk
	lists := make([]FreeList[rec], runs+1)
	for i := range lists {
		lists[i].free = make([]*rec, 0, perChunk)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		l := &lists[0]
		lists = lists[1:]
		for i := 0; i < n; i++ {
			l.Get()
		}
	})
	if allocs > float64(want) {
		t.Errorf("%d fresh Gets allocate %v objects, want at most %d", n, allocs, want)
	}
}

// TestFreeListLenCountsMade: Len is the records made, a chunk's unused rest
// included, whether they are out or back; the list is idle once all are
// back, and a second burst of the same size makes nothing. Fails if Len
// reports the records on the list (len(l.free)).
func TestFreeListLenCountsMade(t *testing.T) {
	const n = singles + perChunk + 1
	var l FreeList[rec]
	out := make([]*rec, n)
	for i := range out {
		out[i] = l.Get()
	}
	made := singles + 2*perChunk
	if l.Len() != made || l.Idle() {
		t.Fatalf("with %d out: Len %d, idle %v; want %d, false", n, l.Len(), l.Idle(), made)
	}
	for _, r := range out {
		l.Put(r)
	}
	if l.Len() != made || !l.Idle() {
		t.Fatalf("after the drain: Len %d, idle %v; want %d, true", l.Len(), l.Idle(), made)
	}
	l.Put(out[0])
	if l.Idle() {
		t.Error("a record put back twice leaves the list idle")
	}
	l.Get()
	if allocs := testing.AllocsPerRun(10, func() {
		for i := range out {
			out[i] = l.Get()
		}
		for _, r := range out {
			l.Put(r)
		}
	}); allocs != 0 || l.Len() != made {
		t.Errorf("a second burst allocates %v objects and leaves Len %d, want 0 and %d", allocs, l.Len(), made)
	}
}
