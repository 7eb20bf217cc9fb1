package sim

import "unsafe"

// FreeList recycles the argument structs that ride inside scheduled events
// (AtCall's arg). It is a plain LIFO, not a sync.Pool: the list belongs to
// an object already confined to one engine's goroutine — a switch, a
// topology, a NIC, a communicator — so it needs no synchronisation, shares
// nothing between engines, and holds what it is given until its owner
// dies, which makes allocation counts independent of the collector's
// timing. The zero value is ready to use.
//
// An empty list makes its first singles records one at a time, so a list
// used a little costs what new costs, then a chunk of chunkBytes at once:
// a burst, which takes every record before any comes back, pays per chunk,
// not per record. Chunks stay small because the last one's rest is waste.
// The header is one slice and a counter: an engine builds hundreds of
// lists, and a slab field's 24 bytes each would cost more than chunks save.
type FreeList[T any] struct {
	free []*T
	made int
}

const singles, chunkBytes = 8, 512

// Get returns a recycled *T, or a new zero one when the list is empty. A
// recycled value is in whatever state its Put left it. The chunk is made
// inline: a call would stop Get inlining at the data path's call sites.
func (l *FreeList[T]) Get() *T {
	if len(l.free) == 0 {
		n := 1
		if l.made >= singles {
			n = max(1, chunkBytes/max(1, int(unsafe.Sizeof(*new(T)))))
		}
		chunk := make([]T, n)
		for i := range chunk {
			l.free = append(l.free, &chunk[i])
		}
		l.made += n
	}
	x := l.free[len(l.free)-1]
	l.free = l.free[:len(l.free)-1]
	return x
}

// Put hands x back for reuse. The caller clears any reference in *x that
// must not outlive the event first.
func (l *FreeList[T]) Put(x *T) { l.free = append(l.free, x) }

// Len reports the records the list has made, chunks' unused rest included,
// not the peak out at once: a loop that Gets while Len() > 0 never ends.
func (l *FreeList[T]) Len() int { return l.made }

// Idle reports whether the list holds as many records as it made: none is
// out, lost or (unless another is lost) put back twice.
func (l *FreeList[T]) Idle() bool { return len(l.free) == l.made }
