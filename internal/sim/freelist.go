package sim

// FreeList recycles the argument structs that ride inside scheduled events
// (AtCall's arg). It is a plain LIFO, not a sync.Pool: the list belongs to
// an object already confined to one engine's goroutine — a switch, a
// topology, a NIC, a communicator — so it needs no synchronisation, shares
// nothing between engines, and holds what it is given until its owner
// dies, which makes allocation counts independent of the collector's
// timing. The zero value is ready to use.
type FreeList[T any] struct {
	free []*T
}

// Get returns a recycled *T, or a new zero one when the list is empty. A
// recycled value is in whatever state its Put left it.
func (l *FreeList[T]) Get() *T {
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free = l.free[:n-1]
		return x
	}
	return new(T)
}

// Put hands x back for reuse. The caller clears any reference in *x that
// must not outlive the event first.
func (l *FreeList[T]) Put(x *T) { l.free = append(l.free, x) }

// Len reports how many values the list holds for reuse: once every event
// that took one has finished, as many as were ever out at once.
func (l *FreeList[T]) Len() int { return len(l.free) }
