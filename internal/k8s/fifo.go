package k8s

// fifo is a work queue on a ring buffer it keeps: push grows the ring by
// doubling only when it is full, pop is O(1) and clears the slot it frees,
// so a queue that drains and refills allocates nothing and holds no popped
// item alive. The zero value is an empty queue.
type fifo[T any] struct {
	ring []T // len is a power of two, or zero
	head int // index of the oldest item
	n    int
}

func (q *fifo[T]) len() int { return q.n }

func (q *fifo[T]) push(x T) {
	if q.n == len(q.ring) {
		grown := make([]T, max(8, 2*len(q.ring)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.ring[(q.head+i)&(len(q.ring)-1)]
		}
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = x
	q.n++
}

// pop removes and returns the oldest item; the queue must not be empty.
func (q *fifo[T]) pop() T {
	x := q.ring[q.head]
	var zero T
	q.ring[q.head] = zero
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	return x
}
