// Event-driven collective algorithms over an N-rank communicator. Each
// collective is continuation-passing: done fires once every rank has
// finished its part. One collective runs at a time per communicator — the
// layer has a single implicit tag, so interleaving two collectives would
// cross their messages (the workload engine serializes iterations, as a
// blocking MPI application would).
//
// The algorithms are the textbook ones MPI libraries select at these
// message sizes (Thakur et al., "Optimization of Collective Communication
// Operations in MPICH"): ring and recursive-doubling allreduce,
// pairwise-exchange all-to-all, and a periodic 1-D nearest-neighbor halo
// exchange. Only byte movement is simulated — reduction arithmetic is free
// on the virtual clock, so measured cost is wire cost plus the per-call
// software overhead.

package mpi

// chunk returns the size of the i-th of n near-equal chunks of size bytes
// (the first size%n chunks carry the extra byte).
func chunk(size, n, i int) int {
	c := size / n
	if i < size%n {
		c++
	}
	return c
}

// mod returns x mod n in [0, n).
func mod(x, n int) int { return ((x % n) + n) % n }

// fanIn invokes done once after n calls to the returned function.
func fanIn(n int, done func()) func() {
	remaining := n
	return func() {
		remaining--
		if remaining == 0 && done != nil {
			done()
		}
	}
}

// exchange is one rank's round state for one collective whose rounds each
// pair a receive with a send: the round is over when both have completed,
// and then the continuation runs. It is built once per rank per collective
// and its two completion callbacks are bound then, so a round itself
// allocates nothing — where a fanIn(2, …) plus an adapter closure per
// round cost four allocations per message.
type exchange struct {
	r        *Rank
	pending  int
	next     func() // runs when the round's receive and send are both done
	recvDone func(size int)
	sendDone func()
}

// newExchange binds the completion callbacks; the caller sets next, which
// may then capture x itself by value.
func newExchange(r *Rank) *exchange {
	x := &exchange{r: r}
	x.sendDone = func() {
		x.pending--
		if x.pending == 0 {
			x.next()
		}
	}
	x.recvDone = func(int) { x.sendDone() }
	return x
}

// round posts one round: the receive first, then the send.
func (x *exchange) round(from, to, size int) {
	x.pending = 2
	x.r.RecvFrom(from, x.recvDone)
	x.r.SendTo(to, size, x.sendDone)
}

// AllreduceRing performs an allreduce of size bytes per rank with the
// bandwidth-optimal ring algorithm: a reduce-scatter of n-1 steps followed
// by an allgather of n-1 steps, each step exchanging one 1/n chunk with
// the ring neighbors. Total traffic is 2·(n-1)·size bytes across the
// communicator (AllreduceRingBytes); every byte crosses only neighbor
// links, which is what makes placement matter on a dragonfly.
func (c *Comm) AllreduceRing(size int, done func()) {
	rankDone := fanIn(len(c.Ranks), done)
	for _, r := range c.Ranks {
		r.ringAllreduce(size, rankDone)
	}
}

func (r *Rank) ringAllreduce(size int, done func()) {
	n := r.Size()
	left, right := mod(r.id-1, n), mod(r.id+1, n)
	total := 2 * (n - 1)
	step := 0
	x := newExchange(r)
	x.next = func() {
		if step == total {
			done()
			return
		}
		// Reduce-scatter steps send chunk (id - step); allgather steps send
		// the chunk received (and reduced) in the previous step.
		var sendIdx int
		if step < n-1 {
			sendIdx = mod(r.id-step, n)
		} else {
			sendIdx = mod(r.id-(step-(n-1))+1, n)
		}
		step++
		x.round(left, right, chunk(size, n, sendIdx))
	}
	x.next()
}

// AllreduceRecursiveDoubling performs an allreduce of size bytes per rank
// with the latency-optimal recursive-doubling algorithm: ⌈log2 n⌉ rounds
// of full-vector pairwise exchanges across doubling distances. Non-power-
// of-two sizes use the standard fold: the first 2·(n-pow2) ranks pair up,
// odd ranks fold into their even neighbor before the rounds and receive
// the result after. Distances double every round, so on a dragonfly the
// later rounds are exactly the cross-group exchanges.
func (c *Comm) AllreduceRecursiveDoubling(size int, done func()) {
	n := len(c.Ranks)
	pow2 := 1
	for pow2*2 <= n {
		pow2 *= 2
	}
	rem := n - pow2 // ranks beyond the power of two
	// core maps a core id (0..pow2-1) to its real rank after the fold.
	core := func(id int) int {
		if id < rem {
			return 2 * id
		}
		return id + rem
	}
	rankDone := fanIn(n, done)
	for _, r := range c.Ranks {
		r := r
		switch {
		case r.id < 2*rem && r.id%2 == 1:
			// Folded rank: contribute the vector, wait for the result.
			next := fanIn(2, rankDone)
			r.SendTo(r.id-1, size, next)
			r.RecvFrom(r.id-1, func(int) { next() })
		case r.id < 2*rem:
			// Absorb the odd neighbor, run the rounds, return the result.
			r.RecvFrom(r.id+1, func(int) {
				r.doublingRounds(r.id/2, pow2, core, size, func() {
					r.SendTo(r.id+1, size, rankDone)
				})
			})
		default:
			r.doublingRounds(r.id-rem, pow2, core, size, rankDone)
		}
	}
}

// doublingRounds runs the log2(pow2) pairwise-exchange rounds for one core
// rank.
func (r *Rank) doublingRounds(coreID, pow2 int, core func(int) int, size int, done func()) {
	dist := 1
	x := newExchange(r)
	x.next = func() {
		if dist >= pow2 {
			done()
			return
		}
		partner := core(coreID ^ dist)
		dist *= 2
		x.round(partner, partner, size)
	}
	x.next()
}

// AlltoallPairwise performs a complete exchange — every rank sends a
// distinct block of block bytes to every other rank — with the pairwise-
// exchange algorithm: n-1 rounds, in round k each rank sends to (id+k) mod
// n and receives from (id-k) mod n. Total traffic is n·(n-1)·block bytes;
// under group-spilled placement almost all of it crosses the global links,
// which is the classic dragonfly hotspot.
func (c *Comm) AlltoallPairwise(block int, done func()) {
	n := len(c.Ranks)
	rankDone := fanIn(n, done)
	for _, r := range c.Ranks {
		r := r
		k := 1
		x := newExchange(r)
		x.next = func() {
			if k == n {
				rankDone()
				return
			}
			from, to := mod(r.id-k, n), mod(r.id+k, n)
			k++
			x.round(from, to, block)
		}
		x.next()
	}
}

// HaloExchange performs one step of a periodic 1-D nearest-neighbor halo
// exchange: every rank sends halo bytes to each ring neighbor and receives
// each neighbor's halo. Total traffic is 2·n·halo bytes, all of it between
// adjacent ranks — the pattern placement-aware scheduling keeps entirely
// inside a dragonfly group.
func (c *Comm) HaloExchange(halo int, done func()) {
	n := len(c.Ranks)
	rankDone := fanIn(n, done)
	for _, r := range c.Ranks {
		r := r
		left, right := mod(r.id-1, n), mod(r.id+1, n)
		next := fanIn(4, rankDone)
		r.RecvFrom(left, func(int) { next() })
		r.RecvFrom(right, func(int) { next() })
		r.SendTo(left, halo, next)
		r.SendTo(right, halo, next)
	}
}

// Barrier synchronizes all ranks using recursive doubling over empty
// messages; done fires when every rank has left the barrier.
func (c *Comm) Barrier(done func()) { c.AllreduceRecursiveDoubling(0, done) }

// AllreduceRingBytes is the closed-form total payload a ring allreduce of
// size bytes moves across an n-rank communicator: each of the 2(n-1) steps
// moves every chunk exactly once.
func AllreduceRingBytes(n, size int) uint64 {
	return uint64(2*(n-1)) * uint64(size)
}

// AllreduceRecursiveDoublingBytes is the closed-form total payload for the
// recursive-doubling allreduce: the fold contributes 2·(n-pow2) full
// vectors, the rounds pow2·log2(pow2) of them.
func AllreduceRecursiveDoublingBytes(n, size int) uint64 {
	pow2, log := 1, 0
	for pow2*2 <= n {
		pow2 *= 2
		log++
	}
	rem := n - pow2
	return uint64(2*rem+pow2*log) * uint64(size)
}

// AlltoallPairwiseBytes is the closed-form total payload of a pairwise
// all-to-all: every ordered rank pair exchanges one block.
func AlltoallPairwiseBytes(n, block int) uint64 {
	return uint64(n*(n-1)) * uint64(block)
}

// HaloExchangeBytes is the closed-form total payload of one periodic 1-D
// halo exchange step: two sends per rank.
func HaloExchangeBytes(n, halo int) uint64 {
	return uint64(2*n) * uint64(halo)
}
