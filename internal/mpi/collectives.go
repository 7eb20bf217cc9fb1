// Event-driven collective algorithms over an N-rank communicator. Each
// collective is continuation-passing: done fires once every rank has
// finished its part. One collective runs at a time per communicator, and
// starting a second while one is in flight panics: the layer has a single
// implicit tag, so two collectives would cross their messages (the
// workload engine serializes iterations, as a blocking MPI application
// would). done may start the next collective.
//
// The algorithms are the textbook ones MPI libraries select at these
// message sizes (Thakur et al., "Optimization of Collective Communication
// Operations in MPICH"): ring and recursive-doubling allreduce,
// pairwise-exchange all-to-all, and a periodic 1-D nearest-neighbor halo
// exchange. Only byte movement is simulated — reduction arithmetic is free
// on the virtual clock, so measured cost is wire cost plus the per-call
// software overhead.
//
// A collective allocates nothing: each rank runs its part on its one
// round (below), whose completion callbacks were bound at Connect, and the
// communicator counts the ranks still working.

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

// collOp names the algorithm a round advances.
type collOp uint8

const (
	opRing     collOp = iota // ring allreduce: step counts the 2(n-1) steps
	opDoubling               // recursive doubling: step is the distance, fold the rank to return the result to
	opAlltoall               // pairwise exchange: step is the offset k
	opHalo                   // one four-way join, then done
)

// round is one rank's state in the collective in flight. A phase posts
// its receives and sends with recvDone and sendDone, which count waits
// down; the last completion advances the rank to its next phase.
type round struct {
	r     *Rank
	waits int // completions the current phase still waits for
	step  int // per algorithm: see collOp
	fold  int // recursive doubling: the folded rank still owed the result, or -1
	core  int // recursive doubling: the rank's id among the pow2 core ranks

	recvDone func(size int)
	sendDone func()
}

// bind builds the completion callbacks once, for every collective the
// rank will run.
func (x *round) bind(r *Rank) {
	x.r = r
	x.sendDone = func() {
		x.waits--
		if x.waits == 0 {
			x.advance()
		}
	}
	x.recvDone = func(int) { x.sendDone() }
}

// exchange posts one round that pairs a receive with a send: the receive
// first, then the send.
func (x *round) exchange(from, to, size int) {
	x.waits = 2
	x.r.RecvFrom(from, x.recvDone)
	x.r.SendTo(to, size, x.sendDone)
}

// start claims the communicator for a collective and readies every rank's
// round; the caller then starts each rank in rank order.
func (c *Comm) start(op collOp, size int, done func()) {
	if c.left > 0 {
		panic("mpi: collective started while another is in flight on this communicator")
	}
	c.op, c.size, c.left, c.done = op, size, len(c.Ranks), done
	for _, r := range c.Ranks {
		r.round.step, r.round.fold = 0, -1
	}
}

// finished retires one rank; the last one releases the communicator and
// runs done, which may start the next collective.
func (x *round) finished() {
	c := x.r.comm
	c.left--
	if c.left > 0 {
		return
	}
	done := c.done
	c.done = nil
	if done != nil {
		done()
	}
}

// advance runs when the rank's current phase is complete: it posts the
// next phase of the collective in flight or retires the rank.
func (x *round) advance() {
	r, c := x.r, x.r.comm
	n := len(c.Ranks)
	switch c.op {
	case opRing:
		if x.step == 2*(n-1) {
			break
		}
		// Reduce-scatter steps send chunk (id - step); allgather steps send
		// the chunk received (and reduced) in the previous step.
		var sendIdx int
		if x.step < n-1 {
			sendIdx = mod(r.id-x.step, n)
		} else {
			sendIdx = mod(r.id-(x.step-(n-1))+1, n)
		}
		x.step++
		x.exchange(mod(r.id-1, n), mod(r.id+1, n), chunk(c.size, n, sendIdx))
		return
	case opDoubling:
		pow2, rem := doublingCore(n)
		if x.step < pow2 {
			partner := coreRank(x.core^x.step, rem)
			x.step *= 2
			x.exchange(partner, partner, c.size)
			return
		}
		if x.fold >= 0 {
			// Return the result to the folded neighbor.
			to := x.fold
			x.fold, x.waits = -1, 1
			r.SendTo(to, c.size, x.sendDone)
			return
		}
	case opAlltoall:
		if x.step == n {
			break
		}
		from, to := mod(r.id-x.step, n), mod(r.id+x.step, n)
		x.step++
		x.exchange(from, to, c.size)
		return
	}
	x.finished()
}

// AllreduceRing performs an allreduce of size bytes per rank with the
// bandwidth-optimal ring algorithm: a reduce-scatter of n-1 steps followed
// by an allgather of n-1 steps, each step exchanging one 1/n chunk with
// the ring neighbors. Total traffic is 2·(n-1)·size bytes across the
// communicator (AllreduceRingBytes); every byte crosses only neighbor
// links, which is what makes placement matter on a dragonfly.
func (c *Comm) AllreduceRing(size int, done func()) {
	c.start(opRing, size, done)
	for _, r := range c.Ranks {
		r.round.advance()
	}
}

// doublingCore returns the largest power of two pow2 ≤ n and the rem =
// n - pow2 ranks beyond it.
func doublingCore(n int) (pow2, rem int) {
	pow2 = 1
	for pow2*2 <= n {
		pow2 *= 2
	}
	return pow2, n - pow2
}

// coreRank maps a core id (0..pow2-1) to its real rank after the fold.
func coreRank(id, rem int) int {
	if id < rem {
		return 2 * id
	}
	return id + rem
}

// AllreduceRecursiveDoubling performs an allreduce of size bytes per rank
// with the latency-optimal recursive-doubling algorithm: ⌈log2 n⌉ rounds
// of full-vector pairwise exchanges across doubling distances. Non-power-
// of-two sizes use the standard fold: the first 2·(n-pow2) ranks pair up,
// odd ranks fold into their even neighbor before the rounds and receive
// the result after. Distances double every round, so on a dragonfly the
// later rounds are exactly the cross-group exchanges.
func (c *Comm) AllreduceRecursiveDoubling(size int, done func()) {
	c.start(opDoubling, size, done)
	pow2, rem := doublingCore(len(c.Ranks))
	for _, r := range c.Ranks {
		x := &r.round
		switch {
		case r.id < 2*rem && r.id%2 == 1:
			// Folded rank: contribute the vector, wait for the result.
			x.step, x.waits = pow2, 2
			r.SendTo(r.id-1, size, x.sendDone)
			r.RecvFrom(r.id-1, x.recvDone)
		case r.id < 2*rem:
			// Absorb the odd neighbor, run the rounds, return the result.
			x.step, x.core, x.fold, x.waits = 1, r.id/2, r.id+1, 1
			r.RecvFrom(r.id+1, x.recvDone)
		default:
			x.step, x.core = 1, r.id-rem
			x.advance()
		}
	}
}

// AlltoallPairwise performs a complete exchange — every rank sends a
// distinct block of block bytes to every other rank — with the pairwise-
// exchange algorithm: n-1 rounds, in round k each rank sends to (id+k) mod
// n and receives from (id-k) mod n. Total traffic is n·(n-1)·block bytes;
// under group-spilled placement almost all of it crosses the global links,
// which is the classic dragonfly hotspot.
func (c *Comm) AlltoallPairwise(block int, done func()) {
	c.start(opAlltoall, block, done)
	for _, r := range c.Ranks {
		r.round.step = 1
		r.round.advance()
	}
}

// HaloExchange performs one step of a periodic 1-D nearest-neighbor halo
// exchange: every rank sends halo bytes to each ring neighbor and receives
// each neighbor's halo. Total traffic is 2·n·halo bytes, all of it between
// adjacent ranks — the pattern placement-aware scheduling keeps entirely
// inside a dragonfly group.
func (c *Comm) HaloExchange(halo int, done func()) {
	c.start(opHalo, halo, done)
	n := len(c.Ranks)
	for _, r := range c.Ranks {
		x := &r.round
		left, right := mod(r.id-1, n), mod(r.id+1, n)
		x.waits = 4
		r.RecvFrom(left, x.recvDone)
		r.RecvFrom(right, x.recvDone)
		r.SendTo(left, halo, x.sendDone)
		r.SendTo(right, halo, x.sendDone)
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
	pow2, rem := doublingCore(n)
	log := 0
	for p := pow2; p > 1; p /= 2 {
		log++
	}
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
