// Package mpi provides the MPI-like messaging layer the simulated
// workloads run on: N-rank communicators with matched point-to-point
// Send/Recv over libfabric domains, plus the event-driven collective
// algorithms in collectives.go (ring and recursive-doubling allreduce,
// pairwise-exchange all-to-all, nearest-neighbor halo exchange). The code
// is written in continuation-passing style because the simulation is
// event-driven: a blocking MPI_Recv becomes a callback invoked when the
// message arrives.
//
// Matching follows MPI semantics for a single implicit tag: receives name
// a source rank (or AnySource) and match arrivals from that rank in FIFO
// order; messages arriving before a matching receive is posted queue on
// the unexpected-message queue. Source ranks are recovered from the wire —
// Cassini frames carry the initiator's endpoint index (fabric.Packet
// SrcIdx), so two ranks whose pods share one NIC are still told apart.
//
// In the paper's software stack this corresponds to Open MPI using the
// libfabric CXI provider (Table I).
package mpi

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/libfabric"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

// ErrRankCount is returned when a communicator is built from fewer than
// two ranks.
var ErrRankCount = errors.New("mpi: at least two ranks required")

// AnySource matches a receive against messages from any rank
// (MPI_ANY_SOURCE).
const AnySource = -1

// CallOverhead models the MPI software layer cost per call (matching,
// request bookkeeping) on top of libfabric.
const CallOverhead = 120 * time.Nanosecond

// inMsg is one arrived-but-unmatched message.
type inMsg struct {
	src  int // sending rank, or AnySource when the sender is not a member
	size int
}

// postedRecv is one posted-but-unmatched receive.
type postedRecv struct {
	src int // rank filter, or AnySource
	fn  func(size int)
}

// Rank is one endpoint of a communicator.
type Rank struct {
	eng  *sim.Engine
	dom  *libfabric.Domain
	comm *Comm
	id   int

	// Unexpected-message queue and pending-receive queue implement MPI
	// matching semantics for a single implicit tag; both are scanned FIFO
	// so per-pair ordering is preserved.
	unexpected []inMsg
	pending    []postedRecv
}

// ID returns the rank number (0 .. Size-1).
func (r *Rank) ID() int { return r.id }

// Size returns the communicator size.
func (r *Rank) Size() int { return len(r.comm.Ranks) }

// Addr returns the libfabric address the rank's endpoint is reachable at.
func (r *Rank) Addr() libfabric.Addr { return r.comm.addrs[r.id] }

// Comm is an N-rank communicator (N ≥ 2).
type Comm struct {
	eng *sim.Engine
	// Ranks holds the members in rank order.
	Ranks []*Rank
	// addrs[i] is rank i's libfabric address; rankOf inverts it.
	addrs  []libfabric.Addr
	rankOf map[libfabric.Addr]int
	// bytes accumulates payload bytes pushed through SendTo/Isend, the
	// basis for the closed-form cost checks in collectives_test.go.
	bytes uint64

	// Free lists of the call-overhead event arguments. A communicator and
	// its ranks run on one engine's goroutine, so the lists are its own.
	matches sim.FreeList[matchArg]
	sendTos sim.FreeList[sendToArg]
}

// Connect builds a communicator from opened domains, one rank per domain
// in argument order, exchanging addresses out of band (the runtime's
// address exchange, e.g. MPI wire-up or the Kubernetes service the
// launcher provides).
func Connect(eng *sim.Engine, doms ...*libfabric.Domain) (*Comm, error) {
	if len(doms) < 2 {
		return nil, ErrRankCount
	}
	c := &Comm{eng: eng, rankOf: make(map[libfabric.Addr]int, len(doms))}
	for i, d := range doms {
		r := &Rank{eng: eng, dom: d, comm: c, id: i}
		c.Ranks = append(c.Ranks, r)
		addr := d.Addr()
		if prev, dup := c.rankOf[addr]; dup {
			return nil, fmt.Errorf("mpi: ranks %d and %d share address %s", prev, i, addr)
		}
		c.addrs = append(c.addrs, addr)
		c.rankOf[addr] = i
	}
	for i := range c.Ranks {
		r := c.Ranks[i]
		r.dom.OnRecv(func(src libfabric.Addr, size int) {
			from, ok := c.rankOf[src]
			if !ok {
				from = AnySource // non-member: matched only by wildcard receives
			}
			r.deliver(from, size)
		})
	}
	return c, nil
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.Ranks) }

// SetFidelity selects the fabric fidelity (packet, flow or hybrid) for
// every rank's subsequent sends; see fabric.Fidelity. The workload engine
// calls this per run, so a communicator reused across runs follows each
// run's declared fidelity.
func (c *Comm) SetFidelity(f fabric.Fidelity) {
	for _, r := range c.Ranks {
		r.dom.SetFidelity(f)
	}
}

// BytesSent returns the total payload bytes the ranks have pushed onto the
// wire through this communicator.
func (c *Comm) BytesSent() uint64 { return c.bytes }

// matchArg is the recycled argument of a matched-receive completion event
// (the MPI call-overhead delay between match and callback), replacing a
// per-message closure on the receive path.
type matchArg struct {
	c    *Comm
	fn   func(size int)
	size int
}

func matchCall(a any) {
	m := a.(*matchArg)
	fn, size := m.fn, m.size
	m.fn = nil
	m.c.matches.Put(m)
	fn(size)
}

// completeAfterOverhead schedules fn(size) after the MPI software overhead
// without allocating a closure.
func (r *Rank) completeAfterOverhead(fn func(size int), size int) {
	m := r.comm.matches.Get()
	m.c, m.fn, m.size = r.comm, fn, size
	r.eng.AfterCall(CallOverhead, matchCall, m)
}

// deliver matches an arrived message against the pending receives,
// completing the earliest posted receive whose source filter accepts it.
func (r *Rank) deliver(src, size int) {
	for i, p := range r.pending {
		if p.src != AnySource && p.src != src {
			continue
		}
		// slices.Delete, not a bare append(q[:i], q[i+1:]...): it zeroes
		// the vacated tail slot, where the append leaves a copy of the
		// last entry that keeps a finished collective's continuation (and
		// all it captured) reachable from the Rank.
		r.pending = slices.Delete(r.pending, i, i+1)
		r.completeAfterOverhead(p.fn, size)
		return
	}
	r.unexpected = append(r.unexpected, inMsg{src: src, size: size})
}

// SendTo posts a non-blocking send of size bytes to rank dst; onComplete
// (optional) fires at local completion (send buffer reusable).
func (r *Rank) SendTo(dst, size int, onComplete func()) {
	if dst < 0 || dst >= len(r.comm.Ranks) {
		panic(fmt.Sprintf("mpi: rank %d sending to nonexistent rank %d", r.id, dst))
	}
	peer := r.comm.addrs[dst]
	r.comm.bytes += uint64(size)
	sa := r.comm.sendTos.Get()
	sa.r, sa.peer, sa.size, sa.onComplete = r, peer, size, onComplete
	r.eng.AfterCall(CallOverhead, sendToCall, sa)
}

// sendToArg is the recycled argument of a send-side call-overhead event.
type sendToArg struct {
	r          *Rank
	peer       libfabric.Addr
	size       int
	onComplete func()
}

func sendToCall(a any) {
	sa := a.(*sendToArg)
	r, peer, size, onComplete := sa.r, sa.peer, sa.size, sa.onComplete
	*sa = sendToArg{}
	r.comm.sendTos.Put(sa)
	// Send only fails on a closed domain: the rank's gang was closed
	// between the call and its software overhead (a caller giving up on a
	// stalled run closes its gang mid-flight). The process is gone, and
	// the message it had posted with it.
	_ = r.dom.Send(peer, size, onComplete)
}

// RecvFrom posts a receive matching messages from rank src (or AnySource);
// onMsg fires with the message size when matched.
func (r *Rank) RecvFrom(src int, onMsg func(size int)) {
	for i, m := range r.unexpected {
		if src != AnySource && m.src != src {
			continue
		}
		r.unexpected = slices.Delete(r.unexpected, i, i+1)
		r.completeAfterOverhead(onMsg, m.size)
		return
	}
	r.pending = append(r.pending, postedRecv{src: src, fn: onMsg})
}

// Recv posts a wildcard receive (AnySource); onMsg fires with the message
// size when matched.
func (r *Rank) Recv(onMsg func(size int)) { r.RecvFrom(AnySource, onMsg) }

// peer returns the other rank of a two-rank communicator; the 2-rank
// point-to-point API (Isend/SendRecv) keeps the OSU ping-pong path working
// unchanged and is meaningless on larger communicators.
func (r *Rank) peer() int {
	if len(r.comm.Ranks) != 2 {
		panic(fmt.Sprintf("mpi: Isend/SendRecv need a 2-rank communicator, have %d ranks (use SendTo/RecvFrom)",
			len(r.comm.Ranks)))
	}
	return 1 - r.id
}

// Isend posts a non-blocking send of size bytes to the peer of a two-rank
// communicator; onComplete fires at local completion.
func (r *Rank) Isend(size int, onComplete func()) { r.SendTo(r.peer(), size, onComplete) }

// SendRecv sends size bytes to the peer and waits for the reply (the
// ping-pong step of osu_latency): then runs with the reply size.
func (r *Rank) SendRecv(size int, then func(replySize int)) {
	r.Isend(size, nil)
	r.RecvFrom(r.peer(), then)
}
