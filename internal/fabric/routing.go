package fabric

import (
	"fmt"
	"time"
)

// routeEntry is one slot of the next-link cache, indexed by
// (source switch, destination switch). An entry is valid while its epoch
// matches the topology's; SetTrunkDown bumps the epoch, so a topology
// change invalidates every cached route at once without a sweep.
type routeEntry struct {
	epoch uint64
	// next is the first link of the best live minimal path, nil when no
	// live path exists.
	next *link
	// blame, when next is nil, is the link charged with each drop (the
	// direct intra-group trunk, or the preferred global link), keeping
	// hot-link drop counters identical to per-packet re-resolution.
	blame *link
}

// debugFreezeRouteCache, when true, makes cacheValid accept any populated
// entry regardless of epoch — deliberately reintroducing the stale-cache
// bug class the route epoch exists to prevent. It exists solely so the
// fuzz harness (internal/fuzz) can prove its differential routing oracle
// detects that class: tests flip it on, watch VerifyRoutes fail, and flip
// it back off. Nothing in production paths sets it.
var debugFreezeRouteCache bool

// SetDebugFreezeRouteCache toggles the injected stale-route-cache bug used
// by the fuzz harness's oracle self-test. Callers must restore false.
func SetDebugFreezeRouteCache(v bool) { debugFreezeRouteCache = v }

// cacheValid reports whether nextLink may serve the cached entry without
// re-resolving. This single predicate is shared with VerifyRoutes, so the
// oracle audits exactly the decisions the hot path would serve — including
// under the injected debugFreezeRouteCache bug.
func (t *Topology) cacheValid(e *routeEntry) bool {
	if debugFreezeRouteCache {
		return e.epoch != 0 // bug: any populated entry passes, however stale
	}
	return e.epoch == t.routeEpoch
}

// route forwards p, admitted at edge switch s but bound for an address s
// holds no port for, over a trunk toward the edge switch owning it. It
// returns admitted once the packet is on the trunk, else the reason s
// drops it for: DropNoRoute when no other switch owns the address,
// DropLinkDown when every minimal path's first link is down.
func (t *Topology) route(s *Switch, p *Packet) DropReason {
	dst, ok := t.SwitchFor(p.Dst)
	if !ok || dst == s {
		return DropNoRoute
	}
	return t.hop(s.index, dst.index, p)
}

// nextLink resolves the first link of a minimal path from switch ci toward
// switch di through the epoch-validated cache. In the steady state this is
// one slice read; the minimal-path search in resolveNextLink runs only for
// the first packet over each switch pair after a topology change. The
// per-packet drop accounting (charging the blamed link) stays here so
// counters match uncached resolution exactly.
func (t *Topology) nextLink(ci, di int) (*link, bool) {
	l, blame := t.peekNextLink(ci, di)
	if l == nil {
		if blame != nil {
			blame.stats.Drops++
		}
		return nil, false
	}
	return l, true
}

// peekNextLink resolves the next link through the epoch-validated cache
// without charging drop blame: the flow fast path's plan phase uses it to
// walk a route speculatively (populating the same cache entries the packet
// path serves, so the VerifyRoutes oracle audits both fidelities alike),
// deferring all drop accounting to the packet path it falls back to.
func (t *Topology) peekNextLink(ci, di int) (next, blame *link) {
	e := &t.routes[ci*len(t.switches)+di]
	if !t.cacheValid(e) {
		e.next, e.blame = t.resolveNextLink(ci, di)
		e.epoch = t.routeEpoch
	}
	return e.next, e.blame
}

// resolveNextLink runs the minimal-path search from switch ci to switch di.
// Within a group the path is the direct intra-group trunk. Across groups
// the candidates are the group pair's global links; for each, the path is
// (optional intra hop to the gateway) + global hop + (optional intra hop
// at the far side), and the shortest live path wins, ties broken by
// dragonfly port order. next=nil means every minimal path's entry link is
// down; blame is then the link drops are attributed to.
func (t *Topology) resolveNextLink(ci, di int) (next, blame *link) {
	gc, gd := t.groupOf[ci], t.groupOf[di]
	if gc == gd {
		l := t.links[LinkID{ci, di}]
		if l.down {
			return nil, l
		}
		return l, nil
	}
	var best *link
	bestHops := int(^uint(0) >> 1)
	var firstCandidate *link
	for _, gid := range t.globals[[2]int{gc, gd}] {
		g := t.links[gid]
		if firstCandidate == nil {
			firstCandidate = g
		}
		if g.down {
			continue
		}
		entry := g
		hops := 1
		if gid.From != ci {
			intra := t.links[LinkID{ci, gid.From}]
			if intra.down {
				continue
			}
			entry = intra
			hops++
		}
		if gid.To != di {
			if t.links[LinkID{gid.To, di}].down {
				continue // far-side intra hop is dead: not a live path
			}
			hops++
		}
		if hops < bestHops {
			best, bestHops = entry, hops
		}
	}
	if best == nil {
		// No live minimal path; attribute each loss to the preferred
		// global link so hot-link reports show where traffic died.
		return nil, firstCandidate
	}
	return best, nil
}

// trunkHop is the recycled bookkeeping for one packet copy traversing
// trunk links: the arrival event at each switch on the path reuses the
// same struct, and it returns to the free list when the packet enters
// local delivery or is dropped. The list is a field of the Topology, not
// package state: a topology and everything that touches it run on one
// engine's goroutine, so a plain LIFO suffices, and engines in parallel
// scenario workers share nothing.
type trunkHop struct {
	t   *Topology
	sw  int // switch index the packet is arriving at
	dst int // destination edge switch index
	pkt Packet
}

func putTrunkHop(h *trunkHop) {
	h.pkt = Packet{}
	h.t.hops.Put(h)
}

// hop serializes p onto the next link from switch ci toward switch di and
// schedules its arrival at the far switch. Congestion is modelled per
// directional link: a packet starts serializing when the link frees up
// (busy-until), so competing flows queue behind each other exactly as on a
// real trunk. It returns admitted, or DropLinkDown when no live minimal
// path leaves switch ci.
func (t *Topology) hop(ci, di int, p *Packet) DropReason {
	l, ok := t.nextLink(ci, di)
	if !ok {
		return DropLinkDown
	}
	now := t.eng.Now()
	start := now
	if l.busyAt > start {
		start = l.busyAt
	}
	tx := t.eng.Jitter(wireTime(l.bwBits, p.WireBytes(t.cfg.FrameHeaderBytes)), t.cfg.JitterFrac)
	end := start.Add(tx)
	l.busyAt = end
	l.busyAccum += tx
	l.stats.Forwarded++
	l.stats.Bytes += uint64(p.PayloadBytes)

	h := t.hops.Get()
	h.t, h.sw, h.dst, h.pkt = t, l.id.To, di, *p
	l.arrivals.AtCall(end.Add(l.prop), trunkArriveCall, h)
	return admitted
}

// trunkArriveCall lands a pooled packet at a switch on its path. At the
// destination edge it enters local delivery (egress ACL + port
// serialization); at an intermediate switch it pays the forwarding latency
// and takes the next hop, re-resolving the route so links failed or
// recovered while the packet was in flight take effect.
func trunkArriveCall(a any) {
	h := a.(*trunkHop)
	t := h.t
	if h.sw == h.dst {
		t.switches[h.dst].InjectFromTrunk(&h.pkt)
		putTrunkHop(h)
		return
	}
	t.eng.AfterCall(t.eng.Jitter(t.cfg.SwitchLatency, t.cfg.JitterFrac), trunkForwardCall, h)
}

// trunkForwardCall takes the next hop after the switch forwarding latency.
func trunkForwardCall(a any) {
	h := a.(*trunkHop)
	if r := h.t.hop(h.sw, h.dst, &h.pkt); r != admitted {
		h.t.switches[h.sw].drop(&h.pkt, r)
	}
	putTrunkHop(h)
}

// wireTime returns the serialization time of n bytes at bwBits bits/s.
func wireTime(bwBits float64, bytes int) time.Duration {
	return time.Duration(float64(bytes*8) / bwBits * float64(time.Second))
}

// VerifyRoutes is the differential routing oracle: for every switch pair
// whose cache entry the hot path would currently serve (same validity
// predicate as nextLink), it re-runs the minimal-path search from scratch
// and reports the first divergence in either the chosen next link or the
// blamed link. A healthy epoch scheme can never diverge — any topology
// change bumps routeEpoch, invalidating the entry before it is served — so
// a non-nil return means a stale-cache bug. The fuzz harness calls this
// after every scenario event and at end of run; it is O(switches²) and
// mutates nothing.
func (t *Topology) VerifyRoutes() error {
	n := len(t.switches)
	for ci := 0; ci < n; ci++ {
		for di := 0; di < n; di++ {
			if ci == di {
				continue
			}
			e := &t.routes[ci*n+di]
			if e.epoch == 0 || !t.cacheValid(e) {
				continue // never populated, or due for re-resolution anyway
			}
			next, blame := t.resolveNextLink(ci, di)
			if e.next != next || (e.next == nil && e.blame != blame) {
				return fmt.Errorf(
					"fabric: route cache diverges from fresh resolution for switch %d -> %d: cached next %s, fresh next %s (cache epoch %d, topology epoch %d)",
					ci, di, linkName(e.next), linkName(next), e.epoch, t.routeEpoch)
			}
		}
	}
	return nil
}

// linkName renders a link for oracle diagnostics.
func linkName(l *link) string {
	if l == nil {
		return "<none>"
	}
	return fmt.Sprintf("%d->%d(%s)", l.id.From, l.id.To, l.kind)
}
