package fabric

import (
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

// timedSink records delivery times alongside payloads, so the differential
// tests can compare when packets landed, not just that they did.
type timedSink struct {
	eng   *sim.Engine
	at    []sim.Time
	bytes []int
}

func (s *timedSink) ReceivePacket(p *Packet) {
	s.at = append(s.at, s.eng.Now())
	s.bytes = append(s.bytes, p.PayloadBytes)
}

// flowFixture is one of two structurally identical fabrics driven through
// different fidelities. Endpoint layout (2 groups × 2 switches):
//
//	a0, a1 on switch 1  — a0→a1 is a same-switch transfer
//	b      on switch 0  — a0→b crosses one intra-group trunk
//	d      on switch 2  — a0→d is intra + global (two links)
//	c      on switch 3  — a0→c is intra + global + intra (three links)
type flowFixture struct {
	eng             *sim.Engine
	topo            *Topology
	link0           *HostLink // host link of a0's NIC
	a0, a1, b, c, d Addr
	sinks           map[Addr]*timedSink
}

func newFlowFixture(t *testing.T, seed int64, cfg Config) *flowFixture {
	t.Helper()
	return newFlowFixtureOn(t, seed, cfg, TopologySpec{Groups: 2, SwitchesPerGroup: 2})
}

// newFlowFixtureOn builds the fixture on spec, which must keep the layout
// above: 2 groups of 2 switches.
func newFlowFixtureOn(t *testing.T, seed int64, cfg Config, spec TopologySpec) *flowFixture {
	t.Helper()
	eng := sim.NewEngine(seed)
	topo := NewTopology(eng, cfg, spec)
	f := &flowFixture{eng: eng, topo: topo, sinks: map[Addr]*timedSink{}}
	attach := func(sw int) Addr {
		s := &timedSink{eng: eng}
		addr := topo.Attach(sw, s)
		f.sinks[addr] = s
		if err := topo.GrantVNI(addr, 5); err != nil {
			t.Fatal(err)
		}
		return addr
	}
	f.a0, f.a1 = attach(1), attach(1)
	f.b, f.d, f.c = attach(0), attach(2), attach(3)
	sw1, _ := topo.SwitchFor(f.a0)
	f.link0 = NewHostLink(eng, sw1)
	return f
}

func (f *flowFixture) packet(src, dst Addr, bytes int) *Packet {
	return &Packet{Src: src, Dst: dst, VNI: 5, TC: TCDedicated, PayloadBytes: bytes, Frames: 1, Last: true}
}

// runTransfers drives the same transfer sequence through the fixture, via
// the packet path (fid == FidelityPacket) or the flow fast path, one
// transfer in flight at a time. It returns each transfer's local-completion
// time as reported by the send.
func (f *flowFixture) runTransfers(t *testing.T, fid Fidelity) []sim.Time {
	t.Helper()
	var done []sim.Time
	for _, tr := range []struct {
		dst   Addr
		bytes int
	}{
		{f.a1, 4096},   // same switch
		{f.b, 1 << 16}, // one intra-group trunk
		{f.d, 1 << 18}, // intra + global
		{f.c, 1 << 20}, // intra + global + intra
		{f.a1, 100},    // small, back on the now-idle fabric
		{f.c, 3 << 20}, // large cross-group again
	} {
		p := f.packet(f.a0, tr.dst, tr.bytes)
		f.eng.After(0, func() {
			if fid == FidelityPacket {
				done = append(done, f.link0.Send(p))
				return
			}
			at, ok := f.link0.SendFlow(p, fid, 1)
			if !ok {
				t.Errorf("flow path refused uncongested transfer to %d (%d bytes)", tr.dst, tr.bytes)
				return
			}
			done = append(done, at)
		})
		f.eng.Run()
	}
	return done
}

// diffFabrics asserts two fabrics ended a differential run in the same
// state: per-link counters and utilization, aggregate switch counters, and
// every sink's delivery times and payloads.
func diffFabrics(t *testing.T, pkt, flow *flowFixture) {
	t.Helper()
	pl, fl := pkt.topo.Links(), flow.topo.Links()
	if len(pl) != len(fl) {
		t.Fatalf("link count %d vs %d", len(pl), len(fl))
	}
	for i := range pl {
		if pl[i].Stats != fl[i].Stats {
			t.Errorf("link %s->%s stats: packet %+v, flow %+v", pl[i].From, pl[i].To, pl[i].Stats, fl[i].Stats)
		}
		if pl[i].Utilization != fl[i].Utilization {
			t.Errorf("link %s->%s utilization: packet %v, flow %v", pl[i].From, pl[i].To, pl[i].Utilization, fl[i].Utilization)
		}
	}
	ps, fs := pkt.topo.Stats(), flow.topo.Stats()
	if ps.Injected != fs.Injected || ps.InjectedBytes != fs.InjectedBytes ||
		ps.Forwarded != fs.Forwarded || ps.ForwardedBytes != fs.ForwardedBytes ||
		ps.TrunkForwarded != fs.TrunkForwarded ||
		ps.DropTotal() != fs.DropTotal() || ps.DroppedBytes != fs.DroppedBytes {
		t.Errorf("switch stats: packet %+v, flow %+v", ps, fs)
	}
	for addr, psink := range pkt.sinks {
		fsink := flow.sinks[addr]
		if len(psink.at) != len(fsink.at) {
			t.Errorf("sink %d: %d vs %d deliveries", addr, len(psink.at), len(fsink.at))
			continue
		}
		for i := range psink.at {
			if psink.at[i] != fsink.at[i] || psink.bytes[i] != fsink.bytes[i] {
				t.Errorf("sink %d delivery %d: packet (%v, %d), flow (%v, %d)",
					addr, i, psink.at[i], psink.bytes[i], fsink.at[i], fsink.bytes[i])
			}
		}
	}
}

// TestFlowMatchesPacketUncongested is the core differential: on an
// uncongested fabric with jitter and drift disabled, the flow fast path
// must reproduce the packet path exactly — per-link byte counters and
// utilization, switch counters, delivery times, completion times — while
// eliding events such that Steps+Elided equals the packet run's Steps.
func TestFlowMatchesPacketUncongested(t *testing.T) {
	for _, fid := range []Fidelity{FidelityFlow, FidelityHybrid} {
		t.Run(fid.String(), func(t *testing.T) {
			pkt := newFlowFixture(t, 1, testConfig())
			flow := newFlowFixture(t, 1, testConfig())
			pdone := pkt.runTransfers(t, FidelityPacket)
			fdone := flow.runTransfers(t, fid)
			if len(pdone) != len(fdone) {
				t.Fatalf("%d vs %d completions", len(pdone), len(fdone))
			}
			for i := range pdone {
				if pdone[i] != fdone[i] {
					t.Errorf("transfer %d completion: packet %v, flow %v", i, pdone[i], fdone[i])
				}
			}
			diffFabrics(t, pkt, flow)
			if got, want := flow.eng.Steps+flow.eng.Elided, pkt.eng.Steps; got != want {
				t.Errorf("flow Steps+Elided = %d+%d = %d, packet Steps = %d",
					flow.eng.Steps, flow.eng.Elided, got, want)
			}
			if flow.eng.Elided == 0 {
				t.Error("flow run elided no events: fast path never engaged")
			}
		})
	}
}

// TestFlowMatchesPacketJittered re-runs the differential under the default
// config — per-packet jitter and per-run drift enabled. With one transfer
// in flight at a time the flow commit phase draws jitter in exactly the
// packet path's order, so same-seeded runs must stay bit-identical.
func TestFlowMatchesPacketJittered(t *testing.T) {
	pkt := newFlowFixture(t, 42, DefaultConfig())
	flow := newFlowFixture(t, 42, DefaultConfig())
	pdone := pkt.runTransfers(t, FidelityPacket)
	fdone := flow.runTransfers(t, FidelityFlow)
	for i := range pdone {
		if pdone[i] != fdone[i] {
			t.Errorf("transfer %d completion: packet %v, flow %v", i, pdone[i], fdone[i])
		}
	}
	diffFabrics(t, pkt, flow)
}

// TestFlowMatchesPacketBehindSlowGlobalLink: a frame-granular transfer
// a0→c crosses a global link four times slower than the trunk and egress
// port after it. Those stages cannot send their last frame before the
// global link has delivered it, so their busy-until must land where the
// packet path's last frame leaves them, not n frame times after their first.
func TestFlowMatchesPacketBehindSlowGlobalLink(t *testing.T) {
	const frames = 8
	cfg := testConfig()
	spec := TopologySpec{Groups: 2, SwitchesPerGroup: 2, GlobalLinkBandwidthBits: cfg.LinkBandwidthBits / 4}
	pkt := newFlowFixtureOn(t, 1, cfg, spec)
	flow := newFlowFixtureOn(t, 1, cfg, spec)
	var pdone, fdone sim.Time
	pkt.eng.After(0, func() {
		for i := 0; i < frames; i++ {
			pdone = pkt.link0.Send(&Packet{Src: pkt.a0, Dst: pkt.c, VNI: 5, TC: TCDedicated,
				PayloadBytes: cfg.MTU, Frames: 1, Offset: i * cfg.MTU, Last: i == frames-1})
		}
	})
	flow.eng.After(0, func() {
		p := &Packet{Src: flow.a0, Dst: flow.c, VNI: 5, TC: TCDedicated,
			PayloadBytes: frames * cfg.MTU, Frames: frames, Last: true}
		var ok bool
		if fdone, ok = flow.link0.SendFlow(p, FidelityFlow, frames); !ok {
			t.Fatal("flow path refused an uncongested transfer")
		}
	})
	pkt.eng.Run()
	flow.eng.Run()

	if pdone != fdone {
		t.Errorf("local completion: packet %v, flow %v", pdone, fdone)
	}
	for id, pl := range pkt.topo.links {
		fl := flow.topo.links[id]
		if pl.busyAt != fl.busyAt || pl.busyAccum != fl.busyAccum {
			t.Errorf("link %d->%d busy-until/busy: packet %dns/%v, flow %dns/%v",
				id.From, id.To, pl.busyAt, pl.busyAccum, fl.busyAt, fl.busyAccum)
		}
	}
	psw, _ := pkt.topo.SwitchFor(pkt.c)
	fsw, _ := flow.topo.SwitchFor(flow.c)
	if pe, fe := psw.port(pkt.c).egressAt, fsw.port(flow.c).egressAt; pe != fe {
		t.Errorf("egress busy-until: packet %dns, flow %dns", pe, fe)
	}
	ps, fs := pkt.sinks[pkt.c], flow.sinks[flow.c]
	if len(ps.at) != frames || len(fs.at) != 1 {
		t.Fatalf("deliveries: packet %d, flow %d", len(ps.at), len(fs.at))
	}
	if ps.at[frames-1] != fs.at[0] {
		t.Errorf("last frame delivered: packet %v, flow %v", ps.at[frames-1], fs.at[0])
	}
}

// TestFlowDeclinesStructuralFaults: every condition the packet path would
// drop on must make SendFlow return ok=false with the fabric untouched —
// no counters charged, no events scheduled, no busy-until moved.
func TestFlowDeclinesStructuralFaults(t *testing.T) {
	assertUntouched := func(t *testing.T, f *flowFixture) {
		t.Helper()
		if n := f.eng.Pending(); n != 0 {
			t.Errorf("declined SendFlow left %d events scheduled", n)
		}
		if st := f.topo.Stats(); st.Injected != 0 || st.Forwarded != 0 {
			t.Errorf("declined SendFlow charged switch stats: %+v", st)
		}
		for _, l := range f.topo.Links() {
			if l.Stats != (LinkStats{}) {
				t.Errorf("declined SendFlow charged link %s->%s: %+v", l.From, l.To, l.Stats)
			}
		}
	}

	t.Run("packet fidelity", func(t *testing.T) {
		f := newFlowFixture(t, 1, testConfig())
		if _, ok := f.link0.SendFlow(f.packet(f.a0, f.c, 4096), FidelityPacket, 1); ok {
			t.Fatal("SendFlow accepted FidelityPacket")
		}
		assertUntouched(t, f)
	})

	t.Run("dest port down", func(t *testing.T) {
		f := newFlowFixture(t, 1, testConfig())
		if err := f.topo.SetPortDown(f.c, true); err != nil {
			t.Fatal(err)
		}
		if _, ok := f.link0.SendFlow(f.packet(f.a0, f.c, 4096), FidelityFlow, 1); ok {
			t.Fatal("SendFlow accepted a transfer to a down port")
		}
		assertUntouched(t, f)
	})

	t.Run("dest VNI revoked", func(t *testing.T) {
		f := newFlowFixture(t, 1, testConfig())
		if err := f.topo.RevokeVNI(f.c, 5); err != nil {
			t.Fatal(err)
		}
		if _, ok := f.link0.SendFlow(f.packet(f.a0, f.c, 4096), FidelityFlow, 1); ok {
			t.Fatal("SendFlow accepted a transfer without an egress VNI grant")
		}
		assertUntouched(t, f)
	})

	t.Run("trunk down", func(t *testing.T) {
		f := newFlowFixture(t, 1, testConfig())
		// a0 (switch 1) → b (switch 0): the direct intra trunk is the only
		// minimal path; with it down the plan walk dies.
		if err := f.topo.SetTrunkDown(1, 0, true); err != nil {
			t.Fatal(err)
		}
		if _, ok := f.link0.SendFlow(f.packet(f.a0, f.b, 4096), FidelityFlow, 1); ok {
			t.Fatal("SendFlow accepted a transfer over a down trunk")
		}
		assertUntouched(t, f) // in particular: no blame drop charged by the peek
	})
}

// TestHybridFallsBackOnCongestion: a hybrid transfer whose route queues
// past FlowCongestionThreshold must decline (falling to the packet path),
// while plain flow fidelity pushes through analytically.
func TestHybridFallsBackOnCongestion(t *testing.T) {
	f := newFlowFixture(t, 1, testConfig())
	sw1, _ := f.topo.SwitchFor(f.a1)
	link1 := NewHostLink(f.eng, sw1) // second NIC on switch 1, own host link

	// Saturate the switch1→switch0 trunk: 4 MiB at 200 Gbps ≈ 170 µs of
	// residual occupancy, far past the 1 µs threshold.
	if _, ok := f.link0.SendFlow(f.packet(f.a0, f.b, 4<<20), FidelityFlow, 1); !ok {
		t.Fatal("saturating transfer refused")
	}
	if _, ok := link1.SendFlow(f.packet(f.a1, f.b, 4096), FidelityHybrid, 1); ok {
		t.Fatal("hybrid transfer took the fast path through a congested trunk")
	}
	if _, ok := link1.SendFlow(f.packet(f.a1, f.b, 4096), FidelityFlow, 1); !ok {
		t.Fatal("flow fidelity should ignore congestion and complete analytically")
	}
	f.eng.Run()
}

// TestFlowConservation: a run mixing flow transfers, packet transfers and
// a packet-path drop still balances the fabric-wide conservation equation
// the fuzz harness enforces.
func TestFlowConservation(t *testing.T) {
	f := newFlowFixture(t, 1, testConfig())
	f.eng.After(0, func() {
		if _, ok := f.link0.SendFlow(f.packet(f.a0, f.c, 1<<20), FidelityFlow, 1); !ok {
			t.Error("flow transfer refused")
		}
		f.link0.Send(f.packet(f.a0, f.d, 1<<16))
	})
	f.eng.RunFor(time.Millisecond)
	// Fail c's port, then send both ways: the flow attempt declines and the
	// packet path drops at the destination edge.
	if err := f.topo.SetPortDown(f.c, true); err != nil {
		t.Fatal(err)
	}
	f.eng.After(0, func() {
		if _, ok := f.link0.SendFlow(f.packet(f.a0, f.c, 4096), FidelityHybrid, 1); ok {
			t.Error("flow transfer accepted to a down port")
		}
		f.link0.Send(f.packet(f.a0, f.c, 4096))
	})
	f.eng.Run()

	st := f.topo.Stats()
	if st.Injected != st.Forwarded+st.DropTotal() {
		t.Errorf("conservation violated: injected %d != forwarded %d + dropped %d",
			st.Injected, st.Forwarded, st.DropTotal())
	}
	if st.InjectedBytes != st.ForwardedBytes+st.DroppedBytes {
		t.Errorf("byte conservation violated: %d != %d + %d",
			st.InjectedBytes, st.ForwardedBytes, st.DroppedBytes)
	}
	if st.DropTotal() != 1 {
		t.Errorf("drops = %d, want exactly the one packet-path drop", st.DropTotal())
	}
}

// TestFlowFrozenRouteSurvivesMidFlightFailure pins the second fidelity
// caveat documented on flowSend: a committed flow-level transfer froze its
// route at send time, so a link on that route failing while the transfer
// is "on the wire" neither drops nor reroutes it — delivery stays
// identical to an undisturbed run, in time and bytes. After the failure
// the fast path declines fresh transfers over the dead route at both flow
// and hybrid fidelity, and the packet path — hybrid's fallback — inherits
// the event with its own drop accounting; recovery re-opens the fast path
// through the bumped route epoch.
func TestFlowFrozenRouteSurvivesMidFlightFailure(t *testing.T) {
	const payload = 4 << 20

	// Control: the a0→c transfer (intra + global + intra) undisturbed.
	ctl := newFlowFixture(t, 1, testConfig())
	var wantDone sim.Time
	ctl.eng.After(0, func() {
		at, ok := ctl.link0.SendFlow(ctl.packet(ctl.a0, ctl.c, payload), FidelityFlow, 1)
		if !ok {
			t.Fatal("control transfer refused")
		}
		wantDone = at
	})
	ctl.eng.Run()
	ctlSink := ctl.sinks[ctl.c]
	if len(ctlSink.at) != 1 {
		t.Fatalf("control run delivered %d packets, want 1", len(ctlSink.at))
	}

	// Failure run, same seed: commit the identical transfer, then fail the
	// one global link on its frozen route mid-flight — well after the
	// commit, well before the planned delivery.
	f := newFlowFixture(t, 1, testConfig())
	var done sim.Time
	f.eng.After(0, func() {
		at, ok := f.link0.SendFlow(f.packet(f.a0, f.c, payload), FidelityFlow, 1)
		if !ok {
			t.Fatal("transfer refused before the failure")
		}
		done = at
	})
	f.eng.After(time.Microsecond, func() {
		if err := f.topo.SetGlobalLinkDown(0, 1, 0, true); err != nil {
			t.Error(err)
		}
	})
	f.eng.Run()

	if done != wantDone {
		t.Errorf("local completion moved to %v, control %v", done, wantDone)
	}
	sink := f.sinks[f.c]
	if len(sink.at) != 1 || sink.at[0] != ctlSink.at[0] || sink.bytes[0] != payload {
		t.Errorf("delivery (%v, %v) differs from control (%v, [%d])",
			sink.at, sink.bytes, ctlSink.at, payload)
	}
	if st := f.topo.Stats(); st.DropTotal() != 0 {
		t.Errorf("committed transfer charged %d drop(s)", st.DropTotal())
	}
	// The frozen route charged the now-dead global link exactly as the
	// control run did: the bytes were committed before the failure.
	gid := f.topo.GlobalLinks(0, 1)[0]
	linkStats := func(fx *flowFixture) (LinkStats, bool) {
		for _, li := range fx.topo.Links() {
			if li.ID == gid {
				return li.Stats, true
			}
		}
		return LinkStats{}, false
	}
	got, okG := linkStats(f)
	want, okC := linkStats(ctl)
	if !okG || !okC || got != want {
		t.Errorf("dead global link stats %+v, control %+v", got, want)
	}

	// With the sole global link down, fresh fast-path sends decline at
	// both fidelities and the packet path owns the event: that handoff is
	// hybrid's fallback contract for the same failure.
	var reasons []DropReason
	f.topo.OnDrop(func(p *Packet, r DropReason) { reasons = append(reasons, r) })
	f.eng.After(0, func() {
		if _, ok := f.link0.SendFlow(f.packet(f.a0, f.c, 4096), FidelityFlow, 1); ok {
			t.Error("flow fast path accepted a transfer over the dead global link")
		}
		if _, ok := f.link0.SendFlow(f.packet(f.a0, f.c, 4096), FidelityHybrid, 1); ok {
			t.Error("hybrid fast path accepted a transfer over the dead global link")
		}
		f.link0.Send(f.packet(f.a0, f.c, 4096))
	})
	f.eng.Run()
	if len(sink.at) != 1 {
		t.Errorf("a packet crossed the dead route: deliveries %v", sink.at)
	}
	if len(reasons) != 1 || reasons[0] != DropLinkDown {
		t.Errorf("packet-path drop reasons %v, want exactly one DropLinkDown", reasons)
	}

	// Recovery bumps the route epoch; the hybrid fast path re-plans the
	// same route and accepts again.
	f.eng.After(0, func() {
		if err := f.topo.SetGlobalLinkDown(0, 1, 0, false); err != nil {
			t.Fatal(err)
		}
		if _, ok := f.link0.SendFlow(f.packet(f.a0, f.c, 4096), FidelityHybrid, 1); !ok {
			t.Error("hybrid fast path still declines after link recovery")
		}
	})
	f.eng.Run()
	if len(sink.at) != 2 || sink.bytes[1] != 4096 {
		t.Errorf("post-recovery transfer not delivered: %v %v", sink.at, sink.bytes)
	}
}
