package fabric

import (
	"slices"
	"testing"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

// FuzzRouting drives the epoch-cached routing layer directly: fuzzed bytes
// pick a dragonfly shape and a sequence of trunk/global-link state flips
// interleaved with nextLink queries (which populate the cache), and after
// every operation the differential oracle VerifyRoutes must agree that no
// cached next-hop diverges from a fresh resolution. This is the in-vitro
// counterpart of fuzz.FuzzScenarioEngine's whole-engine oracle — it reaches
// cache/epoch interleavings no scenario schedule produces.
func FuzzRouting(f *testing.F) {
	f.Add([]byte{2, 2, 1, 0, 1, 2, 3})
	f.Add([]byte{3, 3, 2, 9, 4, 17, 2, 255, 0, 8})
	f.Add([]byte{1, 2, 1, 5, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			t.Skip()
		}
		spec := TopologySpec{
			Groups:             1 + int(data[0])%3,
			SwitchesPerGroup:   1 + int(data[1])%3,
			GlobalLinksPerPair: 1 + int(data[2]),
		}
		if spec.GlobalLinksPerPair > spec.SwitchesPerGroup {
			spec.GlobalLinksPerPair = spec.SwitchesPerGroup
		}
		eng := sim.NewEngine(1)
		topo := NewTopology(eng, testConfig(), spec)
		n := len(topo.Switches())

		check := func(op string) {
			t.Helper()
			if err := topo.VerifyRoutes(); err != nil {
				t.Fatalf("after %s: %v", op, err)
			}
		}
		check("construction")
		for i := 3; i+2 < len(data); i += 3 {
			a, b := int(data[i+1])%n, int(data[i+2])%n
			if a == b { // nextLink is only defined across distinct switches
				continue
			}
			switch data[i] % 4 {
			case 0: // populate the cache
				topo.nextLink(a, b)
			case 1: // cut then query: stale entries must not be served
				topo.SetTrunkDown(a, b, true) // error (no such trunk) is fine
				topo.nextLink(a, b)
			case 2: // restore
				topo.SetTrunkDown(a, b, false)
				topo.nextLink(b, a)
			case 3: // flip one global link between the switches' groups
				ga, gb := topo.GroupOf(a), topo.GroupOf(b)
				if ga != gb {
					down := data[i+1]&1 == 0
					topo.SetGlobalLinkDown(ga, gb, int(data[i+2])%spec.GlobalLinksPerPair, down)
				}
				topo.nextLink(a, b)
			}
			check("op")
		}
		// Leave nothing down for the final full sweep, then re-verify.
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a != b {
					topo.SetTrunkDown(a, b, false)
				}
			}
		}
		for ga := 0; ga < spec.Groups; ga++ {
			for gb := 0; gb < spec.Groups; gb++ {
				if ga != gb {
					for k := 0; k < spec.GlobalLinksPerPair; k++ {
						topo.SetGlobalLinkDown(ga, gb, k, false)
					}
				}
			}
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				if next, ok := topo.nextLink(a, b); !ok || next == nil {
					t.Fatalf("healthy fabric: no route %d -> %d", a, b)
				}
			}
		}
		check("final sweep")
	})
}

// FuzzAdmission holds the flow fast path to the packet path's admission
// decision: fuzzed bytes pick a dragonfly of at most 3×3 switches, four
// endpoints (each one's switch, VNI grant, port-down flag and partition
// group), the packet's traffic class, source and destination (possibly an
// address nobody owns). One packet goes at flow fidelity on a fresh
// fabric and at packet fidelity on a twin. The flow path must decline
// exactly when the packet path drops, leave its fabric untouched when it
// does, and otherwise deliver the same bytes to the same endpoint.
func FuzzAdmission(f *testing.F) {
	f.Add([]byte{1, 1, 0, 0, 0x01, 0x01, 0x01, 0x01, 1})
	f.Add([]byte{2, 2, 1, 2, 0x09, 0x19, 0x01, 0x00, 3})
	f.Add([]byte{3, 3, 4, 1, 0x01, 0x07, 0x29, 0x45, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		const endpoints = 4
		if len(data) < 5+endpoints {
			t.Skip()
		}
		spec := TopologySpec{Groups: 1 + int(data[0])%3, SwitchesPerGroup: 1 + int(data[1])%3}
		tc := TrafficClass(data[2] % (uint8(numTrafficClasses) + 1)) // the last is invalid
		ep := data[4 : 4+endpoints]
		src, dstIdx := int(data[3])%endpoints, int(data[4+endpoints])%(endpoints+1)

		type twin struct {
			eng   *sim.Engine
			topo  *Topology
			link  *HostLink
			sinks []*timedSink
			p     *Packet
		}
		// build wires one fabric from data: endpoint k's byte holds its
		// switch (bits 3 and up), VNI grant (bit 0), port down (bit 1) and
		// partition group (bit 2).
		build := func() *twin {
			eng := sim.NewEngine(1)
			fb := &twin{eng: eng, topo: NewTopology(eng, testConfig(), spec)}
			n := len(fb.topo.Switches())
			addrs := make([]Addr, endpoints)
			groups := map[Addr]int{}
			for k, b := range ep {
				s := &timedSink{eng: eng}
				fb.sinks = append(fb.sinks, s)
				addrs[k] = fb.topo.Attach(int(b>>3)%n, s)
				if b&1 != 0 {
					if err := fb.topo.GrantVNI(addrs[k], 5); err != nil {
						t.Fatal(err)
					}
				}
				if err := fb.topo.SetPortDown(addrs[k], b&2 != 0); err != nil {
					t.Fatal(err)
				}
				groups[addrs[k]] = int(b>>2) & 1
			}
			fb.topo.SetPartition(groups)
			dst := Addr(1 << 20) // owned by no switch
			if dstIdx < endpoints {
				dst = addrs[dstIdx]
			}
			sw, _ := fb.topo.SwitchFor(addrs[src])
			fb.link = NewHostLink(eng, sw)
			fb.p = &Packet{Src: addrs[src], Dst: dst, VNI: 5, TC: tc, PayloadBytes: 4096, Frames: 1, Last: true}
			return fb
		}

		flow, pkt := build(), build()
		_, ok := flow.link.SendFlow(flow.p, FidelityFlow, 1)
		pkt.link.Send(pkt.p)
		pkt.eng.Run()
		st := pkt.topo.Stats()
		if drops := st.DropTotal(); ok != (drops == 0) {
			t.Fatalf("flow path ok=%v, packet path dropped %d (%v)", ok, drops, st.Drops)
		}
		if !ok {
			if st := flow.topo.Stats(); flow.eng.Pending() != 0 || st.Injected != 0 || st.Forwarded != 0 || flow.link.busyAt != 0 {
				t.Fatalf("declined SendFlow touched the fabric: %d events pending, stats %+v", flow.eng.Pending(), st)
			}
			return
		}
		flow.eng.Run()
		for k := range pkt.sinks {
			if !slices.Equal(pkt.sinks[k].bytes, flow.sinks[k].bytes) {
				t.Errorf("endpoint %d received %v at packet fidelity, %v at flow", k, pkt.sinks[k].bytes, flow.sinks[k].bytes)
			}
		}
	})
}
