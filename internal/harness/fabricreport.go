// Fabric hot-link report: drive a synthetic all-to-all load across a
// multi-group dragonfly and table the busiest trunks. This is the
// fleet-scale observability the paper's two-node pilot never needed —
// once scenarios span groups, knowing which global links saturate is the
// first question.
package harness

import (
	"fmt"
	"io"

	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/metrics"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

// The synthetic load: a 4-group dragonfly (2 switches per group, 2 NICs
// per switch) under a moderate all-to-all burst of 16 KiB messages.
const (
	reportGroups           = 4
	reportSwitchesPerGroup = 2
	reportEndpointsPerSw   = 2
	reportMessages         = 4000
	reportBytes            = 16384
)

// FabricReport is the outcome of one synthetic run.
type FabricReport struct {
	// Links is every directional trunk's utilization record.
	Links []metrics.LinkUtil
	// Forwarded and Dropped aggregate the switch counters.
	Forwarded uint64
	Dropped   uint64
	// SimTime is the virtual duration the burst took.
	SimTime sim.Time
}

// RunFabricReport executes the synthetic all-to-all load at seed and
// collects the per-trunk counters.
func RunFabricReport(seed int64) (*FabricReport, error) {
	eng := sim.NewEngine(seed)
	topo := fabric.NewTopology(eng, fabric.DefaultConfig(), fabric.TopologySpec{
		Groups:           reportGroups,
		SwitchesPerGroup: reportSwitchesPerGroup,
	})
	const vni = 42
	var addrs []fabric.Addr
	var links []*fabric.HostLink
	for i, sw := range topo.Switches() {
		for k := 0; k < reportEndpointsPerSw; k++ {
			addr := topo.Attach(i, nullSink{})
			if err := topo.GrantVNI(addr, vni); err != nil {
				return nil, err
			}
			addrs = append(addrs, addr)
			links = append(links, fabric.NewHostLink(eng, sw))
		}
	}
	for i := 0; i < reportMessages; i++ {
		src := i % len(addrs)
		dst := (i*7 + 1) % len(addrs)
		if dst == src {
			dst = (dst + 1) % len(addrs)
		}
		p := &fabric.Packet{
			Src: addrs[src], Dst: addrs[dst], VNI: vni, TC: fabric.TCBulkData,
			PayloadBytes: reportBytes, Frames: 1, Last: true,
		}
		l := links[src]
		eng.After(0, func() { l.Send(p) })
	}
	eng.Run()
	st := topo.Stats()
	return &FabricReport{
		Links:     topo.LinkUtils(),
		Forwarded: st.Forwarded,
		Dropped:   st.DropTotal(),
		SimTime:   eng.Now(),
	}, nil
}

// RenderFabricReport writes the hot-link table.
func RenderFabricReport(w io.Writer, rep *FabricReport, topN int) {
	fmt.Fprintf(w, "all-to-all: %d msgs x %d B over %dg x %dsw fabric, %s simulated, %d forwarded, %d dropped\n",
		reportMessages, reportBytes, reportGroups, reportSwitchesPerGroup,
		rep.SimTime, rep.Forwarded, rep.Dropped)
	metrics.RenderHotLinks(w, rep.Links, topN)
}

// nullSink discards delivered packets.
type nullSink struct{}

func (nullSink) ReceivePacket(*fabric.Packet) {}
