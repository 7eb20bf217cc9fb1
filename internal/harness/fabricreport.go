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

// FabricReportConfig shapes the synthetic fabric load.
type FabricReportConfig struct {
	Groups           int
	SwitchesPerGroup int
	// EndpointsPerSwitch is how many NICs attach to each edge switch.
	EndpointsPerSwitch int
	// Messages is the total message count blasted all-to-all.
	Messages int
	// Bytes is the payload per message.
	Bytes int
	Seed  int64
}

// DefaultFabricReportConfig is a 4-group dragonfly under a moderate
// all-to-all burst.
func DefaultFabricReportConfig() FabricReportConfig {
	return FabricReportConfig{
		Groups:             4,
		SwitchesPerGroup:   2,
		EndpointsPerSwitch: 2,
		Messages:           4000,
		Bytes:              16384,
		Seed:               1,
	}
}

// FabricReport is the outcome of one synthetic run.
type FabricReport struct {
	Cfg FabricReportConfig
	// Links is every directional trunk's utilization record.
	Links []metrics.LinkUtil
	// Forwarded and Dropped aggregate the switch counters.
	Forwarded uint64
	Dropped   uint64
	// SimTime is the virtual duration the burst took.
	SimTime sim.Time
}

// RunFabricReport executes the synthetic all-to-all load and collects the
// per-trunk counters.
func RunFabricReport(cfg FabricReportConfig) (*FabricReport, error) {
	if cfg.Groups < 1 || cfg.SwitchesPerGroup < 1 || cfg.EndpointsPerSwitch < 1 {
		return nil, fmt.Errorf("harness: fabric report needs positive topology dimensions")
	}
	eng := sim.NewEngine(cfg.Seed)
	topo := fabric.NewTopology(eng, fabric.DefaultConfig(), fabric.TopologySpec{
		Groups:           cfg.Groups,
		SwitchesPerGroup: cfg.SwitchesPerGroup,
	})
	const vni = 42
	var addrs []fabric.Addr
	var links []*fabric.HostLink
	for i, sw := range topo.Switches() {
		for k := 0; k < cfg.EndpointsPerSwitch; k++ {
			addr := topo.Attach(i, nullSink{})
			if err := topo.GrantVNI(addr, vni); err != nil {
				return nil, err
			}
			addrs = append(addrs, addr)
			links = append(links, fabric.NewHostLink(eng, sw))
		}
	}
	for i := 0; i < cfg.Messages; i++ {
		src := i % len(addrs)
		dst := (i*7 + 1) % len(addrs)
		if dst == src {
			dst = (dst + 1) % len(addrs)
		}
		p := &fabric.Packet{
			Src: addrs[src], Dst: addrs[dst], VNI: vni, TC: fabric.TCBulkData,
			PayloadBytes: cfg.Bytes, Frames: 1, Last: true,
		}
		l := links[src]
		eng.After(0, func() { l.Send(p) })
	}
	eng.Run()
	st := topo.Stats()
	return &FabricReport{
		Cfg:       cfg,
		Links:     topo.LinkUtils(),
		Forwarded: st.Forwarded,
		Dropped:   st.DropTotal(),
		SimTime:   eng.Now(),
	}, nil
}

// RenderFabricReport writes the hot-link table.
func RenderFabricReport(w io.Writer, rep *FabricReport, topN int) {
	fmt.Fprintf(w, "all-to-all: %d msgs x %d B over %dg x %dsw fabric, %s simulated, %d forwarded, %d dropped\n",
		rep.Cfg.Messages, rep.Cfg.Bytes, rep.Cfg.Groups, rep.Cfg.SwitchesPerGroup,
		rep.SimTime, rep.Forwarded, rep.Dropped)
	metrics.RenderHotLinks(w, rep.Links, topN)
}

// nullSink discards delivered packets.
type nullSink struct{}

func (nullSink) ReceivePacket(*fabric.Packet) {}
