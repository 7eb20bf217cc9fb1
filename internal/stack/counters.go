package stack

import (
	"github.com/caps-sim/shs-k8s/internal/cni"
	"github.com/caps-sim/shs-k8s/internal/cxi"
	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/vnidb"
	"github.com/caps-sim/shs-k8s/internal/vnisvc"
)

// Source names one counter source of a stack. Reading one can cost — the
// fabric and NIC counters copy maps, the VNI database scans its rows — so a
// reader names the sources it reads.
type Source uint8

// The sources, in Counters field order.
const (
	Fabric       Source = 1 << iota // every switch, summed
	NICs                            // each node's CXI device
	CNI                             // each node's CXI CNI plugin
	VNI                             // the VNI Endpoint; zero without the VNI service
	DB                              // the VNI database's occupancy
	ControlPlane                    // the client's fault-layer counters, the API server's state

	AllSources = Fabric | NICs | CNI | VNI | DB | ControlPlane
)

// Counters is one read-only snapshot of a stack's counters, the one place
// they are read together; each package keeps its own. The engine's are
// always filled, every other field only when its source was asked for.
type Counters struct {
	Steps, Elided, Parked uint64
	Fabric                fabric.SwitchStats
	NICs                  []cxi.DeviceStats    // in Nodes order
	CNI                   []cni.CXIPluginStats // in Nodes order
	VNI                   vnisvc.EndpointStats
	DB                    vnidb.Stats
	CP                    k8s.CPStats
	APIServer             string // the API server's availability
	CPArmed               bool   // whether the control-plane fault layer was ever armed
}

// Counters reads the engine and the sources in from.
func (s *Stack) Counters(from Source) Counters {
	c := Counters{Steps: s.Eng.Steps, Elided: s.Eng.Elided, Parked: s.Eng.Parked}
	if from&Fabric != 0 {
		c.Fabric = s.Topo.Stats()
	}
	for _, n := range s.Nodes {
		if from&NICs != 0 {
			c.NICs = append(c.NICs, n.Device.Stats())
		}
		if from&CNI != 0 {
			c.CNI = append(c.CNI, n.CXICNI.Stats())
		}
	}
	if from&VNI != 0 && s.VNISvc != nil {
		c.VNI = s.VNISvc.Endpoint.Stats()
	}
	if from&DB != 0 {
		c.DB = s.DB.Stats()
	}
	if from&ControlPlane != 0 {
		cli := s.Cluster.Client
		c.CP, c.APIServer, c.CPArmed = cli.Stats(), cli.API().Availability().String(), cli.FaultsArmed()
	}
	return c
}
