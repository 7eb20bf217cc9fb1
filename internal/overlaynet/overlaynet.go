// Package overlaynet models the datapath the paper's integration exists to
// avoid: pod-to-pod communication over the cluster overlay network — veth
// pair, bridge, VXLAN encapsulation, and the kernel TCP stack on both ends
// (paper §II-D: "Due to the involvement of virtual components, the
// performance of overlay networks is usually prohibitive for HPC
// workloads"). It provides the same continuation-passing message interface
// as the RDMA path so the two can be compared under identical workloads
// (see internal/harness's overlay comparison).
//
// The model is calibrated against published container-networking studies:
// tens of microseconds of small-message latency (kernel stack traversal,
// softirq, encap/decap on both sides) and single-digit GB/s effective
// bandwidth (per-packet CPU cost bounds packets/s; 1448-byte MSS).
package overlaynet

import (
	"time"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

// The overlay datapath's costs, reflecting a flannel/VXLAN-style overlay on
// 25-100 GbE-class virtio/veth plumbing.
const (
	// stackLatency is the one-way kernel+virtualization latency floor:
	// syscall, TCP/IP stack, veth hop, bridge, VXLAN encap on the sender,
	// and the mirror path on the receiver.
	stackLatency = 24 * time.Microsecond
	// perPacketCPU is the CPU cost per MSS-sized packet (skb handling,
	// encap, checksum, softirq); its inverse bounds packet rate: ~2 Mpps ≈
	// 2.9 GB/s at 1448 B.
	perPacketCPU = 480 * time.Nanosecond
	// mss is the TCP maximum segment size inside the tunnel.
	mss = 1448
)

// Config sets the overlay datapath's noise.
type Config struct {
	// Jitter is the per-operation noise fraction (kernel scheduling).
	Jitter float64
}

// DefaultConfig returns the calibrated noise.
func DefaultConfig() Config { return Config{Jitter: 0.08} }

// Path is one direction of an established pod-to-pod TCP connection over
// the overlay.
type Path struct {
	eng    *sim.Engine
	cfg    Config
	busyAt sim.Time
}

// NewPath creates a connection path.
func NewPath(eng *sim.Engine, cfg Config) *Path {
	return &Path{eng: eng, cfg: cfg}
}

// Send models transmitting size bytes; onDelivered fires when the last byte
// is delivered to the receiving pod's socket. Successive sends serialize on
// the sender's per-connection CPU, as a single TCP stream does.
func (p *Path) Send(size int, onDelivered func()) {
	pkts := (size + mss - 1) / mss
	if pkts == 0 {
		pkts = 1
	}
	// Sender-side CPU occupancy serializes the stream.
	cpu := p.eng.Jitter(time.Duration(pkts)*perPacketCPU, p.cfg.Jitter)
	start := p.eng.Now()
	if p.busyAt > start {
		start = p.busyAt
	}
	txDone := start.Add(cpu)
	p.busyAt = txDone
	// Receiver-side cost mirrors the sender's per-packet work; the stack
	// latency floor applies once per message direction.
	lat := p.eng.Jitter(stackLatency, p.cfg.Jitter) +
		p.eng.Jitter(time.Duration(pkts)*perPacketCPU, p.cfg.Jitter)
	if onDelivered != nil {
		p.eng.At(txDone.Add(lat), onDelivered)
	}
}
