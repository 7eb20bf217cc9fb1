package overlaynet

import (
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/sim"
)

func TestSmallMessageLatencyRegime(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPath(eng, DefaultConfig())
	var delivered sim.Time
	eng.After(0, func() {
		p.Send(8, func() { delivered = eng.Now() })
	})
	eng.Run()
	us := delivered.Seconds() * 1e6
	if us < 15 || us > 60 {
		t.Errorf("overlay small-message latency = %.1f µs, expected tens of µs", us)
	}
}

func TestStreamingBandwidthRegime(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPath(eng, DefaultConfig())
	const total = 256 << 20 // 256 MB in 1 MB messages
	const msg = 1 << 20
	done := 0
	start := sim.Time(0)
	var finish sim.Time
	eng.After(0, func() {
		for i := 0; i < total/msg; i++ {
			p.Send(msg, func() {
				done++
				if done == total/msg {
					finish = eng.Now()
				}
			})
		}
	})
	eng.Run()
	bw := float64(total) / finish.Sub(start).Seconds()
	ceiling := float64(mss) / perPacketCPU.Seconds() // bytes/s, per-packet CPU bound
	if bw < ceiling*0.7 || bw > ceiling*1.1 {
		t.Errorf("overlay bw = %.2f GB/s, ceiling %.2f GB/s", bw/1e9, ceiling/1e9)
	}
	// The paper's premise: prohibitive for HPC — well under Slingshot's
	// 25 GB/s line rate.
	if bw > 10e9 {
		t.Errorf("overlay bw = %.2f GB/s — model no longer 'prohibitive'", bw/1e9)
	}
}

func TestSendsSerializeOnSenderCPU(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.Jitter = 0
	p := NewPath(eng, cfg)
	var first, second sim.Time
	eng.After(0, func() {
		p.Send(mss*100, func() { first = eng.Now() })
		p.Send(mss*100, func() { second = eng.Now() })
	})
	eng.Run()
	gap := second.Sub(first)
	want := time.Duration(100) * perPacketCPU
	if gap != want {
		t.Errorf("inter-message gap = %v, want sender CPU serialization %v", gap, want)
	}
}

func TestZeroByteMessage(t *testing.T) {
	eng := sim.NewEngine(1)
	p := NewPath(eng, DefaultConfig())
	ok := false
	eng.After(0, func() { p.Send(0, func() { ok = true }) })
	eng.Run()
	if !ok {
		t.Error("zero-byte send never delivered")
	}
}
