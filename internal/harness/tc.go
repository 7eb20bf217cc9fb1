package harness

import (
	"fmt"
	"io"
	"time"

	"github.com/caps-sim/shs-k8s/internal/cxi"
	"github.com/caps-sim/shs-k8s/internal/fabric"
	"github.com/caps-sim/shs-k8s/internal/metrics"
	"github.com/caps-sim/shs-k8s/internal/nsmodel"
	"github.com/caps-sim/shs-k8s/internal/sim"
)

// TCResult is one row of the traffic-class interference experiment.
type TCResult struct {
	Scenario string
	VictimTC fabric.TrafficClass
	// LatencyUs summarizes the victim's one-way message latencies (µs).
	LatencyUs metrics.Summary
}

// TCOptions configure the experiment.
type TCOptions struct {
	Seed int64
	// Pings is the number of victim messages per scenario.
	Pings int
}

// DefaultTCOptions returns the defaults.
func DefaultTCOptions() TCOptions {
	return TCOptions{Seed: 1, Pings: 300}
}

// tcBulkMsgBytes is the interfering transfer's message size.
const tcBulkMsgBytes = 4 << 20

// RunTrafficClassExperiment quantifies the paper's use-case (1): a
// latency-critical application co-scheduled with a checkpointing-style bulk
// stream toward the same destination NIC. Three scenarios are measured:
//
//	idle       — victim alone, low-latency class (baseline)
//	ll+bulk    — victim on low_latency, interferer on bulk_data: the
//	             switch's cut-in bounds victim queueing to one MTU slot
//	bulk+bulk  — victim demoted to bulk_data: it queues behind the full
//	             interfering burst at switch egress
func RunTrafficClassExperiment(opts TCOptions) ([]TCResult, error) {
	scenarios := []struct {
		name     string
		victimTC fabric.TrafficClass
		load     bool
	}{
		{"idle", fabric.TCLowLatency, false},
		{"ll+bulk", fabric.TCLowLatency, true},
		{"bulk+bulk", fabric.TCBulkData, true},
	}
	var out []TCResult
	for i, sc := range scenarios {
		lat, err := runTCScenario(opts.Seed+int64(i)*1931, sc.victimTC, sc.load, opts)
		if err != nil {
			return nil, fmt.Errorf("harness: tc scenario %s: %w", sc.name, err)
		}
		out = append(out, TCResult{Scenario: sc.name, VictimTC: sc.victimTC, LatencyUs: metrics.Summarize(lat)})
	}
	return out, nil
}

func runTCScenario(seed int64, victimTC fabric.TrafficClass, load bool, opts TCOptions) ([]float64, error) {
	eng := sim.NewEngine(seed)
	kern := nsmodel.NewKernel()
	fcfg := fabric.DefaultConfig()
	sw := fabric.NewSwitch("rosetta0", eng, fcfg)
	victim := cxi.NewDevice("cxi-victim", eng, kern, sw, cxi.DefaultDeviceConfig())
	bulk := cxi.NewDevice("cxi-bulk", eng, kern, sw, cxi.DefaultDeviceConfig())
	dst := cxi.NewDevice("cxi-dst", eng, kern, sw, cxi.DefaultDeviceConfig())

	pv, err := kern.Spawn("victim", 0, 0, 0, 0)
	if err != nil {
		return nil, err
	}
	pb, _ := kern.Spawn("bulk", 0, 0, 0, 0)
	pd, _ := kern.Spawn("dst", 0, 0, 0, 0)

	epV, err := victim.EPAlloc(pv.PID, cxi.DefaultSvcID, 1, victimTC)
	if err != nil {
		return nil, err
	}
	epB, err := bulk.EPAlloc(pb.PID, cxi.DefaultSvcID, 1, fabric.TCBulkData)
	if err != nil {
		return nil, err
	}
	// Two receive endpoints on the destination NIC, one per stream.
	epDV, err := dst.EPAlloc(pd.PID, cxi.DefaultSvcID, 1, victimTC)
	if err != nil {
		return nil, err
	}
	epDB, err := dst.EPAlloc(pd.PID, cxi.DefaultSvcID, 1, fabric.TCBulkData)
	if err != nil {
		return nil, err
	}
	epDB.OnMessage(func(cxi.Message) {})

	// Interfering stream: back-to-back bulk messages for the whole run.
	if load {
		var pump func()
		pump = func() {
			_ = epB.Send(dst.Addr(), epDB.Idx(), tcBulkMsgBytes, pump)
		}
		eng.After(0, pump)
	}

	// Victim: periodic small messages; latency measured from send call to
	// delivery at the destination endpoint.
	var latencies []float64
	var sentAt sim.Time
	finished := false
	sent := 0
	var ping func()
	epDV.OnMessage(func(cxi.Message) {
		latencies = append(latencies, eng.Now().Sub(sentAt).Seconds()*1e6)
		if sent >= opts.Pings {
			finished = true
			return
		}
		// Pace pings so each observes fresh congestion state.
		eng.After(50*time.Microsecond, ping)
	})
	ping = func() {
		sentAt = eng.Now()
		sent++
		_ = epV.Send(dst.Addr(), epDV.Idx(), 8, nil)
	}
	eng.After(0, ping)

	guard := eng.Now().Add(time.Minute)
	for !finished && eng.Now() < guard && eng.Step() {
	}
	if !finished {
		return nil, fmt.Errorf("victim pings incomplete: %d/%d", len(latencies), opts.Pings)
	}
	return latencies, nil
}

// RenderTrafficClasses writes the experiment table.
func RenderTrafficClasses(w io.Writer, results []TCResult) {
	fmt.Fprintf(w, "%-12s %-16s %10s %10s %10s %10s   [victim one-way latency, us]\n",
		"scenario", "victim TC", "p50", "p90", "max", "mean")
	for _, r := range results {
		fmt.Fprintf(w, "%-12s %-16s %10.2f %10.2f %10.2f %10.2f\n",
			r.Scenario, r.VictimTC, r.LatencyUs.P50, r.LatencyUs.P90, r.LatencyUs.Max, r.LatencyUs.Mean)
	}
}
