// Package telemetry is the simulator's time-series subsystem: a sampler
// driven by a periodic virtual-clock event that snapshots fabric link
// utilization and drops, per-switch forwarding counters, control-plane pod
// and job state, and live workload progress into an in-memory ring of
// timestamped samples. The ring exports as JSONL (one sample per line, for
// post-hoc analysis) and as Prometheus text exposition (the latest sample,
// for scrape-shaped consumers); docs/observability.md documents both.
//
// Sampling is deterministic: every field derives from the virtual clock
// and the simulation's own counters, so two same-seed runs produce
// byte-identical series. And it is strictly opt-in: nothing in the
// simulation layers references this package, so a run without an attached
// sampler pays zero cost — the hot paths keep their 0 allocs/op (the
// telemetry tests hold an AllocsPerRun guard over the event core with a
// detached sampler to prove it).
package telemetry

import (
	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/stack"
)

// Sources names what one sampler observes. Every field is optional: a nil
// source simply leaves its section of each sample empty.
type Sources struct {
	// Stack supplies per-link utilization/drop records, per-switch
	// injected/forwarded/dropped counters, the pods and jobs (through the
	// shared informers' listers, so sampling costs no API copies) and the
	// control-plane counters. Those are read even while the fault layer
	// is dormant, because fault events arm it mid-run; until then CPArmed
	// is false, which omits every control-plane field and keeps
	// fault-free series byte-identical.
	Stack *stack.Stack
	// Progress reports live workload progress: collective iterations
	// completed and scheduled so far (cumulative over all traffic runs).
	Progress func() (done, total int)
	// Health reports the health/remediation loop's state. Nil when the
	// health loop is not running (the common case): the sample then omits
	// every health field, keeping the series byte-identical to a build
	// without the subsystem.
	Health func() HealthStats
}

// HealthStats is the health subsystem's snapshot for one sample: which
// nodes the daemon considers degrading, which it has cordoned, and how
// far remediation has progressed.
type HealthStats struct {
	Degraded    []string
	Cordoned    []string
	Remediating int
	Remediated  int
}

// Config tunes a sampler.
type Config struct {
	// Interval is the virtual-clock sampling period (required, > 0).
	Interval sim.Duration
	// Capacity bounds the ring; when full, the oldest sample is
	// overwritten. 0 means DefaultCapacity.
	Capacity int
}

// DefaultCapacity is the ring size when Config.Capacity is 0: large
// enough for an hour of virtual time at 1 s samples with room to spare,
// small enough to stay cheap.
const DefaultCapacity = 8192

// LinkSample is one directional trunk's state at sample time.
type LinkSample struct {
	Link string `json:"link"` // "from->to" switch names
	Kind string `json:"kind"` // "intra" or "global"
	// Bytes/Packets/Drops are cumulative fabric-lifetime counters.
	Bytes   uint64 `json:"bytes"`
	Packets uint64 `json:"packets"`
	Drops   uint64 `json:"drops"`
	// Util is the busy fraction (0..1) since time zero.
	Util float64 `json:"util"`
	Down bool    `json:"down,omitempty"`
}

// SwitchSample is one edge switch's cumulative forwarding counters.
type SwitchSample struct {
	Switch    string `json:"switch"`
	Injected  uint64 `json:"injected"`
	Forwarded uint64 `json:"forwarded"`
	Dropped   uint64 `json:"dropped"`
}

// Sample is one timestamped snapshot. Counters are cumulative (Prometheus
// counter semantics); deltas are the reader's derivative.
type Sample struct {
	// TimeUS is the virtual clock in microseconds.
	TimeUS   int64          `json:"t_us"`
	Links    []LinkSample   `json:"links,omitempty"`
	Switches []SwitchSample `json:"switches,omitempty"`

	PodsPending   int `json:"pods_pending"`
	PodsRunning   int `json:"pods_running"`
	PodsSucceeded int `json:"pods_succeeded"`
	PodsFailed    int `json:"pods_failed"`
	JobsActive    int `json:"jobs_active"`
	JobsCompleted int `json:"jobs_completed"`

	WorkloadDone  int `json:"workload_done"`
	WorkloadTotal int `json:"workload_total"`

	// Health fields appear only when a health source is attached
	// (HealthOn true); omitempty keeps health-less series unchanged.
	HealthOn    bool     `json:"health,omitempty"`
	Degraded    []string `json:"degraded,omitempty"`
	Cordoned    []string `json:"cordoned,omitempty"`
	Remediating int      `json:"remediating,omitempty"`
	Remediated  int      `json:"remediated,omitempty"`

	// Control-plane fields appear only once a fault event has armed the
	// apiserver fault layer (CPOn true); omitempty keeps fault-free
	// series unchanged.
	CPOn           bool    `json:"cp,omitempty"`
	Availability   string  `json:"apiserver,omitempty"`
	APIRetries     uint64  `json:"apiserver_retries,omitempty"`
	WatchRelists   uint64  `json:"watch_relists,omitempty"`
	StaleReads     uint64  `json:"stale_reads,omitempty"`
	MaxStalenessUs float64 `json:"max_staleness_us,omitempty"`
}

// Sampler snapshots Sources into a bounded ring on a periodic virtual-
// clock event. Create with New, start with Attach, stop with Detach.
// Like every simulated component it is confined to the engine's goroutine.
type Sampler struct {
	eng  *sim.Engine
	cfg  Config
	src  Sources
	tick sim.Ticker
	// ring is the sample storage; len grows to cap then stays; head is the
	// index of the oldest sample once the ring has wrapped.
	ring    []Sample
	head    int
	wrapped bool
	// taken counts samples ever taken, including overwritten ones.
	taken uint64
}

// New builds a sampler; it takes no samples until Attach.
func New(eng *sim.Engine, cfg Config) *Sampler {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	return &Sampler{eng: eng, cfg: cfg}
}

// Attach points the sampler at its sources, takes an immediate sample, and
// starts the periodic tick. Attaching an attached sampler is a no-op.
func (s *Sampler) Attach(src Sources) {
	if s.tick.Running() {
		return
	}
	s.src = src
	s.sample()
	s.tick.Start(s.eng, s.cfg.Interval, s.sample)
}

// Detach stops the periodic tick; the collected ring stays readable.
// After Detach the sampler contributes nothing to the engine — no events,
// no allocations.
func (s *Sampler) Detach() { s.tick.Stop() }

// Len returns the number of samples currently held (≤ capacity).
func (s *Sampler) Len() int {
	if s.wrapped {
		return len(s.ring)
	}
	return s.head
}

// Taken returns the number of samples ever taken, including ones the ring
// has since overwritten.
func (s *Sampler) Taken() uint64 { return s.taken }

// sample takes one snapshot now.
func (s *Sampler) sample() {
	var sm *Sample
	if !s.wrapped && s.head == s.cfg.Capacity {
		s.wrapped = true
		s.head = 0
	}
	if s.wrapped {
		sm = &s.ring[s.head]
		s.head = (s.head + 1) % len(s.ring)
		// Reuse the overwritten slot's slices.
		*sm = Sample{
			Links: sm.Links[:0], Switches: sm.Switches[:0],
			Degraded: sm.Degraded[:0], Cordoned: sm.Cordoned[:0],
		}
	} else {
		s.ring = append(s.ring, Sample{})
		sm = &s.ring[s.head]
		s.head++
	}
	s.taken++
	sm.TimeUS = int64(s.eng.Now()) / 1000

	st := s.src.Stack
	if st != nil {
		for _, l := range st.Topo.Links() {
			sm.Links = append(sm.Links, LinkSample{
				Link:    l.From + "->" + l.To,
				Kind:    l.Kind.String(),
				Bytes:   l.Stats.Bytes,
				Packets: l.Stats.Forwarded,
				Drops:   l.Stats.Drops,
				Util:    l.Utilization,
				Down:    l.Down,
			})
		}
		for _, sw := range st.Topo.Switches() {
			c := sw.Stats()
			sm.Switches = append(sm.Switches, SwitchSample{
				Switch:    sw.Name(),
				Injected:  c.Injected,
				Forwarded: c.Forwarded,
				Dropped:   c.DropTotal(),
			})
		}
		for _, obj := range st.Cluster.Client.Lister(k8s.KindPod).List("") {
			switch obj.(*k8s.Pod).Status.Phase {
			case k8s.PodRunning, k8s.PodTerminating:
				sm.PodsRunning++
			case k8s.PodSucceeded:
				sm.PodsSucceeded++
			case k8s.PodFailed:
				sm.PodsFailed++
			default: // Pending or Scheduled: not yet running
				sm.PodsPending++
			}
		}
		for _, obj := range st.Cluster.Client.Lister(k8s.KindJob).List("") {
			job := obj.(*k8s.Job)
			if job.Status.Completed {
				sm.JobsCompleted++
			} else {
				sm.JobsActive++
			}
		}
	}
	if s.src.Progress != nil {
		sm.WorkloadDone, sm.WorkloadTotal = s.src.Progress()
	}
	if s.src.Health != nil {
		hs := s.src.Health()
		sm.HealthOn = true
		sm.Degraded = append(sm.Degraded, hs.Degraded...)
		sm.Cordoned = append(sm.Cordoned, hs.Cordoned...)
		sm.Remediating = hs.Remediating
		sm.Remediated = hs.Remediated
	}
	if st != nil {
		if c := st.Counters(stack.ControlPlane); c.CPArmed {
			sm.CPOn = true
			sm.Availability = c.APIServer
			sm.APIRetries = c.CP.Retries
			sm.WatchRelists = c.CP.Relists
			sm.StaleReads = c.CP.StaleReads
			sm.MaxStalenessUs = c.CP.MaxStalenessUs
		}
	}
}

// Samples returns the collected series in chronological order. The
// returned slice aliases ring storage: it is valid until the next sample
// is taken.
func (s *Sampler) Samples() []Sample {
	if !s.wrapped {
		return s.ring[:s.head]
	}
	out := make([]Sample, 0, len(s.ring))
	out = append(out, s.ring[s.head:]...)
	out = append(out, s.ring[:s.head]...)
	return out
}

// Latest returns the most recent sample, or nil when none was taken.
func (s *Sampler) Latest() *Sample {
	if s.Len() == 0 {
		return nil
	}
	idx := s.head - 1
	if idx < 0 {
		idx = len(s.ring) - 1
	}
	return &s.ring[idx]
}

// PeakLinkUtilization returns the maximum per-link utilization seen in any
// collected sample — the series probe behind the scenario assertion of the
// same name.
func (s *Sampler) PeakLinkUtilization() float64 {
	peak := 0.0
	for _, sm := range s.Samples() {
		for _, l := range sm.Links {
			if l.Util > peak {
				peak = l.Util
			}
		}
	}
	return peak
}
