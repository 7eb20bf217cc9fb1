package sim

import (
	"testing"
	"time"
)

const tickPeriod = 100 * time.Millisecond

func TestTickerTickingCountsRunningTickers(t *testing.T) {
	e := NewEngine(1)
	var tk Ticker
	ticks := 0
	fn := func() { ticks++ }
	steps := []struct {
		name    string
		op      func()
		ticking int
		pending int
	}{
		{"start", func() { tk.Start(e, tickPeriod, fn) }, 1, 1},
		{"start again", func() { tk.Start(e, tickPeriod, fn) }, 1, 1},
		{"stop", tk.Stop, 0, 0},
		{"stop again", tk.Stop, 0, 0},
	}
	for _, s := range steps {
		s.op()
		if e.Ticking() != s.ticking || e.Pending() != s.pending || tk.Running() != (s.ticking == 1) {
			t.Fatalf("after %s: Ticking %d, Pending %d, Running %v; want %d, %d, %v",
				s.name, e.Ticking(), e.Pending(), tk.Running(), s.ticking, s.pending, s.ticking == 1)
		}
	}
	e.RunFor(time.Second)
	if ticks != 0 {
		t.Errorf("a stopped ticker ticked %d times", ticks)
	}
}

func TestTickerRunsEveryPeriodFromOnePeriodOn(t *testing.T) {
	e := NewEngine(1)
	var tk Ticker
	var at []Time
	tk.Start(e, tickPeriod, func() { at = append(at, e.Now()) })
	e.RunUntil(Time(350 * time.Millisecond))
	if len(at) != 3 {
		t.Fatalf("ticked at %v, want 100ms, 200ms, 300ms", at)
	}
	for i, got := range at {
		if want := Time(time.Duration(i+1) * tickPeriod); got != want {
			t.Errorf("tick %d at %v, want %v", i, got, want)
		}
	}
}

// Events a tick schedules at its own instant run before the next tick: fn
// runs first, and the re-arm takes the next sequence number after fn's
// events.
func TestTickerInstantEventsRunBeforeNextTick(t *testing.T) {
	e := NewEngine(1)
	var tk Ticker
	var order []string
	tk.Start(e, tickPeriod, func() {
		order = append(order, "tick")
		e.After(0, func() { order = append(order, "now") })
		e.After(tickPeriod, func() { order = append(order, "next") })
	})
	e.RunUntil(Time(2 * tickPeriod))
	want := []string{"tick", "now", "next", "tick", "now"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestTickerStopFromInsideFn(t *testing.T) {
	e := NewEngine(1)
	var tk Ticker
	ticks := 0
	tk.Start(e, tickPeriod, func() {
		ticks++
		if ticks == 2 {
			tk.Stop()
		}
	})
	e.RunFor(time.Second)
	if ticks != 2 || tk.Running() || e.Ticking() != 0 || e.Pending() != 0 {
		t.Fatalf("ticks %d, Running %v, Ticking %d, Pending %d; want 2, false, 0, 0",
			ticks, tk.Running(), e.Ticking(), e.Pending())
	}
}

// A restart from inside fn leaves one pending tick, not two.
func TestTickerRestartFromInsideFn(t *testing.T) {
	e := NewEngine(1)
	var tk Ticker
	var fn func()
	fn = func() {
		tk.Stop()
		tk.Start(e, tickPeriod, fn)
	}
	tk.Start(e, tickPeriod, fn)
	e.RunUntil(Time(tickPeriod))
	if e.Pending() != 1 || e.Ticking() != 1 {
		t.Fatalf("Pending %d, Ticking %d after a restart inside fn; want 1, 1", e.Pending(), e.Ticking())
	}
}

func TestTickerTickAvoidsAllocation(t *testing.T) {
	e := NewEngine(1)
	var tk Ticker
	ticks := 0
	tk.Start(e, tickPeriod, func() { ticks++ })
	e.Step() // warm the arena
	allocs := testing.AllocsPerRun(100, func() { e.Step() })
	if allocs != 0 {
		t.Errorf("a tick costs %.1f allocs, want 0", allocs)
	}
	if ticks != 102 {
		t.Errorf("%d ticks ran, want 102", ticks)
	}
}
