package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(Time(30*time.Millisecond), func() { got = append(got, 3) })
	e.At(Time(10*time.Millisecond), func() { got = append(got, 1) })
	e.At(Time(20*time.Millisecond), func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event order %v, want %v", got, want)
			break
		}
	}
	if e.Now() != Time(30*time.Millisecond) {
		t.Errorf("clock = %v, want 30ms", e.Now())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(Time(5*time.Millisecond), func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestEngineAfterSchedulesRelative(t *testing.T) {
	e := NewEngine(1)
	var fired Time
	e.After(time.Second, func() {
		fired = e.Now()
		e.After(time.Second, func() { fired = e.Now() })
	})
	e.Run()
	if fired != Time(2*time.Second) {
		t.Errorf("nested After fired at %v, want 2s", fired)
	}
}

func TestEngineNegativeAfterClampsToNow(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.After(-time.Second, func() { ran = true })
	e.Run()
	if !ran {
		t.Error("negative After never ran")
	}
	if e.Now() != 0 {
		t.Errorf("clock moved to %v for clamped event", e.Now())
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.After(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(0, func() {})
	})
	e.Run()
}

func TestEventCancel(t *testing.T) {
	e := NewEngine(1)
	ran := false
	ev := e.After(time.Second, func() { ran = true })
	ev.Cancel()
	e.Run()
	if ran {
		t.Error("cancelled event ran")
	}
	if e.Pending() != 0 {
		t.Errorf("pending = %d after run", e.Pending())
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := NewEngine(1)
	var ran []Duration
	for _, d := range []Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		e.After(d, func() { ran = append(ran, d) })
	}
	e.RunUntil(Time(2 * time.Second))
	if len(ran) != 2 {
		t.Fatalf("ran %d events before deadline, want 2", len(ran))
	}
	if e.Now() != Time(2*time.Second) {
		t.Errorf("clock = %v, want exactly deadline", e.Now())
	}
	e.Run()
	if len(ran) != 3 {
		t.Errorf("remaining event lost: ran %d total", len(ran))
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(Time(5 * time.Second))
	if e.Now() != Time(5*time.Second) {
		t.Errorf("clock = %v, want 5s", e.Now())
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	e := NewEngine(1)
	e.RunFor(time.Second)
	e.RunFor(time.Second)
	if e.Now() != Time(2*time.Second) {
		t.Errorf("clock = %v, want 2s", e.Now())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []Duration {
		e := NewEngine(seed)
		var out []Duration
		for i := 0; i < 100; i++ {
			out = append(out, e.Jitter(time.Millisecond, 0.5))
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical jitter streams")
	}
}

func TestJitterBounds(t *testing.T) {
	e := NewEngine(7)
	base := 100 * time.Millisecond
	for i := 0; i < 1000; i++ {
		j := e.Jitter(base, 0.1)
		if j < 90*time.Millisecond || j > 110*time.Millisecond {
			t.Fatalf("jitter %v outside ±10%% of %v", j, base)
		}
	}
}

func TestJitterZeroFracIsIdentity(t *testing.T) {
	e := NewEngine(7)
	if got := e.Jitter(time.Second, 0); got != time.Second {
		t.Errorf("Jitter(1s, 0) = %v", got)
	}
}

func TestNormalClampsAtZero(t *testing.T) {
	e := NewEngine(7)
	for i := 0; i < 1000; i++ {
		if d := e.Normal(time.Microsecond, time.Second); d < 0 {
			t.Fatalf("Normal returned negative %v", d)
		}
	}
}

func TestTimeString(t *testing.T) {
	got := Time(65*time.Second + 250*time.Millisecond).String()
	if got != "01:05.250" {
		t.Errorf("String() = %q, want 01:05.250", got)
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(3 * time.Second)
	b := Time(time.Second)
	if a.Sub(b) != 2*time.Second {
		t.Errorf("Sub = %v", a.Sub(b))
	}
	if b.Add(time.Second) != Time(2*time.Second) {
		t.Errorf("Add = %v", b.Add(time.Second))
	}
	if a.Seconds() != 3 {
		t.Errorf("Seconds = %v", a.Seconds())
	}
}

// Property: for any set of schedule offsets, events execute in sorted order
// and the engine's step count equals the number of events.
func TestQuickEventOrdering(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEngine(1)
		var fired []Time
		for _, off := range offsets {
			e.After(Duration(off)*time.Microsecond, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != len(offsets) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		return e.Steps == uint64(len(offsets))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

// Property: cancelling an arbitrary subset of events runs exactly the others.
func TestQuickCancellationSubset(t *testing.T) {
	f := func(offsets []uint8, mask []bool) bool {
		e := NewEngine(1)
		ran := 0
		wantRan := 0
		for i, off := range offsets {
			ev := e.After(Duration(off)*time.Millisecond, func() { ran++ })
			if i < len(mask) && mask[i] {
				ev.Cancel()
			} else {
				wantRan++
			}
		}
		e.Run()
		return ran == wantRan
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Error(err)
	}
}

func TestRunUntilDoneStopsWhenConditionHolds(t *testing.T) {
	e := NewEngine(1)
	hits := 0
	for i := 1; i <= 5; i++ {
		e.After(Duration(i)*time.Second, func() { hits++ })
	}
	ok := e.RunUntilDone(func() bool { return hits >= 3 }, Time(10*time.Second))
	if !ok {
		t.Fatal("condition never reported true")
	}
	if hits != 3 {
		t.Errorf("hits = %d, want 3 (no extra events executed)", hits)
	}
	if e.Now() != Time(3*time.Second) {
		t.Errorf("clock = %v, want 3s (time of the satisfying event)", e.Now())
	}
}

// TestRunUntilDoneAsksOncePerEvent: the condition may be expensive (the
// scenario waits count pods), so it runs once before the first event and
// once after each one, with no second look at an answer already in hand.
func TestRunUntilDoneAsksOncePerEvent(t *testing.T) {
	e := NewEngine(1)
	hits, asked := 0, 0
	for i := 1; i <= 5; i++ {
		e.After(Duration(i)*time.Second, func() { hits++ })
	}
	if !e.RunUntilDone(func() bool { asked++; return hits >= 3 }, Time(10*time.Second)) {
		t.Fatal("condition never reported true")
	}
	if asked != 4 {
		t.Errorf("condition evaluated %d times over 3 events, want 4", asked)
	}
}

func TestRunUntilDoneTimeoutConsumesDeadline(t *testing.T) {
	e := NewEngine(1)
	e.After(time.Second, func() {})
	ok := e.RunUntilDone(func() bool { return false }, Time(4*time.Second))
	if ok {
		t.Fatal("condition cannot be true")
	}
	if e.Now() != Time(4*time.Second) {
		t.Errorf("clock = %v, want exactly the deadline", e.Now())
	}
}

func TestRunUntilDoneImmediateConditionRunsNothing(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.After(time.Second, func() { ran = true })
	if !e.RunUntilDone(func() bool { return true }, Time(10*time.Second)) {
		t.Fatal("want immediate true")
	}
	if ran || e.Now() != 0 {
		t.Errorf("engine advanced (ran=%v now=%v) despite satisfied condition", ran, e.Now())
	}
}
