// Package sim provides the discrete-event simulation engine used by all
// simulated substrates in this repository: a virtual clock, an event queue,
// and deterministic, seedable randomness.
//
// Every simulated subsystem (the Slingshot fabric, the Kubernetes control
// plane, the container runtime) advances time exclusively through an Engine.
// This makes experiments deterministic for a given seed while still
// exhibiting realistic jitter, and lets a multi-minute admission experiment
// run in milliseconds of wall time.
//
// Perpetual background work (a sampler, a health poll, a resync prober)
// runs on a Ticker. The engine counts running tickers, so "idle" has one
// definition: Pending() <= Ticking(), nothing pending but ticks.
package sim

import (
	"strconv"
	"time"
)

// Time is a point in virtual time, expressed as a duration since the start
// of the simulation. Using a dedicated type prevents accidental mixing of
// virtual and wall-clock times.
type Time time.Duration

// Duration re-exports time.Duration for call-site symmetry with Time.
type Duration = time.Duration

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Add returns t+d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Seconds returns the virtual time in seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Duration converts t to the duration elapsed since simulation start.
func (t Time) Duration() Duration { return Duration(t) }

// String formats the virtual time like a stopwatch reading.
func (t Time) String() string {
	var buf [16]byte
	return string(t.AppendClock(buf[:0]))
}

// AppendClock appends the stopwatch reading String returns: minutes,
// seconds and milliseconds as fmt's "%02d:%02d.%03d" prints them, a
// negative time included.
func (t Time) AppendClock(b []byte) []byte {
	d := time.Duration(t)
	b = appendPadded(b, int64(d.Minutes()), 2)
	b = append(b, ':')
	b = appendPadded(b, int64(d.Seconds())%60, 2)
	b = append(b, '.')
	return appendPadded(b, d.Milliseconds()%1000, 3)
}

// appendPadded appends v zero-padded to width, the sign counted in it.
func appendPadded(b []byte, v int64, width int) []byte {
	u := uint64(v)
	if v < 0 {
		b = append(b, '-')
		u, width = -u, width-1
	}
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], u, 10)
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

// Clock exposes the current virtual time. Components hold a Clock rather
// than the full Engine when they only need to read time.
type Clock interface {
	// Now returns the current virtual time.
	Now() Time
}
