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
	"fmt"
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
	d := time.Duration(t)
	return fmt.Sprintf("%02d:%02d.%03d", int(d.Minutes()), int(d.Seconds())%60, d.Milliseconds()%1000)
}

// Clock exposes the current virtual time. Components hold a Clock rather
// than the full Engine when they only need to read time.
type Clock interface {
	// Now returns the current virtual time.
	Now() Time
}
