package sim

// Ticker is the one way to run perpetual background work: fn every period
// of virtual time, from one period after Start until Stop. A tick runs fn
// and then re-arms through the closure-free AfterCall, so it allocates
// nothing and whatever fn schedules at the tick's instant runs before the
// next tick. Stop cancels the pending tick eagerly and may be called from
// inside fn. The zero Ticker is stopped. Like the engine it is confined to
// one goroutine.
type Ticker struct {
	eng    *Engine // nil while stopped
	period Duration
	fn     func()
	ev     Event // the pending tick; stale while fn runs
}

// Start runs fn one period from now and every period after that. Starting
// a running ticker is a no-op. period must be positive.
func (t *Ticker) Start(eng *Engine, period Duration, fn func()) {
	if t.eng != nil {
		return
	}
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t.eng, t.period, t.fn = eng, period, fn
	eng.ticking++
	t.ev = eng.AfterCall(period, tickerFn, t)
}

// Stop cancels the pending tick. Stopping a stopped ticker is a no-op.
func (t *Ticker) Stop() {
	if t.eng == nil {
		return
	}
	t.ev.Cancel()
	t.eng.ticking--
	t.eng = nil
}

// Running reports whether the ticker is started and not stopped.
func (t *Ticker) Running() bool { return t.eng != nil }

// tickerFn is every tick's callback. It re-arms unless fn stopped the
// ticker, or stopped and restarted it (ev is then live).
func tickerFn(arg any) {
	t := arg.(*Ticker)
	t.fn()
	if t.eng != nil && t.ev.At() == 0 {
		t.ev = t.eng.AfterCall(t.period, tickerFn, t)
	}
}

// Ticking returns how many Tickers run on the engine. Each keeps one event
// pending between its ticks, so Pending() <= Ticking() means the engine
// holds nothing but background ticks: it is idle.
func (e *Engine) Ticking() int { return e.ticking }
