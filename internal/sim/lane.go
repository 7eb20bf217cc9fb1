package sim

// Lane is a posting point for events whose times almost never decrease
// from one post to the next: the arrivals at the far end of a serialising
// link, which hands its frames over one behind another. Such events need
// no place in the queue while an earlier one of the same lane is still to
// fire — nothing can run them sooner — so the lane parks each behind its
// predecessor, and Step pushes the successor into the queue at the moment
// the predecessor leaves it. A NIC that posts a 64-frame message in one
// call then costs the queue one entry, not 64.
//
// Dispatch order does not change. A lane event takes its arena slot and
// its seq when it is posted, exactly as Engine.AtCall would, the order key
// is still (at, seq) over every event, and a predecessor always sorts
// before the event parked behind it; the queue merely holds one event of
// each chain at a time. Lane events return no handle and cannot be
// cancelled.
type Lane struct {
	eng *Engine
	// The newest event posted: its slot, its generation at post time (the
	// slot's generation differs once it has fired) and its time.
	tail int32
	gen  uint32
	at   Time
}

// NewLane returns an empty lane on e.
func NewLane(e *Engine) Lane { return Lane{eng: e} }

// AtCall schedules fn(arg) at absolute virtual time t, with the semantics
// of Engine.AtCall. A post earlier than the lane's newest pending event is
// legal and is queued directly.
func (l *Lane) AtCall(t Time, fn func(arg any), arg any) {
	l.eng.schedule(t, fn, arg, l)
}
