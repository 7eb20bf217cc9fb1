package scenario

import (
	"fmt"
	"strconv"

	"github.com/caps-sim/shs-k8s/internal/sim"
	"github.com/caps-sim/shs-k8s/internal/stack"
)

// AssertionResult is one evaluated end-state check.
type AssertionResult struct {
	Assertion Assertion
	Actual    float64
	Pass      bool
	// Where anchors the assertion to its source ("file.yaml:12"), so a
	// failure — above all in a shrunk fuzz reproducer — names the exact
	// line to read, not just the probed metric.
	Where string
}

// String renders the check the way `shssim run` prints it. Failures carry
// the source anchor so reproducer output is self-diagnosing.
func (ar AssertionResult) String() string {
	a := ar.Assertion
	subject := a.Type
	if a.Target != "" {
		subject += "(" + a.Target + ")"
	}
	if ar.Pass {
		return fmt.Sprintf("PASS: %s %s %s (actual %s)", subject, a.Op, a.Value, formatActual(ar.Actual))
	}
	return fmt.Sprintf("FAIL: %s %s %s (actual %s) at %s", subject, a.Op, a.Value, formatActual(ar.Actual), ar.Where)
}

func formatActual(f float64) string {
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'f', 3, 64)
}

// Result is the outcome of one scenario run. A run fails when an event
// errors mid-flight (Err != nil) or any assertion fails.
type Result struct {
	Scenario *Scenario
	// Log is the timestamped event narration, in virtual time.
	Log []string
	// Asserts holds one result per scenario assertion, in file order.
	Asserts []AssertionResult
	// SimTime is the virtual clock when the run finished.
	SimTime sim.Time
	// Err is the first event execution error, nil on a clean run.
	Err error
}

// Passed reports whether the run completed and every assertion held.
func (r *Result) Passed() bool {
	if r.Err != nil {
		return false
	}
	for _, a := range r.Asserts {
		if !a.Pass {
			return false
		}
	}
	return true
}

// Run executes the scenario to completion on a fresh simulated deployment
// and evaluates its assertions. Runs are deterministic: the same file and
// seed produce identical results.
func Run(sc *Scenario) *Result { return RunHooked(sc, Hooks{}) }

// Hooks lets an external harness observe a run from inside: the scenario
// fuzzer (internal/fuzz) uses them to check invariants against the live
// stack after every event and to fingerprint end state for its
// determinism oracle. Both hooks are optional.
type Hooks struct {
	// AfterEvent runs after each event executes successfully, with the
	// stack live and the virtual clock at the event's completion time. A
	// non-nil error aborts the run, anchored to the event's line.
	AfterEvent func(st *stack.Stack, ev *Event) error
	// AfterRun runs once after assertions are evaluated, before the
	// Result is returned, with the stack still live.
	AfterRun func(st *stack.Stack, res *Result)
}

// RunHooked is Run with observation hooks wired in. The event dispatch
// itself lives on Ops (ops.go), which interactive mode (internal/ctl)
// shares — a YAML event and an operator command execute identical code.
func RunHooked(sc *Scenario, hooks Hooks) (res *Result) {
	r := NewOps(sc)
	// The named return is assigned up front so a recovered panic in an
	// event or assertion still hands the caller a Result carrying Err.
	res = r.res
	defer func() {
		if p := recover(); p != nil {
			r.res.Err = fmt.Errorf("scenario %s: panic: %v", sc.Name, p)
		}
	}()
	for i := range sc.Events {
		ev := &sc.Events[i]
		if r.st != nil {
			deadline := r.start.Add(ev.At)
			if deadline > r.st.Eng.Now() {
				r.st.Eng.RunUntil(deadline)
			}
		}
		if err := r.Exec(ev); err != nil {
			r.res.Err = sc.errAt(ev.Line, "%s: %v", ev.Action, err)
			break
		}
		if hooks.AfterEvent != nil {
			if err := hooks.AfterEvent(r.st, ev); err != nil {
				r.res.Err = sc.errAt(ev.Line, "after %s: %v", ev.Action, err)
				break
			}
		}
	}
	// The timeline is over, or an error cut it short: either way stop the
	// background work and write the telemetry sink, keeping the first error.
	failed := r.res.Err != nil
	if err := r.Stop(); err != nil && !failed {
		r.res.Err = err
	}
	if failed {
		return r.res
	}
	r.res.SimTime = r.st.Eng.Now()
	for _, a := range sc.Assertions {
		r.res.Asserts = append(r.res.Asserts, r.evaluate(a))
	}
	if hooks.AfterRun != nil {
		hooks.AfterRun(r.st, r.res)
	}
	// The result is final: cancel watch deliveries still queued on the
	// engine (status updates committed in the run's last instants) so a
	// caller that keeps driving the engine — or waits for it to idle —
	// is not held open by deliveries nothing will observe.
	r.st.Cluster.API.CancelPendingDeliveries()
	return r.res
}

// evaluate computes one assertion's actual value and verdict.
func (r *Ops) evaluate(a Assertion) AssertionResult {
	expected, _ := parseExpected(a.Value) // validated at parse time
	actual := r.Actual(a)
	return AssertionResult{
		Assertion: a,
		Actual:    actual,
		Pass:      compareOps[a.Op](actual, expected),
		Where:     r.sc.where(a.Line),
	}
}
