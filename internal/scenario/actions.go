package scenario

import (
	"fmt"
	"strings"
	"time"

	"github.com/caps-sim/shs-k8s/internal/vniapi"
)

// Action declares one event action, once, for everything that handles it:
// CheckEvent validates an event against the declaration, Ops.Exec runs its
// exec, the typed getters (Event.dur, num, ...) take defaults from it, the
// interactive prompt builds events and renders help from Command / Usage /
// Help, and docs/scenarios.md is tested against it. Adding an action is one
// entry in Actions plus its docs row.
type Action struct {
	// Name is the action: key of scenario files.
	Name string
	// node: the target must name a fleet node; otherwise there is none.
	node   bool
	params []param
	// health marks the health-loop events, valid only with a health:
	// section (the loop must be running to observe the fault).
	health bool
	// check validates what the kinds cannot: cross-parameter rules and
	// references into the scenario.
	check func(sc *Scenario, ev *Event) error
	exec  func(r *Ops, ev *Event) error
	// Command is the action's word at the interactive prompt ("" = none),
	// args its positional words, Help its one-line description.
	Command string
	args    []arg
	Help    string
}

// param declares one scalar parameter of an action.
type param struct {
	name string
	kind kind
	// def is the spelling an event that leaves the parameter out gets;
	// "" declares no default.
	def string
	req bool
}

// arg is one positional word of an action's prompt command.
type arg struct {
	// show is the placeholder in the usage line.
	show string
	// param is "target" or the parameter the word is stored in; words
	// naming one parameter twice are joined with a comma.
	param string
	opt   bool
}

func req(name string, k kind) param             { return param{name: name, kind: k, req: true} }
func opt(name string, k kind, def string) param { return param{name: name, kind: k, def: def} }

// Actions is the catalogue of event actions, in the order docs/scenarios.md
// documents them. It is filled by init because the exec bodies read
// parameter defaults back out of it.
var Actions []Action

func init() {
	var (
		tenantP   = req("tenant", tenant)
		nameP     = req("name", text)
		jobP      = req("job", text)
		podsP     = opt("pods", posInt, "1")
		runtimeP  = opt("runtime", duration, "50ms")
		shortWait = opt("timeout", duration, "30s")
		longWait  = opt("timeout", duration, "60s")
		linkP     = []param{opt("groups", text, ""), opt("switches", text, ""), opt("link", nonNegInt, "")}
		nodeArg   = []arg{{show: "node", param: "target"}}
		linkArgs  = []arg{{show: "a", param: "groups"}, {show: "b", param: "groups"}, {show: "idx", param: "link", opt: true}}
	)
	Actions = []Action{
		{Name: "start_fleet", exec: (*Ops).startFleet},
		{Name: "run_for", params: []param{req("duration", duration)},
			exec: func(r *Ops, ev *Event) error { r.st.Eng.RunFor(ev.dur("duration")); return nil }},
		{Name: "log", params: []param{req("message", text)},
			exec: func(r *Ops, ev *Event) error { r.logf("%s", ev.str("message")); return nil }},
		{Name: "submit_job", params: []param{tenantP, nameP, podsP, runtimeP, opt("vni", text, "")}, exec: (*Ops).submitJob},
		{Name: "delete_job", params: []param{tenantP, nameP}, exec: (*Ops).deleteJob},
		{Name: "create_claim", params: []param{tenantP, nameP}, exec: (*Ops).createClaim},
		{Name: "delete_claim", params: []param{tenantP, nameP}, exec: (*Ops).deleteClaim},
		{Name: "churn_jobs", exec: (*Ops).churnJobs, params: []param{tenantP, req("count", posInt),
			opt("interval", duration, "500ms"), runtimeP, podsP, opt("vni", text, vniapi.AnnotationValueTrue)}},
		{Name: "cordon", node: true, exec: func(r *Ops, ev *Event) error { return r.setCordon(ev, true) },
			Command: "cordon", args: nodeArg, Help: "exclude a node from scheduling"},
		{Name: "uncordon", node: true, exec: func(r *Ops, ev *Event) error { return r.setCordon(ev, false) },
			Command: "uncordon", args: nodeArg, Help: "readmit a node"},
		{Name: "inject_nic_failure", node: true, exec: (*Ops).failNIC,
			Command: "fail-nic", args: nodeArg, Help: "fail the node's Cassini NIC"},
		{Name: "recover_nic", node: true, exec: (*Ops).recoverNIC,
			Command: "recover-nic", args: nodeArg, Help: "recover the node's NIC"},
		{Name: "partition_fabric", params: []param{req("nodes", text)}, check: checkNodeList, exec: (*Ops).partitionFabric},
		{Name: "heal_partition", exec: (*Ops).healPartition},
		{Name: "fail_link", params: linkP, check: checkLink, exec: func(r *Ops, ev *Event) error { return r.setLink(ev, true) },
			Command: "fail-link", args: linkArgs, Help: "fail global link(s) between groups a and b (all, or one by index)"},
		{Name: "recover_link", params: linkP, check: checkLink, exec: func(r *Ops, ev *Event) error { return r.setLink(ev, false) },
			Command: "recover-link", args: linkArgs, Help: "recover them (all, or one by index)"},
		{Name: "probe_isolation", exec: (*Ops).probeIsolation},
		{Name: "pingpong", exec: (*Ops).pingpong, params: []param{tenantP, jobP, opt("rounds", posInt, "200"),
			opt("bytes", posInt, "8"), shortWait, opt("tolerate_stall", boolean, "false")}},
		{Name: "run_traffic", params: []param{tenantP, jobP, req("traffic", text), opt("as", text, ""), longWait},
			check: checkTrafficRef, exec: (*Ops).runTraffic},
		{Name: "wait_running", params: []param{tenantP, req("pods", posInt), opt("job", text, ""), shortWait}, exec: (*Ops).waitRunning},
		{Name: "wait_jobs_complete", params: []param{opt("tenant", tenant, ""), longWait}, exec: (*Ops).waitJobsComplete},
		{Name: "resync_vni", exec: (*Ops).resyncVNI},
		{Name: "slow_drain_nic", node: true, health: true, exec: (*Ops).slowDrainNIC,
			params: []param{opt("rate", posNumber, "1000"), opt("duration", duration, "")}},
		{Name: "flap_trunk", health: true, check: checkTrunk, exec: (*Ops).flapTrunk,
			params: []param{req("switches", text), opt("period", duration, "300ms"), opt("count", posInt, "3")}},
		{Name: "remediate", node: true, health: true, exec: (*Ops).remediate,
			Command: "remediate", args: nodeArg, Help: "drain, replace and uncordon a node (needs a health: section)"},
		// count: 0 is legal — "wait only for the controller to quiesce,
		// however many runs that takes".
		{Name: "wait_remediated", health: true, params: []param{opt("count", nonNegInt, "1"), longWait}, exec: (*Ops).waitRemediated},
		// Control-plane fault events. Self-arming — no section needed: the
		// presence of any of these is what opts a run into the fault layer
		// (and its resync prober); without them timelines are untouched.
		{Name: "fail_apiserver", exec: (*Ops).failAPIServer,
			Command: "fail-apiserver", Help: "take the API server down (writes fail until recovery)"},
		{Name: "degrade_apiserver", exec: (*Ops).degradeAPIServer,
			params:  []param{opt("latency_factor", factor, "5"), opt("error_prob", prob, "0.2")},
			Command: "degrade-apiserver", Help: "degraded mode: request latency factor, write error probability (defaults as for degrade_apiserver events)",
			args: []arg{{show: "lat", param: "latency_factor", opt: true}, {show: "err", param: "error_prob", opt: true}}},
		{Name: "recover_apiserver", exec: (*Ops).recoverAPIServer,
			Command: "recover-apiserver", Help: "restore full API server availability"},
		{Name: "break_watch", params: []param{req("kind", text)}, check: checkWatchKind, exec: (*Ops).breakWatch,
			Command: "break-watch", args: []arg{{show: "kind", param: "kind"}},
			Help: "silently break watch streams (" + cpWatchKindNames() + ")"},
	}
}

// lookup returns the first entry of a table whose key is name, or nil.
func lookup[T any](table []T, name string, key func(*T) string) *T {
	for i := range table {
		if key(&table[i]) == name {
			return &table[i]
		}
	}
	return nil
}

// ActionByName returns the declaration of an action, nil if there is none.
func ActionByName(name string) *Action {
	return lookup(Actions, name, func(a *Action) string { return a.Name })
}

// ActionByCommand returns the action a prompt command stands for, nil if
// the word is not an action's Command.
func ActionByCommand(cmd string) *Action {
	if cmd == "" {
		return nil
	}
	return lookup(Actions, cmd, func(a *Action) string { return a.Command })
}

func (a *Action) param(name string) *param {
	return lookup(a.params, name, func(p *param) string { return p.name })
}

// Usage renders the prompt command with its argument placeholders.
func (a *Action) Usage() string {
	var b strings.Builder
	b.WriteString(a.Command)
	for _, g := range a.args {
		if g.opt {
			b.WriteString(" [" + g.show + "]")
		} else {
			b.WriteString(" <" + g.show + ">")
		}
	}
	return b.String()
}

// Event builds the event the prompt line "Command args..." stands for. The
// error, for a wrong number of words, is the usage line; what the words say
// is CheckEvent's to judge, exactly as for an event read from a file.
func (a *Action) Event(args []string) (*Event, error) {
	need := 0
	for _, g := range a.args {
		if !g.opt {
			need++
		}
	}
	if len(args) < need || len(args) > len(a.args) {
		return nil, fmt.Errorf("usage: %s", a.Usage())
	}
	ev := &Event{Action: a.Name, Params: map[string]string{}}
	for i, word := range args {
		switch p := a.args[i].param; {
		case p == "target":
			ev.Target = word
		case ev.Params[p] != "":
			ev.Params[p] += "," + word
		default:
			ev.Params[p] = word
		}
	}
	return ev, nil
}

// CheckEvent validates one event against its action's declaration and the
// scenario it would run in: known action, legal target, every parameter
// declared and spelled as its kind demands, required ones present, then the
// action's own check. Validate runs it over a file's events and the
// interactive prompt over each typed command, so both refuse the same
// things with the same words.
func (sc *Scenario) CheckEvent(ev *Event) error {
	a := ActionByName(ev.Action)
	switch {
	case ev.Action == "":
		return sc.errAt(ev.Line, "event needs an action")
	case a == nil:
		return sc.errAt(ev.Line, "unknown action %q", ev.Action)
	case a.health && !sc.Health.Enabled():
		return sc.errAt(ev.Line, "%s: requires a health: section (checkEvery)", ev.Action)
	case a.node && !sc.validNode(ev.Target):
		return sc.errAt(ev.Line, "%s: target must name a fleet node (node0..node%d), got %q",
			ev.Action, sc.Fleet.Nodes-1, ev.Target)
	case !a.node && ev.Target != "":
		return sc.errAt(ev.Line, "%s: takes no target", ev.Action)
	}
	for name := range ev.Params {
		if a.param(name) == nil {
			return sc.errAt(ev.Line, "%s: unknown param %q", ev.Action, name)
		}
	}
	for i := range a.params {
		p := &a.params[i]
		s, given := ev.Params[p.name]
		if p.req && s == "" {
			return sc.errAt(ev.Line, "%s: missing required param %q", ev.Action, p.name)
		}
		if !given {
			continue
		}
		if _, ok := p.kind.parse(s); !ok || (p.kind == tenant && sc.tenant(s) == nil) {
			return sc.errAt(ev.Line, "%s: %s: "+complaints[p.kind], ev.Action, p.name, s)
		}
	}
	if a.check != nil {
		return a.check(sc, ev)
	}
	return nil
}

// arg returns a declared parameter's value: the event's, or the declared
// default. Exec bodies read every parameter through the typed getters
// below, so a default is spelled once, in the declaration, and a spelling
// is parsed by the kind CheckEvent vetted it with (a declared default
// parses under its own kind: TestCatalogue).
func (e *Event) arg(name string) val {
	p := ActionByName(e.Action).param(name)
	s, given := e.Params[name]
	if !given {
		s = p.def
	}
	v, _ := p.kind.parse(s)
	return v
}

func (e *Event) str(name string) string        { return e.arg(name).s }
func (e *Event) num(name string) int           { return int(e.arg(name).n) }
func (e *Event) flag(name string) bool         { return e.arg(name).n != 0 }
func (e *Event) real(name string) float64      { return e.arg(name).f }
func (e *Event) dur(name string) time.Duration { return time.Duration(e.arg(name).n) }

// checkNodeList vets partition_fabric's nodes: every entry a fleet node.
func checkNodeList(sc *Scenario, ev *Event) error {
	for _, n := range splitList(ev.Params["nodes"]) {
		if !sc.validNode(n) {
			return sc.errAt(ev.Line, "%s: unknown node %q", ev.Action, n)
		}
	}
	return nil
}

// checkLink vets fail_link/recover_link: exactly one of groups ("a,b" group
// pair) or switches ("i,j" switch pair) must name links that exist in the
// scenario's topology; link selects one of a pair's parallel global links
// and is only valid with groups.
func checkLink(sc *Scenario, ev *Event) error {
	_, picked := ev.Params["link"]
	trunk := ev.Params["groups"] == ""
	switch {
	case trunk == (ev.Params["switches"] == ""):
		return sc.errAt(ev.Line, "%s: needs exactly one of groups or switches", ev.Action)
	case trunk && picked:
		return sc.errAt(ev.Line, "%s: link is only valid with groups", ev.Action)
	case trunk:
		return checkTrunk(sc, ev)
	case picked && ev.num("link") >= sc.Topology.GlobalLinksPerPair:
		return sc.errAt(ev.Line, "%s: link: must be 0..%d, got %q", ev.Action, sc.Topology.GlobalLinksPerPair-1, ev.Params["link"])
	}
	_, _, err := sc.indexPair(ev, "groups", sc.Topology.Groups, "group")
	return err
}

func checkTrunk(sc *Scenario, ev *Event) error {
	_, _, err := sc.trunk(ev)
	return err
}

func checkTrafficRef(sc *Scenario, ev *Event) error {
	if sc.traffic(ev.Params["traffic"]) == nil {
		return sc.errAt(ev.Line, "%s: unknown traffic %q", ev.Action, ev.Params["traffic"])
	}
	return nil
}

func checkWatchKind(sc *Scenario, ev *Event) error {
	if _, ok := cpWatchKinds[ev.Params["kind"]]; !ok {
		return sc.errAt(ev.Line, "%s: kind: must be one of %s, got %q", ev.Action, cpWatchKindNames(), ev.Params["kind"])
	}
	return nil
}
