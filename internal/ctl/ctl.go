// Package ctl is the interactive front end over a live simulated
// deployment: it boots a fleet paused on the virtual clock and serves a
// line-oriented operator protocol — on stdin for scripting and CI, or on
// a Unix socket for a human driving `shssim interactive` from another
// terminal. Commands inspect state (nodes, jobs, links, metrics), inject
// the same faults scenario files can (cordon, fail-nic, fail-link), run
// collective traffic, and advance virtual time explicitly (step,
// run-until-idle) — the clock never moves on its own.
//
// Every mutating command constructs a scenario.Event and executes it
// through scenario.Ops, the same dispatch a YAML timeline runs through,
// so `fail-link 0 1` at the prompt and a fail_link event in a file are
// one code path. Sessions are deterministic: the same scenario, seed and
// command script produce a byte-identical transcript, which is how the
// protocol is golden-tested and how CI diffs replayed sessions.
package ctl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/metrics"
	"github.com/caps-sim/shs-k8s/internal/scenario"
	"github.com/caps-sim/shs-k8s/internal/workload"
)

// opsTenant is the namespace run-traffic jobs are created in. New adds it
// to the fleet when the scenario does not declare it.
const opsTenant = "ops"

// defaultYAML is the fleet `shssim interactive` boots when no scenario
// file is given: two dragonfly groups with redundant global links, and a
// one-pod-per-node budget so gang jobs span both groups — failing one
// global link then visibly reroutes collective traffic onto its sibling.
const defaultYAML = `
name: interactive
description: built-in interactive fleet (2 groups x 2 switches x 2 nodes)
fleet:
  nodes: 8
  podsPerNode: 1
  tenants:
    - name: ops
topology:
  groups: 2
  switchesPerGroup: 2
  nodesPerSwitch: 2
  globalLinksPerPair: 2
events:
  - at: 0s
    action: start_fleet
`

// DefaultScenario returns the built-in interactive fleet spec. Callers
// may adjust Seed and Telemetry before handing it to New.
func DefaultScenario() *scenario.Scenario {
	sc, err := scenario.Parse(strings.NewReader(defaultYAML))
	if err != nil {
		panic("ctl: built-in scenario invalid: " + err.Error())
	}
	return sc
}

// Server drives one simulated fleet from operator commands. It is not
// safe for concurrent use: the simulation engine is single-threaded, so
// socket sessions are served sequentially.
type Server struct {
	ops  *scenario.Ops
	sc   *scenario.Scenario
	pods k8s.Lister
	jobs k8s.Lister
	// seq numbers run-traffic invocations (traffic-1, traffic-2, ...).
	seq int
	// booted guards the one-time boot narration in the session banner.
	booted bool
}

// New boots a fleet for the scenario (nil means DefaultScenario) and
// returns a server ready to execute commands. The scenario's fleet,
// topology, traffic and telemetry sections apply; its events and
// assertions are ignored — the operator is the timeline.
func New(sc *scenario.Scenario) (*Server, error) {
	if sc == nil {
		sc = DefaultScenario()
	}
	// run-traffic creates its gang jobs in the ops namespace.
	hasOps := false
	for _, t := range sc.Fleet.Tenants {
		if t.Name == opsTenant {
			hasOps = true
		}
	}
	if !hasOps {
		sc.Fleet.Tenants = append(sc.Fleet.Tenants, scenario.Tenant{Name: opsTenant})
	}
	s := &Server{ops: scenario.NewOps(sc), sc: sc}
	if err := s.ops.Exec(&scenario.Event{Action: "start_fleet"}); err != nil {
		return nil, fmt.Errorf("ctl: boot: %w", err)
	}
	cli := s.ops.Stack().Cluster.Client
	s.pods = cli.Lister(k8s.KindPod)
	s.jobs = cli.Lister(k8s.KindJob)
	return s, nil
}

// Ops exposes the underlying executor, mainly for tests that mix scripted
// commands with direct state probes.
func (s *Server) Ops() *scenario.Ops { return s.ops }

// Serve runs one session: lines are read from r, echoed as
// `shssim> <line>` and executed, with output written to w. Blank lines
// and #-comments are skipped, so committed session scripts can be
// annotated. Serve returns at quit or EOF.
func (s *Server) Serve(r io.Reader, w io.Writer) error {
	_, err := s.session(r, w)
	return err
}

// ServeSocket listens on a Unix socket and serves sessions sequentially
// until one of them quits. A stale socket file at path is replaced.
func (s *Server) ServeSocket(path string) error {
	l, err := Listen(path)
	if err != nil {
		return err
	}
	return s.ServeListener(l)
}

// Listen binds the Unix socket at path, replacing a stale socket file;
// clients can connect from then on.
func Listen(path string) (net.Listener, error) {
	os.Remove(path)
	return net.Listen("unix", path)
}

// ServeListener is ServeSocket on a bound socket. It closes l, which
// removes the socket file, when it returns.
func (s *Server) ServeListener(l net.Listener) error {
	defer l.Close()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		// A read error is the client hanging up mid-stream (ECONNRESET when
		// it closes with our output unread); it ends that session only.
		quit, _ := s.session(conn, conn)
		conn.Close()
		if quit {
			return nil
		}
	}
}

func (s *Server) session(r io.Reader, w io.Writer) (quit bool, err error) {
	s.banner(w)
	scan := bufio.NewScanner(r)
	scan.Buffer(make([]byte, 1<<20), 1<<20)
	for scan.Scan() {
		line := strings.TrimSpace(scan.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fmt.Fprintf(w, "shssim> %s\n", line)
		if s.Execute(w, line) {
			return true, nil
		}
	}
	return false, scan.Err()
}

func (s *Server) banner(w io.Writer) {
	st := s.ops.Stack()
	spec := st.Topo.Spec()
	fmt.Fprintf(w, "shs-k8s interactive: %s — %d node(s), %d group(s), clock at %s ('help' lists commands)\n",
		s.sc.Name, len(st.Nodes), spec.Groups, st.Eng.Now())
	if !s.booted {
		s.booted = true
		s.printLog(w)
	}
}

// command is one prompt command that is not a scenario action: a view of
// the fleet, or a composite that drives several events. Execute prints the
// error run returns; errUsage, for arguments that do not fit args, prints
// the usage line.
type command struct {
	name, args, help string
	run              func(s *Server, w io.Writer, args []string) error
}

var errUsage = errors.New("usage")

// commands is the prompt's own vocabulary besides help; every other word
// is looked up among the Commands of scenario.Actions.
var commands = []command{
	{"nodes", "", "node table: group, switch, NIC, cordon, pods", (*Server).nodes},
	{"jobs", "", "job table across all tenants", (*Server).jobsCmd},
	{"links", "[-top N]", "busiest fabric links (default top 10)", (*Server).links},
	{"health", "", "health daemon view: node states, bad links, remediations", (*Server).health},
	{"apiserver", "", "fault-layer view: availability, retries, relists, staleness", (*Server).apiserver},
	{"run-traffic", "<pattern> <bytes>", "run a 10-iteration collective over all nodes", (*Server).runTraffic},
	{"step", "<duration>", "advance the virtual clock (e.g. step 250ms)", (*Server).step},
	{"run-until-idle", "", "run until no work is pending (60s cap)", (*Server).runUntilIdle},
	{"metrics", "[dump|prom <path>]", "print the Prometheus exposition of the latest sample, or write the series as JSONL (dump) or the exposition (prom) to a file", (*Server).metrics},
	{"quit", "", "flush telemetry and end the session", (*Server).quit},
}

// Execute runs one command line and reports whether the session should
// end. Errors are written to w; the session continues. A word that is not
// one of the prompt's own commands is a scenario action's Command: the
// words after it become an event, which passes the same CheckEvent a file's
// events do before it reaches Ops.Exec.
func (s *Server) Execute(w io.Writer, line string) bool {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return false
	}
	cmd, args := fields[0], fields[1:]
	if cmd == "exit" {
		cmd = "quit"
	}
	for _, c := range commands {
		if c.name == cmd {
			if err := c.run(s, w, args); errors.Is(err, errUsage) {
				fmt.Fprintf(w, "usage: %s %s\n", c.name, c.args)
			} else if err != nil {
				fmt.Fprintf(w, "error: %v\n", err)
			}
			return cmd == "quit"
		}
	}
	if cmd == "help" {
		s.help(w)
	} else if a := scenario.ActionByCommand(cmd); a == nil {
		fmt.Fprintf(w, "error: unknown command %q (try 'help')\n", cmd)
	} else if ev, err := a.Event(args); err != nil {
		fmt.Fprintln(w, err)
	} else {
		s.exec(w, ev)
	}
	return false
}

func (s *Server) help(w io.Writer) {
	fmt.Fprintln(w, "commands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-30s %s\n", strings.TrimSpace(c.name+" "+c.args), c.help)
	}
	fmt.Fprintln(w, "events, checked and run exactly as in a scenario file:")
	for i := range scenario.Actions {
		if a := &scenario.Actions[i]; a.Command != "" {
			fmt.Fprintf(w, "  %-30s %s\n", a.Usage(), a.Help)
		}
	}
}

func (s *Server) quit(w io.Writer, _ []string) error {
	if err := s.ops.FlushTelemetry(); err != nil {
		fmt.Fprintf(w, "error: %v\n", err)
	}
	s.printLog(w)
	fmt.Fprintln(w, "bye")
	return nil
}

// exec runs one scenario event — checked first, like an event read from a
// file — and prints its narration, then any error. It reports success.
func (s *Server) exec(w io.Writer, ev *scenario.Event) bool {
	err := s.sc.CheckEvent(ev)
	if err == nil {
		err = s.ops.Exec(ev)
	}
	s.printLog(w)
	if err != nil {
		fmt.Fprintf(w, "error: %v\n", err)
	}
	return err == nil
}

func (s *Server) printLog(w io.Writer) {
	for _, l := range s.ops.TakeLog() {
		fmt.Fprintf(w, "  %s\n", l)
	}
}

func (s *Server) nodes(w io.Writer, _ []string) error {
	st := s.ops.Stack()
	running := map[string]int{}
	for _, obj := range s.pods.List("") {
		pod := obj.(*k8s.Pod)
		if pod.Status.Phase == k8s.PodRunning {
			running[pod.Spec.NodeName]++
		}
	}
	fmt.Fprintf(w, "%-10s %5s %6s %-5s %-9s %5s\n", "node", "group", "switch", "nic", "sched", "pods")
	for _, n := range st.Nodes {
		nic := "up"
		if st.Topo.PortDown(n.Device.Addr()) {
			nic = "DOWN"
		}
		sched := "ok"
		if st.Cluster.Scheduler.Cordoned(n.Name) {
			sched = "cordoned"
		}
		fmt.Fprintf(w, "%-10s %5d %6d %-5s %-9s %5d\n", n.Name, n.Group, n.SwitchIndex, nic, sched, running[n.Name])
	}
	return nil
}

func (s *Server) jobsCmd(w io.Writer, _ []string) error {
	type row struct {
		key          string
		active, pods int
		state        string
	}
	var rows []row
	for _, obj := range s.jobs.List("") {
		job := obj.(*k8s.Job)
		state := "pending"
		switch {
		case job.Status.Completed:
			state = "completed"
		case job.Status.Active > 0:
			state = "running"
		}
		rows = append(rows, row{job.Meta.Namespace + "/" + job.Meta.Name,
			job.Status.Active, job.Spec.Parallelism, state})
	}
	if len(rows) == 0 {
		fmt.Fprintln(w, "no jobs")
		return nil
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	fmt.Fprintf(w, "%-24s %6s %5s %s\n", "job", "active", "pods", "state")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %6d %5d %s\n", r.key, r.active, r.pods, r.state)
	}
	return nil
}

func (s *Server) links(w io.Writer, args []string) error {
	n := 10
	switch {
	case len(args) == 0:
	case len(args) == 2 && args[0] == "-top":
		v, err := strconv.Atoi(args[1])
		if err != nil || v < 1 {
			return fmt.Errorf("-top wants a positive integer, got %q", args[1])
		}
		n = v
	default:
		return errUsage
	}
	metrics.RenderHotLinks(w, s.ops.Stack().Topo.LinkUtils(), n)
	return nil
}

// runTraffic submits a gang job spanning every node in the ops tenant,
// drives the named collective over it through the scenario run_traffic
// path, and deletes the job — one operator command for the whole cycle.
func (s *Server) runTraffic(w io.Writer, args []string) error {
	if len(args) != 2 {
		return errUsage
	}
	if _, err := workload.ParsePattern(args[0]); err != nil {
		return err
	}
	bytes, err := strconv.Atoi(args[1])
	if err != nil || bytes < 1 {
		return fmt.Errorf("bytes wants a positive integer, got %q", args[1])
	}
	s.seq++
	name := fmt.Sprintf("traffic-%d", s.seq)
	s.sc.Traffic = append(s.sc.Traffic, scenario.TrafficSpec{
		Name: name, Pattern: args[0], Bytes: bytes, Iterations: 10,
	})
	pods := strconv.Itoa(len(s.ops.Stack().Nodes))
	// Job submission is asynchronous (the API write lands on the virtual
	// clock), so wait for the gang before driving traffic over it.
	for _, ev := range []*scenario.Event{
		{Action: "submit_job", Params: map[string]string{
			"tenant": opsTenant, "name": name, "pods": pods, "runtime": "10m", "vni": "true"}},
		{Action: "wait_running", Params: map[string]string{
			"tenant": opsTenant, "job": name, "pods": pods}},
		{Action: "run_traffic", Params: map[string]string{
			"tenant": opsTenant, "job": name, "traffic": name}},
		{Action: "delete_job", Params: map[string]string{"tenant": opsTenant, "name": name}},
	} {
		if !s.exec(w, ev) {
			return nil
		}
	}
	return nil
}

// apiserver renders the control-plane fault layer's counters.
func (s *Server) apiserver(w io.Writer, _ []string) error {
	stats, avail, armed := s.ops.ControlPlaneStatus()
	if !armed {
		fmt.Fprintln(w, "fault layer dormant (no control-plane fault injected); apiserver up")
		return nil
	}
	fmt.Fprintf(w, "availability:   %s\n", avail)
	fmt.Fprintf(w, "retries:        %d\n", stats.Retries)
	fmt.Fprintf(w, "timeouts:       %d\n", stats.Timeouts)
	fmt.Fprintf(w, "exhausted:      %d\n", stats.Exhausted)
	fmt.Fprintf(w, "relists:        %d\n", stats.Relists)
	fmt.Fprintf(w, "stale reads:    %d\n", stats.StaleReads)
	fmt.Fprintf(w, "max staleness:  %.0fus\n", stats.MaxStalenessUs)
	return nil
}

// health renders the daemon's node table, any down or flapping links,
// and the remediation controller's runs.
func (s *Server) health(w io.Writer, _ []string) error {
	nodes, links, ok := s.ops.HealthSnapshot()
	if !ok {
		return errors.New("health loop disabled (boot a scenario with a health: section)")
	}
	fmt.Fprintf(w, "%-10s %-10s %10s\n", "node", "state", "err/s")
	for _, n := range nodes {
		fmt.Fprintf(w, "%-10s %-10s %10.1f\n", n.Name, n.State, n.ErrorRate)
	}
	header := false
	for _, l := range links {
		if !l.Down && !l.Flapping {
			continue
		}
		if !header {
			header = true
			fmt.Fprintf(w, "%-14s %-5s %s\n", "link", "down", "flapping")
		}
		fmt.Fprintf(w, "%-14s %-5v %v\n", l.Key, l.Down, l.Flapping)
	}
	if runs, ok := s.ops.RemediationStatus(); ok && len(runs) > 0 {
		fmt.Fprintf(w, "%-10s %-12s %s\n", "node", "phase", "retries")
		for _, r := range runs {
			fmt.Fprintf(w, "%-10s %-12s %7d\n", r.Node, r.Phase, r.Retries)
		}
	}
	return nil
}

func (s *Server) step(w io.Writer, args []string) error {
	if len(args) != 1 {
		return errUsage
	}
	d, err := time.ParseDuration(args[0])
	if err != nil || d <= 0 {
		return fmt.Errorf("step wants a positive duration, got %q", args[0])
	}
	s.exec(w, &scenario.Event{Action: "run_for", Params: map[string]string{"duration": args[0]}})
	fmt.Fprintf(w, "  advanced %s, clock at %s\n", d, s.ops.Stack().Eng.Now())
	return nil
}

// runUntilIdle drains pending work. An attached telemetry sampler keeps
// one perpetual tick event alive, and so does the control-plane gap
// prober once a fault command armed it, so "idle" means nothing else
// pending.
func (s *Server) runUntilIdle(w io.Writer, _ []string) error {
	eng := s.ops.Stack().Eng
	floor := 0
	if sp := s.ops.Sampler(); sp != nil && sp.Attached() {
		floor = 1
	}
	if s.ops.CPArmed() {
		floor++
	}
	deadline := eng.Now().Add(60 * time.Second)
	if eng.RunUntilDone(func() bool { return eng.Pending() <= floor }, deadline) {
		s.printLog(w)
		fmt.Fprintf(w, "  idle, clock at %s\n", eng.Now())
		return nil
	}
	s.printLog(w)
	fmt.Fprintf(w, "  %d event(s) still pending after 60s, clock at %s\n", eng.Pending()-floor, eng.Now())
	return nil
}

func (s *Server) metrics(w io.Writer, args []string) error {
	sp := s.ops.Sampler()
	switch {
	case sp == nil:
		return errors.New("telemetry disabled (boot with -sample-every or a telemetry: section)")
	case len(args) == 0:
		return sp.WritePrometheus(w)
	case len(args) == 2 && args[0] == "dump":
		if err := sp.DumpJSONL(args[1]); err != nil {
			return err
		}
		fmt.Fprintf(w, "  wrote %d sample(s) to %s\n", sp.Len(), args[1])
	case len(args) == 2 && args[0] == "prom":
		if err := sp.DumpPrometheus(args[1]); err != nil {
			return err
		}
		fmt.Fprintf(w, "  wrote prometheus exposition to %s\n", args[1])
	default:
		return errUsage
	}
	return nil
}
