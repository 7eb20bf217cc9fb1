package ctl

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/scenario"
)

// runSession boots a fresh server for sc (nil = default fleet) and serves
// the script as one stdin session, returning the transcript.
func runSession(t *testing.T, sc *scenario.Scenario, script string) string {
	t.Helper()
	srv, err := New(sc)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var out bytes.Buffer
	if err := srv.Serve(strings.NewReader(script), &out); err != nil {
		t.Fatalf("Serve: %v", err)
	}
	return out.String()
}

// goldenScript and goldenTranscript lock the control protocol: the exact
// bytes a scripted session produces, echoes and narration included. Any
// change to the protocol's rendering must update this transcript
// deliberately.
const goldenScript = `# golden protocol session
cordon node0
fail-nic node7
fail-link 0 1 0
nodes
links -top 2
bogus
step 250ms
quit
`

const goldenTranscript = `shs-k8s interactive: interactive — 8 node(s), 2 group(s), clock at 00:01.000 ('help' lists commands)
  [00:01.000] fleet up: 8 nodes, 1 tenants, vni pool 1024-65535, vni service=true
  [00:01.000] topology: 2 group(s) x 2 switch(es), 2 global link(s) per pair
shssim> cordon node0
  [00:01.000] cordoning node0
shssim> fail-nic node7
  [00:01.000] injecting NIC failure on node7
shssim> fail-link 0 1 0
  [00:01.000] failing global link 0 between group 0 and group 1
shssim> nodes
node       group switch nic   sched      pods
node0          0      0 up    cordoned      0
node1          0      0 up    ok            0
node2          0      1 up    ok            0
node3          0      1 up    ok            0
node4          1      2 up    ok            0
node5          1      2 up    ok            0
node6          1      3 up    ok            0
node7          1      3 DOWN  ok            0
shssim> links -top 2
link                     kind           bytes    packets   drops   util%
rosetta0->rosetta1       intra              0          0       0   0.00
rosetta0->rosetta2       global             0          0       0   0.00 DOWN
shssim> bogus
error: unknown command "bogus" (try 'help')
shssim> step 250ms
  advanced 250ms, clock at 00:01.250
shssim> quit
bye
`

func TestGoldenTranscript(t *testing.T) {
	got := runSession(t, nil, goldenScript)
	if got != goldenTranscript {
		t.Errorf("transcript diverged from golden:\n--- got:\n%s\n--- want:\n%s", got, goldenTranscript)
	}
}

// TestSessionDeterminism replays a full operator session — traffic, a
// link failure, rerouted traffic, telemetry dump — twice on fresh fleets
// and requires byte-identical transcripts and telemetry series.
func TestSessionDeterminism(t *testing.T) {
	dir := t.TempDir()
	run := func(n int) (string, []byte) {
		sink := filepath.Join(dir, "tel"+string(rune('0'+n))+".jsonl")
		script := strings.Join([]string{
			"run-traffic alltoall 65536",
			"fail-link 0 1 0",
			"run-traffic alltoall 65536",
			"links -top 10",
			"run-until-idle",
			"metrics dump " + sink,
			"quit",
		}, "\n") + "\n"
		sc := DefaultScenario()
		sc.Telemetry.Interval = 100 * time.Millisecond
		transcript := runSession(t, sc, script)
		// The dump path differs between runs; normalize it out.
		transcript = strings.ReplaceAll(transcript, sink, "SINK")
		data, err := os.ReadFile(sink)
		if err != nil {
			t.Fatalf("telemetry sink: %v", err)
		}
		return transcript, data
	}
	t1, d1 := run(1)
	t2, d2 := run(2)
	if t1 != t2 {
		t.Errorf("transcripts differ:\n--- 1:\n%s\n--- 2:\n%s", t1, t2)
	}
	if !bytes.Equal(d1, d2) {
		t.Error("telemetry series differ between identical sessions")
	}
	// The rerouting story must be visible: the second collective ran with
	// global link 0 down, so its sibling carried traffic.
	for _, want := range []string{
		"20 MB on global links",
		"DOWN",
		"idle, clock at",
	} {
		if !strings.Contains(t1, want) {
			t.Errorf("transcript missing %q:\n%s", want, t1)
		}
	}
}

// TestRunTrafficLifecycle checks one run-traffic command performs the full
// submit → wait → drive → delete cycle and leaves the fleet idle.
func TestRunTrafficLifecycle(t *testing.T) {
	// The delete lands asynchronously on the virtual clock, so the job
	// table empties only after run-until-idle drains the teardown.
	got := runSession(t, nil, "run-traffic allreduce-ring 4096\nrun-until-idle\njobs\nquit\n")
	for _, want := range []string{
		"submitted job ops/traffic-1 (8 pod(s)",
		"8 pod(s) running in ops",
		"traffic traffic-1 on ops/traffic-1: allreduce-ring x10 of 4096 B over 8 ranks",
		"deleted job ops/traffic-1",
		"no jobs",
		"idle, clock at",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("transcript missing %q:\n%s", want, got)
		}
	}
}

func TestCommandErrors(t *testing.T) {
	cases := []struct{ script, want string }{
		{"run-traffic warp 64\n", "unknown pattern"},
		{"run-traffic alltoall zero\n", `bytes wants a positive integer, got "zero"`},
		{"fail-link a b\n", "is not a valid group index"},
		{"step backwards\n", "positive duration"},
		{"cordon\n", "usage: cordon <node>"},
		{"cordon nope\n", "error:"},
		{"links -top x\n", "-top wants a positive integer"},
		{"metrics\n", "telemetry disabled"},
		// The default fleet boots without a health: section, so the
		// health-loop commands must refuse with a pointer to the fix, and
		// malformed link coordinates must name the bad value, not panic.
		{"health\n", "health loop disabled"},
		{"remediate\n", "usage: remediate <node>"},
		{"remediate node0\n", "requires a health: section"},
		{"fail-link 0 1 9\n", "link: must be 0..1"},
		{"fail-link 0 9 0\n", "error:"},
		// The prompt refuses what a scenario file is refused, before anything
		// is narrated or done: a negative link index once failed every link
		// of the pair while saying "failing global link -3".
		{"fail-link 0 1 -3\n", "error: fail_link: link: must be a non-negative integer"},
		{"cordon node99\n", "error: cordon: target must name a fleet node"},
		{"fail-nic nodeX\n", "error: inject_nic_failure: target must name a fleet node"},
		{"fail-link 0 0\n", "error: fail_link: groups: indices must differ"},
		{"degrade-apiserver 0.5\n", "latency_factor: must be a number ≥ 1"},
		{"break-watch secrets\n", "kind: must be one of jobs, namespaces, nodes, pods"},
	}
	for _, tc := range cases {
		got := runSession(t, nil, tc.script+"links\nquit\n")
		if !strings.Contains(got, tc.want) {
			t.Errorf("script %q: transcript missing %q:\n%s", tc.script, tc.want, got)
		}
		// A refused command narrates nothing ("[00:01.000] failing ...")
		// after its echo and leaves every link up.
		_, after, _ := strings.Cut(got, "shssim> "+strings.TrimSpace(tc.script)+"\n")
		if strings.HasPrefix(after, "  [") || strings.Contains(got, "DOWN") {
			t.Errorf("script %q acted before refusing:\n%s", tc.script, got)
		}
	}
}

// TestMetricsCommands drives the telemetry-backed metrics commands: the
// bare form prints the Prometheus exposition, dump writes JSONL.
func TestMetricsCommands(t *testing.T) {
	sink := filepath.Join(t.TempDir(), "series.jsonl")
	sc := DefaultScenario()
	sc.Telemetry.Interval = 50 * time.Millisecond
	got := runSession(t, sc, "step 500ms\nmetrics\nmetrics dump "+sink+"\nquit\n")
	for _, want := range []string{
		"shssim_virtual_time_microseconds",
		"shssim_link_utilization",
		"wrote 11 sample(s) to " + sink,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("transcript missing %q:\n%s", want, got)
		}
	}
	data, err := os.ReadFile(sink)
	if err != nil {
		t.Fatalf("sink: %v", err)
	}
	if lines := bytes.Count(data, []byte("\n")); lines != 11 {
		t.Errorf("sink holds %d samples, want 11", lines)
	}
}

// TestScenarioFleetSections boots from a scenario file's fleet/topology
// sections; the ops tenant is added automatically for run-traffic.
func TestScenarioFleetSections(t *testing.T) {
	sc, err := scenario.Parse(strings.NewReader(`
name: custom
fleet:
  nodes: 4
  tenants:
    - name: blue
events:
  - at: 0s
    action: start_fleet
`))
	if err != nil {
		t.Fatal(err)
	}
	got := runSession(t, sc, "nodes\nquit\n")
	if !strings.Contains(got, "custom — 4 node(s), 1 group(s)") {
		t.Errorf("banner does not reflect the scenario fleet:\n%s", got)
	}
	if !strings.Contains(got, "2 tenants") {
		t.Errorf("ops tenant not added alongside blue:\n%s", got)
	}
	// Header plus one row per node.
	if strings.Count(got, "\nnode") != 5 {
		t.Errorf("node table does not list 4 nodes:\n%s", got)
	}
}

// serveSocket binds path and serves it in the background. The socket is
// listening when serveSocket returns, so a test dials it at once; done
// yields ServeListener's result (a server that never returns is the test
// binary's -timeout to report).
func serveSocket(t *testing.T, path string) (done <-chan error) {
	t.Helper()
	srv, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Listen(path)
	if err != nil {
		t.Fatal(err)
	}
	ch := make(chan error, 1)
	go func() { ch <- srv.ServeListener(l) }()
	return ch
}

// TestSocketSession serves the protocol over a Unix socket: one client
// session runs commands and quits, which shuts the server down.
func TestSocketSession(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctl.sock")
	done := serveSocket(t, path)
	conn, err := net.Dial("unix", path)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if _, err := conn.Write([]byte("nodes\nquit\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	var out bytes.Buffer
	if _, err := out.ReadFrom(conn); err != nil {
		t.Fatalf("read: %v", err)
	}
	conn.Close()
	for _, want := range []string{"shssim> nodes", "node7", "bye"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("socket transcript missing %q:\n%s", want, out.String())
		}
	}
	if err := <-done; err != nil {
		t.Errorf("ServeListener: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("socket file not cleaned up: %v", err)
	}
}

// TestSocketSurvivesAbruptDisconnect: a client that drops its connection
// without sending quit must not take the server down — the listener goes
// back to Accept and serves the next session, and only an explicit quit
// ends the server. A server that exited on the disconnect would close the
// listener under the second session, which then reads no "bye".
func TestSocketSurvivesAbruptDisconnect(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ctl.sock")
	done := serveSocket(t, path)
	dial := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("unix", path)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		return conn
	}

	// Session 1: run a command mid-stream, then hang up without quit.
	conn := dial()
	if _, err := conn.Write([]byte("nodes\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.Close()

	// Session 2 on the same listener still works and can end the server.
	conn = dial()
	if _, err := conn.Write([]byte("jobs\nquit\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	var out bytes.Buffer
	if _, err := out.ReadFrom(conn); err != nil {
		t.Fatalf("read: %v", err)
	}
	conn.Close()
	for _, want := range []string{"shssim> jobs", "bye"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("second session transcript missing %q:\n%s", want, out.String())
		}
	}
	if err := <-done; err != nil {
		t.Errorf("ServeListener: %v", err)
	}
}

// FuzzExecute: whatever line is typed, Execute returns without panicking,
// and a line it refuses — a usage error, or an event CheckEvent rejects —
// leaves the engine where it was: clock unmoved, nothing scheduled. The
// fleet boots without telemetry, so `metrics dump <path>` cannot write.
func FuzzExecute(f *testing.F) {
	session, err := os.ReadFile("../../examples/interactive/session.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(session), "\n") {
		f.Add(line)
	}
	for _, line := range []string{"run-traffic warp 64", "fail-link a b", "step backwards", "cordon", "cordon nope",
		"links -top x", "metrics dump /tmp/x", "health", "remediate node0", "fail-link 0 1 9", "fail-link 0 1 -3",
		"fail-nic nodeX", "fail-link 0 0", "degrade-apiserver 2 0.1", "break-watch pods", "apiserver", "help", "exit"} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			return
		}
		// Keep an iteration short: no hour-long steps over an armed gap
		// prober, no gigabyte collectives.
		if len(line) > 64 || (fields[0] == "step" || fields[0] == "run-traffic") && len(fields[len(fields)-1]) > 5 {
			return
		}
		srv, err := New(nil)
		if err != nil {
			t.Fatal(err)
		}
		srv.Ops().TakeLog() // the boot narration a session's banner prints
		eng := srv.Ops().Stack().Eng
		now, pending := eng.Now(), eng.Pending()
		refused := false
		if a := scenario.ActionByCommand(fields[0]); a != nil {
			ev, err := a.Event(fields[1:])
			refused = err != nil || srv.sc.CheckEvent(ev) != nil
		}
		var out bytes.Buffer
		srv.Execute(&out, line)
		refused = refused || strings.HasPrefix(out.String(), "usage:")
		if refused && (eng.Now() != now || eng.Pending() != pending) {
			t.Fatalf("refused line %q moved the engine: clock %v -> %v, pending %d -> %d\n%s",
				line, now, eng.Now(), pending, eng.Pending(), out.String())
		}
		if refused && !strings.HasPrefix(out.String(), "usage:") && !strings.HasPrefix(out.String(), "error:") {
			t.Fatalf("refused line %q acted before the refusal:\n%s", line, out.String())
		}
	})
}
