package scenario

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/stack"
	"github.com/caps-sim/shs-k8s/internal/telemetry"
)

func TestParseTelemetrySection(t *testing.T) {
	sc := mustParse(t, `
name: t
telemetry:
  sampleEvery: 250us
  sink: out.jsonl
  capacity: 64
events:
  - at: 0s
    action: start_fleet
`)
	want := TelemetrySpec{Config: telemetry.Config{Interval: 250 * time.Microsecond, Capacity: 64}, Sink: "out.jsonl"}
	if sc.Telemetry != want {
		t.Errorf("Telemetry = %+v, want %+v", sc.Telemetry, want)
	}
	if !sc.Telemetry.Enabled() {
		t.Error("Enabled() = false with sampleEvery set")
	}
}

func TestTelemetrySectionErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"missing sampleEvery", "name: t\ntelemetry:\n  sink: x.jsonl\nevents:\n  - at: 0s\n    action: start_fleet\n",
			"needs sampleEvery"},
		{"bad duration", "name: t\ntelemetry:\n  sampleEvery: fast\nevents:\n  - at: 0s\n    action: start_fleet\n",
			"sampleEvery"},
		{"zero capacity", "name: t\ntelemetry:\n  sampleEvery: 1ms\n  capacity: 0\nevents:\n  - at: 0s\n    action: start_fleet\n",
			"capacity"},
		{"unknown key", "name: t\ntelemetry:\n  sampleEvery: 1ms\n  format: csv\nevents:\n  - at: 0s\n    action: start_fleet\n",
			`unknown key "format"`},
		{"assertion without section", minimal + "assertions:\n  - type: telemetry_samples\n    op: \">=\"\n    value: 1\n",
			"requires a telemetry: section"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.src))
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestRunWithTelemetry runs a scenario with a telemetry section end to
// end: the sampler collects a series, the telemetry_* assertions read it,
// and the sink file receives one JSON object per line.
func TestRunWithTelemetry(t *testing.T) {
	sink := filepath.Join(t.TempDir(), "series.jsonl")
	sc := mustParse(t, `
name: telemetry-run
fleet:
  nodes: 2
  tenants:
    - name: a
telemetry:
  sampleEvery: 100ms
  sink: `+sink+`
events:
  - at: 0s
    action: start_fleet
  - at: 0s
    action: submit_job
    tenant: a
    name: j
    pods: 2
    runtime: 400ms
  - at: 1s
    action: wait_jobs_complete
assertions:
  - type: telemetry_samples
    op: ">="
    value: 10
  - type: jobs_completed
    value: 1
`)
	res := Run(sc)
	if !res.Passed() {
		t.Fatalf("run failed: err=%v asserts=%v", res.Err, res.Asserts)
	}
	f, err := os.Open(sink)
	if err != nil {
		t.Fatalf("sink not written: %v", err)
	}
	defer f.Close()
	lines := 0
	scan := bufio.NewScanner(f)
	scan.Buffer(make([]byte, 1<<20), 1<<20)
	for scan.Scan() {
		line := scan.Text()
		if !strings.HasPrefix(line, `{"t_us":`) {
			t.Fatalf("sink line %d is not a sample object: %q", lines+1, line)
		}
		lines++
	}
	if lines < 10 {
		t.Errorf("sink holds %d lines, want >= 10", lines)
	}
	// The series must see the job's pods running at some point.
	sawRunning := false
	for _, sm := range sampleField(t, sink) {
		if sm > 0 {
			sawRunning = true
		}
	}
	if !sawRunning {
		t.Error("no sample caught pods_running > 0")
	}
}

// TestFailedRunStopsBackgroundWork runs a scenario whose timeline errors
// with all three background loops running — sampler, health daemon and
// gap prober — and checks the run still ends them and writes the series.
func TestFailedRunStopsBackgroundWork(t *testing.T) {
	sink := filepath.Join(t.TempDir(), "series.jsonl")
	sc := mustParse(t, `
name: failed-run
fleet:
  nodes: 2
  tenants:
    - name: a
health:
  checkEvery: 100ms
telemetry:
  sampleEvery: 100ms
  sink: `+sink+`
events:
  - at: 0s
    action: start_fleet
  - at: 0s
    action: break_watch
    kind: pods
  - at: 500ms
    action: delete_job
    tenant: a
    name: never-submitted
`)
	var st *stack.Stack
	res := RunHooked(sc, Hooks{AfterEvent: func(s *stack.Stack, _ *Event) error {
		st = s
		return nil
	}})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "job a/never-submitted was never submitted") {
		t.Fatalf("Err = %v, want the delete_job error", res.Err)
	}
	if n := len(sampleField(t, sink)); n < 5 {
		t.Errorf("sink holds %d samples, want >= 5", n)
	}
	if st.Eng.Ticking() != 0 {
		t.Errorf("%d ticker(s) still running after a failed run", st.Eng.Ticking())
	}
}

// sampleField extracts pods_running from each sink line without a full
// JSON decode dependency on the sample schema.
func sampleField(t *testing.T, sink string) []int {
	t.Helper()
	data, err := os.ReadFile(sink)
	if err != nil {
		t.Fatal(err)
	}
	var out []int
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		i := strings.Index(line, `"pods_running":`)
		if i < 0 {
			out = append(out, 0)
			continue
		}
		rest := line[i+len(`"pods_running":`):]
		n := 0
		for len(rest) > 0 && rest[0] >= '0' && rest[0] <= '9' {
			n = n*10 + int(rest[0]-'0')
			rest = rest[1:]
		}
		out = append(out, n)
	}
	return out
}

// TestCordonSteersPlacement runs cordon/uncordon through the event path:
// with node0 cordoned, a job's pods all land on node1.
func TestCordonSteersPlacement(t *testing.T) {
	sc := mustParse(t, `
name: cordon
fleet:
  nodes: 2
  tenants:
    - name: a
events:
  - at: 0s
    action: start_fleet
  - at: 0s
    action: cordon
    target: node0
  - at: 0s
    action: submit_job
    tenant: a
    name: j
    pods: 2
    runtime: 10m
  - at: 0s
    action: wait_running
    tenant: a
    pods: 2
  - at: 1s
    action: uncordon
    target: node0
assertions:
  - type: pods_running
    target: a
    value: 2
`)
	r := NewOps(sc)
	for i := range sc.Events {
		if err := r.Exec(&sc.Events[i]); err != nil {
			t.Fatalf("%s: %v", sc.Events[i].Action, err)
		}
	}
	onNode0 := 0
	r.eachPod("a", "", func(pod *k8s.Pod) bool {
		if pod.Spec.NodeName == "node0" {
			onNode0++
		}
		return true
	})
	if onNode0 != 0 {
		t.Errorf("%d pod(s) scheduled on cordoned node0", onNode0)
	}
	if got := r.Actual(Assertion{Type: "pods_running", Target: "a"}); got != 2 {
		t.Errorf("pods_running = %v, want 2", got)
	}
}
