package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoScenarios points tests at the bundled scenario directory.
func repoScenarios(t *testing.T) string {
	t.Helper()
	dir := filepath.Join("..", "..", "scenarios")
	if _, err := os.Stat(dir); err != nil {
		t.Skipf("bundled scenarios not found: %v", err)
	}
	return dir
}

func TestValidateBundledScenarios(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"validate", repoScenarios(t)}, &out, &errb); code != 0 {
		t.Fatalf("validate exited %d:\n%s%s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "OK") {
		t.Errorf("no OK lines in output:\n%s", out.String())
	}
}

func TestValidateRejectsMalformedWithLineAnchor(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.yaml")
	src := "name: bad\nevents:\n  - at: 0s\n    action: start_fleet\n  - at: 1s\n    action: nonsense\n"
	if err := os.WriteFile(path, []byte(src), 0o600); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"validate", path}, &out, &errb); code == 0 {
		t.Fatalf("validate accepted a malformed scenario:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "bad.yaml:5:") {
		t.Errorf("error not line-anchored:\n%s", out.String())
	}
}

// TestRunQuickstartTwiceDeterministic runs the cheapest bundled scenario
// twice through the CLI and requires byte-identical reports.
func TestRunQuickstartTwiceDeterministic(t *testing.T) {
	file := filepath.Join(repoScenarios(t), "quickstart.yaml")
	outputs := make([]string, 2)
	for i := range outputs {
		var out, errb bytes.Buffer
		if code := run([]string{"run", "-v", file}, &out, &errb); code != 0 {
			t.Fatalf("run exited %d:\n%s%s", code, out.String(), errb.String())
		}
		outputs[i] = out.String()
	}
	if outputs[0] != outputs[1] {
		t.Errorf("two runs differ:\n--- 1:\n%s\n--- 2:\n%s", outputs[0], outputs[1])
	}
	if !strings.Contains(outputs[0], "--- PASS quickstart") {
		t.Errorf("quickstart did not pass:\n%s", outputs[0])
	}
}

// TestRunSeedFlag overrides the file's seed from the CLI: the report must
// carry the effective seed, and two runs with the same override must be
// byte-identical while differing from the file-seed run (the RNG stream
// actually changed).
func TestRunSeedFlag(t *testing.T) {
	file := filepath.Join(repoScenarios(t), "quickstart.yaml")
	runWith := func(args ...string) string {
		t.Helper()
		var out, errb bytes.Buffer
		if code := run(append(args, file), &out, &errb); code != 0 {
			t.Fatalf("run exited %d:\n%s%s", code, out.String(), errb.String())
		}
		return out.String()
	}
	base := runWith("run", "-v")
	if !strings.Contains(base, "seed 1)") {
		t.Errorf("default run does not report the file seed:\n%s", base)
	}
	seeded := runWith("run", "-v", "-seed", "99")
	if !strings.Contains(seeded, "seed 99)") {
		t.Errorf("seeded run does not report the override:\n%s", seeded)
	}
	if seeded == base {
		t.Error("seed override did not change the run")
	}
	if again := runWith("run", "-v", "-seed", "99"); again != seeded {
		t.Error("two runs with the same -seed differ")
	}
}

// TestRunRepeatSweepsSeedsFromOneParse: -repeat reuses the spec parsed
// once per file across consecutive-seed runs. The report must show one
// result per repeat at seeds base, base+1, …, each reproducible against a
// standalone run at the same seed.
func TestRunRepeatSweepsSeedsFromOneParse(t *testing.T) {
	file := filepath.Join(repoScenarios(t), "quickstart.yaml")
	var out, errb bytes.Buffer
	if code := run([]string{"run", "-seed", "7", "-repeat", "3", file}, &out, &errb); code != 0 {
		t.Fatalf("run exited %d:\n%s%s", code, out.String(), errb.String())
	}
	got := out.String()
	for _, want := range []string{"seed 7)", "seed 8)", "seed 9)", "3 scenario run(s): 3 passed"} {
		if !strings.Contains(got, want) {
			t.Errorf("repeat output missing %q:\n%s", want, got)
		}
	}
	// Each repeat must match a fresh single run at its seed (the shared
	// spec carries no state between runs): the standalone seed-8 result
	// block must appear verbatim inside the repeat output.
	var single bytes.Buffer
	if code := run([]string{"run", "-seed", "8", file}, &single, &errb); code != 0 {
		t.Fatalf("single run exited %d: %s", code, errb.String())
	}
	wantBlock := strings.Split(single.String(), "\n\n")[0]
	if wantBlock == "" || !strings.Contains(got, wantBlock) {
		t.Errorf("repeat at seed 8 differs from standalone seed-8 run:\nrepeat:\n%s\nsingle block:\n%s", got, wantBlock)
	}
}

func TestRunFailingScenarioExitsNonZero(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fail.yaml")
	src := `name: doomed
fleet:
  nodes: 2
events:
  - at: 0s
    action: start_fleet
assertions:
  - type: vnis_allocated
    value: 42
`
	if err := os.WriteFile(path, []byte(src), 0o600); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"run", path}, &out, &errb); code == 0 {
		t.Fatalf("failing scenario exited 0:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Errorf("no FAIL in output:\n%s", out.String())
	}
}

func TestListBundledScenarios(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"list", repoScenarios(t)}, &out, &errb); code != 0 {
		t.Fatalf("list exited %d: %s", code, errb.String())
	}
	for _, want := range []string{"quickstart", "multitenant-isolation", "nic-failure", "vni-exhaustion", "tenant-churn"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list output missing %q:\n%s", want, out.String())
		}
	}
}

// TestListReportsInvalidFiles: list must not swallow parse failures — an
// invalid scenario in the directory goes to stderr and flips the exit
// code, while valid files still list normally.
func TestListReportsInvalidFiles(t *testing.T) {
	dir := t.TempDir()
	good := "name: fine\nevents:\n  - at: 0s\n    action: start_fleet\n"
	if err := os.WriteFile(filepath.Join(dir, "good.yaml"), []byte(good), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "broken.yaml"), []byte("name: [\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"list", dir}, &out, &errb); code != 1 {
		t.Errorf("list with an invalid file exited %d, want 1", code)
	}
	if !strings.Contains(out.String(), "fine") {
		t.Errorf("valid scenario missing from listing:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "broken.yaml") {
		t.Errorf("stderr does not name the invalid file: %s", errb.String())
	}
	if strings.Contains(out.String(), "broken") {
		t.Errorf("invalid file leaked into stdout listing:\n%s", out.String())
	}
}

// TestInteractiveScriptedSession drives `shssim interactive` the
// way CI does: a scripted session against the built-in fleet, twice, with
// byte-identical transcripts.
func TestInteractiveScriptedSession(t *testing.T) {
	script := "nodes\nfail-link 0 1 0\nlinks -top 2\nstep 100ms\nquit\n"
	transcripts := make([]string, 2)
	for i := range transcripts {
		var out, errb bytes.Buffer
		code := cmdInteractive(nil, strings.NewReader(script), &out, &errb)
		if code != 0 {
			t.Fatalf("interactive exited %d: %s", code, errb.String())
		}
		transcripts[i] = out.String()
	}
	if transcripts[0] != transcripts[1] {
		t.Errorf("replayed sessions differ:\n--- 1:\n%s\n--- 2:\n%s", transcripts[0], transcripts[1])
	}
	for _, want := range []string{"shssim> nodes", "node7", "DOWN", "bye"} {
		if !strings.Contains(transcripts[0], want) {
			t.Errorf("transcript missing %q:\n%s", want, transcripts[0])
		}
	}
}

func TestInteractiveRejectsBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	// The retired no-op -stdin and the retired -workers alias -parallel are
	// unknown flags: a script still passing one fails loudly.
	if code := cmdInteractive([]string{"-stdin"}, strings.NewReader(""), &out, &errb); code != 2 {
		t.Errorf("interactive -stdin exited %d, want 2", code)
	}
	if code := run([]string{"run", "-parallel", "4", "../../scenarios"}, &out, &errb); code != 2 {
		t.Errorf("run -parallel exited %d, want 2", code)
	}
	if code := cmdInteractive([]string{"-scenario", "does-not-exist.yaml"},
		strings.NewReader(""), &out, &errb); code != 1 {
		t.Errorf("missing scenario file exited %d, want 1", code)
	}
}

// TestFuzzReplayBrokenFile locks the triage contract: `shssim fuzz
// -replay` on a file the parser chokes on reports the file on stderr and
// exits 1 — it must never panic or pretend the replay ran clean.
func TestFuzzReplayBrokenFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mangled.yaml")
	if err := os.WriteFile(path, []byte("events: [oops\n\t???"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"fuzz", "-replay", path}, &out, &errb); code != 1 {
		t.Fatalf("broken corpus file exited %d, want 1\nstdout:%s\nstderr:%s",
			code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "mangled.yaml") {
		t.Errorf("stderr does not name the broken file: %s", errb.String())
	}
}

func TestUnknownCommand(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"frobnicate"}, &out, &errb); code != 2 {
		t.Errorf("unknown command exited %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown command") {
		t.Errorf("stderr missing diagnosis: %s", errb.String())
	}
}
