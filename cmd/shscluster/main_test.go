package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags([]string{"-f", "x.yaml"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 1 || cfg.File != "x.yaml" {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestParseFlagsOverrides(t *testing.T) {
	cfg, err := parseFlags([]string{"-seed", "9", "-f", "x.yaml"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 9 || cfg.File != "x.yaml" {
		t.Errorf("overrides = %+v", cfg)
	}
}

// TestParseFlagsRejectsGarbage: a malformed value, a flag of the retired
// built-in demo, and a command line without a manifest are all usage
// errors.
func TestParseFlagsRejectsGarbage(t *testing.T) {
	for _, args := range [][]string{
		{"-f", "x.yaml", "-seed", "many"},
		{"-f", "x.yaml", "-jobs", "2"},
		{"-f", "x.yaml", "-claim", "shared"},
		{"-seed", "3"},
		nil,
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q): want an error", args)
		}
	}
}

// TestRunManifestSmoke submits a paper-style manifest through the CLI path.
func TestRunManifestSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.yaml")
	manifest := `apiVersion: batch/v1
kind: Job
metadata:
  name: listing1
  namespace: demo
  annotations:
    vni: "true"
spec:
  parallelism: 1
`
	if err := os.WriteFile(path, []byte(manifest), 0o600); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, config{File: path, Seed: 1}); err != nil {
		t.Fatalf("run -f: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "Job/listing1 created") {
		t.Errorf("job not created:\n%s", s)
	}
	if !strings.Contains(s, "completed=true") && !strings.Contains(s, "deleted (ttl)") {
		t.Errorf("job did not complete:\n%s", s)
	}
}

func TestRunManifestMissingFile(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, config{File: "does-not-exist.yaml"}); err == nil {
		t.Error("want error for missing manifest")
	}
}
