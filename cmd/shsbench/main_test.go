package main

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"github.com/caps-sim/shs-k8s/internal/fabric"
)

// TestRunCheapExperiments exercises the CLI driver on the experiments that
// complete in well under a second; the figure sweeps are covered by the
// top-level benchmarks.
func TestRunCheapExperiments(t *testing.T) {
	for _, exp := range []string{"table1", "tc"} {
		if err := run(exp, 1, 1, fabric.FidelityPacket); err != nil {
			t.Errorf("run(%q): %v", exp, err)
		}
	}
}

// TestRunUnknownExperimentIsRejected: a name -exp does not know — a typo,
// or the retired `perf` a script may still ask for — is a usage error that
// lists the valid names and prints nothing, never an empty selection that
// exits 0.
func TestRunUnknownExperimentIsRejected(t *testing.T) {
	for _, exp := range []string{"no-such-figure", "perf", ""} {
		err := run(exp, 1, 1, fabric.FidelityPacket)
		if !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want a usage error", exp, err)
			continue
		}
		names := slices.Clone(artefacts)
		for group := range groups {
			names = append(names, group)
		}
		for _, name := range names {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("run(%q): message does not list %q: %v", exp, name, err)
			}
		}
	}
}

func TestRunSingleAdmissionFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("admission figure sweep in -short mode")
	}
	if err := run("fig10", 1, 1, fabric.FidelityPacket); err != nil {
		t.Errorf("run(fig10): %v", err)
	}
}
