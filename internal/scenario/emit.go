package scenario

import (
	"fmt"
	"strings"
)

// EmitYAML renders the scenario back into the YAML subset Parse reads, so
// machine-built specs — above all the fuzz harness's shrunk reproducers —
// can be written to disk and replayed byte-for-byte with `shssim run` or
// `shssim fuzz -replay`. The emission is canonical and minimal: sections and
// keys in schema order (the tables of schema.go, which Parse reads through
// too), event parameters sorted, and every field whose value Parse would
// fill in anyway (the fleet defaults, a normalized 1×1 topology, the traffic
// defaults, op: ==) expressed by omission, which keeps shrunk reproducers
// close to the few lines that actually matter. It round-trips: for any
// valid scenario, Parse(EmitYAML(sc)) yields a spec deeply equal to sc up
// to source positions (Path and the Line fields), which emission cannot
// and need not preserve — defaults refill identically on re-parse.
// emit_test.go locks that contract over every bundled scenario.
func EmitYAML(sc *Scenario) []byte {
	var b, body strings.Builder
	emitFields(&b, 0, false, topFields, sc, &defaults)
	for _, s := range sections {
		body.Reset()
		if s.emit(&body, sc); body.Len() > 0 {
			b.WriteString("\n" + s.key + ":\n" + body.String())
		}
	}
	return []byte(b.String())
}

// quoteScalar wraps a value in quotes when the plain spelling would not
// survive a re-parse: comment introducers, surrounding whitespace, or a
// leading quote character (cleanScalar would strip it).
func quoteScalar(v string) string {
	if v == "" {
		return v
	}
	needs := v[0] == '"' || v[0] == '\'' ||
		strings.Contains(v, " #") || strings.TrimSpace(v) != v
	if !needs {
		return v
	}
	if !strings.Contains(v, `"`) {
		return `"` + v + `"`
	}
	if !strings.Contains(v, "'") {
		return "'" + v + "'"
	}
	// Both quote characters present: the subset cannot spell it; emit the
	// longest parseable prefix rather than a syntax error.
	return fmt.Sprintf("%q", v)
}
