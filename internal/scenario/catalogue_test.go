package scenario

import (
	"os"
	"strings"
	"testing"
)

// TestCatalogue checks the two catalogues against themselves: what the
// rest of the package assumes about a declaration without checking it.
func TestCatalogue(t *testing.T) {
	sc := mustParse(t, `
name: catalogue
topology:
  groups: 2
  switchesPerGroup: 2
  globalLinksPerPair: 2
fleet:
  nodes: 4
health:
  checkEvery: 1s
events:
  - at: 0s
    action: start_fleet
`)
	// The documented form of each prompt command, accepted as typed.
	typed := map[string]string{
		"cordon": "node0", "uncordon": "node0", "fail-nic": "node3", "recover-nic": "node3",
		"fail-link": "0 1 1", "recover-link": "0 1", "remediate": "node1",
		"fail-apiserver": "", "degrade-apiserver": "3 0.5", "recover-apiserver": "", "break-watch": "pods",
	}
	names, commands := map[string]bool{}, map[string]bool{}
	for i := range Actions {
		a := &Actions[i]
		if a.exec == nil {
			t.Errorf("%s: no exec", a.Name)
		}
		if names[a.Name] || (a.Command != "" && commands[a.Command]) {
			t.Errorf("%s / %q: declared twice", a.Name, a.Command)
		}
		names[a.Name], commands[a.Command] = true, true
		for _, p := range a.params {
			if _, ok := p.kind.parse(p.def); p.def != "" && !ok {
				t.Errorf("%s: default %s: %q is not of its kind", a.Name, p.name, p.def)
			}
			if p.req && p.def != "" {
				t.Errorf("%s: %s is required and has a default", a.Name, p.name)
			}
		}
		optional := false
		for _, g := range a.args {
			if g.param != "target" && a.param(g.param) == nil {
				t.Errorf("%s: argument <%s> names undeclared parameter %q", a.Command, g.show, g.param)
			}
			if g.param == "target" && !a.node {
				t.Errorf("%s: argument <%s> is a target the action does not take", a.Command, g.show)
			}
			if optional && !g.opt {
				t.Errorf("%s: required argument <%s> after an optional one", a.Command, g.show)
			}
			optional = g.opt
		}
		if a.Command == "" {
			continue
		}
		if a.Help == "" {
			t.Errorf("%s: no help", a.Command)
		}
		words, ok := typed[a.Command]
		if !ok {
			t.Errorf("%s: add its documented form to this test", a.Command)
			continue
		}
		ev, err := a.Event(strings.Fields(words))
		if err == nil {
			err = sc.CheckEvent(ev)
		}
		if err != nil {
			t.Errorf("%s %s: %v", a.Command, words, err)
		}
		if _, err := a.Event(make([]string, len(a.args)+1)); err == nil || err.Error() != "usage: "+a.Usage() {
			t.Errorf("%s: one word too many answered %v, want the usage line", a.Command, err)
		}
		if ActionByCommand(a.Command) != a || ActionByName(a.Name) != a {
			t.Errorf("%s: lookup does not find it", a.Command)
		}
	}
	if ActionByCommand("") != nil {
		t.Error("the empty command names an action")
	}
	seen := map[string]bool{}
	for _, p := range probes {
		if p.actual == nil || seen[p.name] {
			t.Errorf("probe %s: no actual, or declared twice", p.name)
		}
		seen[p.name] = true
	}
}

// docRows returns the first two cells of every body row of the markdown
// table that follows heading in file, backquotes of the first cell
// stripped.
func docRows(t *testing.T, file, heading string) (rows [][2]string) {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, found := strings.Cut(string(data), "\n"+heading+"\n")
	if !found {
		t.Fatalf("%s: no %q heading", file, heading)
	}
	inTable := false
	for _, line := range strings.Split(rest, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		if cells := strings.Split(line, "|"); inTable && len(cells) >= 4 {
			rows = append(rows, [2]string{strings.Trim(strings.TrimSpace(cells[1]), "`"), strings.TrimSpace(cells[2])})
		}
		inTable = inTable || strings.HasPrefix(line, "|---")
	}
	return rows
}

// TestDocsMatchCatalogues holds docs/scenarios.md and the prompt's command
// table in docs/observability.md to the catalogues: the same actions,
// assertion types and commands in the same order, bold exactly the
// required parameters, the value in parentheses exactly the declared
// default. A row dropped from the docs or a default changed in the code
// fails here.
func TestDocsMatchCatalogues(t *testing.T) {
	var want [][2]string
	for _, a := range Actions {
		var cells []string
		if a.node {
			cells = append(cells, "target: `nodeN`")
		}
		for _, p := range a.params {
			switch {
			case p.req:
				cells = append(cells, "**"+p.name+"**")
			case p.def != "":
				cells = append(cells, p.name+" ("+p.def+")")
			default:
				cells = append(cells, p.name)
			}
		}
		if len(cells) == 0 {
			cells = []string{"—"}
		}
		want = append(want, [2]string{a.Name, strings.Join(cells, ", ")})
	}
	compareRows(t, "docs/scenarios.md Events", docRows(t, "../../docs/scenarios.md", "## Events"), want)

	var stats []string
	for _, s := range latencyStats {
		stats = append(stats, "`"+s.name+"`")
	}
	targets := map[targetKind]string{
		noTarget: "—", tenantTarget: "tenant (optional)", reasonTarget: "drop reason",
		statTarget: strings.Join(stats, " "), runTarget: "run name",
		pairTarget: "`a/b` (two run names)", faultTarget: "`nodeN` or link key",
	}
	want = nil
	for _, p := range probes {
		want = append(want, [2]string{p.name, targets[p.target]})
	}
	compareRows(t, "docs/scenarios.md Assertions", docRows(t, "../../docs/scenarios.md", "## Assertions"), want)

	want = nil
	for i := range Actions {
		if a := &Actions[i]; a.Command != "" {
			want = append(want, [2]string{a.Usage(), a.Help})
		}
	}
	var got [][2]string
	for _, row := range docRows(t, "../../docs/observability.md", "### Protocol reference") {
		if word, _, _ := strings.Cut(row[0], " "); ActionByCommand(word) != nil {
			got = append(got, row)
		}
	}
	compareRows(t, "docs/observability.md commands", got, want)
}

func compareRows(t *testing.T, what string, got, want [][2]string) {
	t.Helper()
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			t.Errorf("%s: no row for %q (want | `%s` | %s |)", what, want[i][0], want[i][0], want[i][1])
		case i >= len(want):
			t.Errorf("%s: row %q documents nothing in the catalogue", what, got[i][0])
		case got[i] != want[i]:
			t.Errorf("%s row %d:\n   docs: | `%s` | %s |\n   code: | `%s` | %s |", what, i+1, got[i][0], got[i][1], want[i][0], want[i][1])
		}
	}
}
