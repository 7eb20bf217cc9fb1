package scenario

import (
	"errors"
	"strings"
	"testing"

	"github.com/caps-sim/shs-k8s/internal/yamlsub"
)

// TestYAMLSyntaxErrors walks every structural error path in the parser
// (internal/yamlsub) and the one-document rule Parse adds on top of it,
// pinning both the exact line anchor and the message text: these strings
// are what a user sees when a scenario file (or a fuzz reproducer) is
// malformed, and what the fuzz harness relies on to point at the offending
// line. Every case must also satisfy errors.Is(err, ErrSyntax) so callers
// can distinguish structural breakage from semantic validation failures.
func TestYAMLSyntaxErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"empty document", "", "line 1: empty document"},
		{"comments only", "# nothing\n\n---\n", "line 1: empty document"},
		{"tab indentation", "name: x\nevents:\n\t- at: 0s\n", "line 3: tabs are not allowed in indentation"},
		{"indented document start", "  name: x\n", "line 1: document must start at column 0"},
		{"unexpected indent in map", "name: x\n  stray: 1\n", "line 2: unexpected indent"},
		{"non-kv line in map", "name: x\njust words\n", `line 2: expected "key: value" or "key:", got "just words"`},
		{"missing space after colon", "name:x\n", `line 1: expected "key: value" or "key:", got "name:x"`},
		{"key with embedded space", "bad key: x\n", `line 1: expected "key: value" or "key:", got "bad key: x"`},
		{"duplicate key", "name: x\nname: y\n", `line 2: duplicate key "name"`},
		{"duplicate key in item", "events:\n  - at: 0s\n    at: 1s\n", `line 3: duplicate key "at"`},
		{"map line inside sequence", "events:\n  - at: 0s\n  action: oops\n", `line 3: expected "- " sequence item, got "action: oops"`},
		{"over-indented item field", "events:\n  - at: 0s\n      action: start_fleet\n", "line 3: sequence item fields must be indented 4 spaces"},
		{"empty sequence item", "events:\n  -\n", "line 2: empty sequence item"},
		{"deeper indent after item field", "events:\n  - at: 0s\n    params:\n        x: 1\n      y: 2\n", "line 4: sequence item fields must be indented 4 spaces"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.src))
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !errors.Is(err, ErrSyntax) {
				t.Errorf("error %q is not ErrSyntax", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestYAMLScalarHandling pins the scalar conventions the parser promises:
// quotes stripped, trailing comments cut, and colons without a following
// space left alone (durations like "00:05" are scalars, not mappings).
func TestYAMLScalarHandling(t *testing.T) {
	docs, err := yamlsub.ParseDocs(strings.NewReader(strings.Join([]string{
		`a: "quoted value"`,
		`b: 'single # not a comment'`,
		`c: plain # comment`,
		`d: "10s"`,
		`e:`,
		`list:`,
		`  - one`,
		`  - "two"`,
	}, "\n")))
	if err != nil || len(docs) != 1 {
		t.Fatalf("ParseDocs: %d documents, %v", len(docs), err)
	}
	root := docs[0]
	for _, tc := range []struct{ key, want string }{
		{"a", "quoted value"},
		{"b", "single # not a comment"},
		{"c", "plain"},
		{"d", "10s"},
		{"e", ""},
	} {
		if got := root.Str(tc.key); got != tc.want {
			t.Errorf("%s = %q, want %q", tc.key, got, tc.want)
		}
	}
	list := root.Get("list")
	if list == nil || list.Kind != yamlsub.Seq || len(list.Items) != 2 {
		t.Fatalf("list not parsed as a 2-item sequence: %+v", list)
	}
	if list.Items[0].Scalar != "one" || list.Items[1].Scalar != "two" {
		t.Errorf("scalar items = %q, %q", list.Items[0].Scalar, list.Items[1].Scalar)
	}
}

// TestYAMLLineNumbersSurviveBlankLinesAndComments checks anchoring counts
// physical source lines, not significant ones — the whole point of carrying
// line numbers is that an editor jump lands on the right row.
func TestYAMLLineNumbersSurviveBlankLinesAndComments(t *testing.T) {
	src := "# header\n\nname: x\n\n# section\nevents:\n\n  - at: 0s\n    at: 1s\n"
	_, err := Parse(strings.NewReader(src))
	if err == nil || !strings.Contains(err.Error(), "line 9") {
		t.Fatalf("duplicate key on physical line 9 reported as %v", err)
	}
}
