package yamlsub

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The syntax-error message table lives with the scenario package
// (TestYAMLSyntaxErrors), which runs it through this parser; the tests here
// cover what only the shared parser does: documents and the tree's shape.

func TestParseDocsSplitsDocuments(t *testing.T) {
	docs, err := ParseDocs([]byte("# leading comment\n---\na: 1\n---\n\n# nothing\n---\nb:\n  - x\n  - k: v\n    l: w\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("got %d documents, want 2 (empty ones skipped)", len(docs))
	}
	if docs[0].Line != 3 || docs[0].Str("a") != "1" {
		t.Errorf("first document = %+v", docs[0])
	}
	b := docs[1].Get("b")
	if b == nil || b.Kind != Seq || len(b.Items) != 2 || b.Items[0].Scalar != "x" || b.Items[1].Str("l") != "w" {
		t.Fatalf("second document's sequence = %+v", b)
	}
	if b.Items[1].Line != 10 || b.Items[1].Get("l").Line != 11 {
		t.Errorf("item lines = %d, %d, want 10, 11", b.Items[1].Line, b.Items[1].Get("l").Line)
	}
	if docs[1].Get("b", "x") != nil || docs[1].Str("b") != "" || docs[1].Get("missing", "deeper") != nil {
		t.Error("Get/Str through a non-mapping or a missing key must yield nothing")
	}
}

func TestParseDocsErrorsNameTheStreamLine(t *testing.T) {
	for src, want := range map[string]string{
		"a: 1\n---\n  b: 2\n":                 "line 3: document must start at column 0",
		"a: 1\n---\nb: 2\nb: 3\n":             `line 4: duplicate key "b"`,
		"a: 1\n" + strings.Repeat("x", 70000): "line 2: line too long",
	} {
		_, err := ParseDocs([]byte(src))
		if !errors.Is(err, ErrSyntax) || !strings.Contains(err.Error(), want) {
			t.Errorf("%.20q: err = %v, want ErrSyntax with %q", src, err, want)
		}
	}
}

// TestParseDocsAllocations pins what a document costs: its copy of the
// source, the line table, the node, field and item slabs and the result —
// the same few allocations at 20 lines and at 400.
func TestParseDocsAllocations(t *testing.T) {
	doc := func(lines int) []byte {
		var b strings.Builder
		b.WriteString("# a scenario-shaped document\nname: n\nfleet:\n  nodes: 2\nevents:\n")
		for i := 5; i+4 <= lines; i += 4 {
			fmt.Fprintf(&b, "  - at: %ds # offset\n    action: note\n    message: \"m %d\"\n    tags: x\n", i, i)
		}
		return []byte(b.String())
	}
	const want = 6
	for _, lines := range []int{20, 400} {
		src := doc(lines)
		if _, err := ParseDocs(src); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(20, func() { ParseDocs(src) }); got != want {
			t.Errorf("a %d-line document costs %.0f allocations, want %d", lines, got, want)
		}
	}
}

var lineOf = regexp.MustCompile(`: line (\d+): `)

// checkLines fails unless every node of the tree sits on a real line and a
// sequence is never empty (which clients index on).
func checkLines(t *testing.T, n *Node) {
	if n.Line < 1 || (n.Kind == Seq && len(n.Items) == 0) {
		t.Fatalf("malformed node %+v", n)
	}
	for _, f := range n.Fields {
		checkLines(t, f.Val)
	}
	for _, item := range n.Items {
		checkLines(t, item)
	}
}

// lineLimitCases put lines either side of bufio.Scanner's limit, with and
// without a final newline, a CR counted in the limit, and a syntax error in
// a document before (and after a "---" before) a too-long line.
func lineLimitCases() [][]byte {
	var cases [][]byte
	for _, n := range []int{bufio.MaxScanTokenSize - 1, bufio.MaxScanTokenSize} {
		long := "a: " + strings.Repeat("x", n-3)
		cases = append(cases, []byte(long), []byte(long+"\n"), []byte("b: 1\n"+long[:n-1]+"\r\n"),
			[]byte("a:\n  b: 1\n c: 2\n---\n"+long+"\n"), []byte("a: 1\na: 2\n"+long+"\n"))
	}
	return cases
}

// TestParseDocsMatchesOracleAtTheLineLimit holds ParseDocs to the replaced
// parser on lineLimitCases. They are not FuzzParseDocs seeds: the fuzzer
// finds its 64 KiB mutants interesting and then spends its run minimizing
// them, not trying new inputs.
func TestParseDocsMatchesOracleAtTheLineLimit(t *testing.T) {
	for _, src := range lineLimitCases() {
		matchOracle(t, src)
	}
}

// matchOracle fails unless ParseDocs and the parser it replaced
// (oracle_test.go) give the same trees, or the same error text.
func matchOracle(t *testing.T, src []byte) ([]*Node, error) {
	docs, err := ParseDocs(src)
	want, wantErr := oracleParseDocs(bytes.NewReader(src))
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(docs, want) {
		t.Fatalf("%.40q: ParseDocs = %v, %v; the replaced parser gives %v, %v", src, docs, err, want, wantErr)
	}
	return docs, err
}

// FuzzParseDocs: whatever the bytes, ParseDocs returns what the parser it
// replaced returns (oracle_test.go) — the same trees, or the same error
// text — and that is trees whose every node names a line ≥ 1, or an
// ErrSyntax that names one.
func FuzzParseDocs(f *testing.F) {
	files, _ := filepath.Glob("../../scenarios/*.yaml")
	if len(files) == 0 {
		f.Fatal("no bundled scenarios to seed with")
	}
	// Shrunk fuzz-campaign reproducers, when there are any.
	repros, _ := filepath.Glob("../../scenarios/fuzz-corpus/*.yaml")
	for _, file := range append(files, repros...) {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// The paper's listings (the manifests shscluster -f reads): a claim,
	// and a job redeeming it with containers spelled as Kubernetes
	// requires.
	f.Add([]byte("apiVersion: batch/v1\nkind: Job\nmetadata:\n  name: vni-test-job\n  annotations:\n    vni: \"true\"\nspec:\n  template:\n    spec:\n      containers:\n        image: alpine:latest\n"))
	f.Add([]byte("kind: VniClaim\nmetadata:\n  name: c\nspec:\n  name: test\n---\nkind: Job\nmetadata:\n  name: j\n  annotations:\n    vni: \"true\"\nspec:\n  template:\n    spec:\n      containers:\n        - name: c\n          image: alpine:latest\n"))
	f.Add([]byte("a:\n\t- b\n- c\n  -\n'q: \"\n"))
	// CRLF line ends, and a lone CR that is content.
	f.Add([]byte("a: 1\r\nb:\r\n  - x\r\n  - k: v\r\n\r\n---\r\nc: \"d\r\"\r"))
	f.Fuzz(func(t *testing.T, data []byte) {
		docs, err := matchOracle(t, data)
		if err != nil {
			m := lineOf.FindStringSubmatch(err.Error())
			if !errors.Is(err, ErrSyntax) || m == nil {
				t.Fatalf("error %q is not a line-anchored ErrSyntax", err)
			}
			if n, _ := strconv.Atoi(m[1]); n < 1 {
				t.Fatalf("error %q names line %d", err, n)
			}
			return
		}
		for _, d := range docs {
			checkLines(t, d)
		}
	})
}
