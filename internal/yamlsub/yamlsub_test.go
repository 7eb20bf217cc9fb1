package yamlsub

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The syntax-error message table lives with the scenario package
// (TestYAMLSyntaxErrors), which runs it through this parser; the tests here
// cover what only the shared parser does: documents and the tree's shape.

func TestParseDocsSplitsDocuments(t *testing.T) {
	docs, err := ParseDocs(strings.NewReader("# leading comment\n---\na: 1\n---\n\n# nothing\n---\nb:\n  - x\n  - k: v\n    l: w\n"))
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
		_, err := ParseDocs(strings.NewReader(src))
		if !errors.Is(err, ErrSyntax) || !strings.Contains(err.Error(), want) {
			t.Errorf("%.20q: err = %v, want ErrSyntax with %q", src, err, want)
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

// FuzzParseDocs: whatever the bytes, the parser returns — trees whose every
// node names a line ≥ 1, or an ErrSyntax that names one.
func FuzzParseDocs(f *testing.F) {
	files, _ := filepath.Glob("../../scenarios/*.yaml")
	if len(files) == 0 {
		f.Fatal("no bundled scenarios to seed with")
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// The paper's listings: a claim, and a job redeeming it with
	// containers spelled as Kubernetes requires.
	f.Add([]byte("kind: VniClaim\nmetadata:\n  name: c\nspec:\n  name: test\n---\nkind: Job\nmetadata:\n  name: j\n  annotations:\n    vni: \"true\"\nspec:\n  template:\n    spec:\n      containers:\n        - name: c\n          image: alpine:latest\n"))
	f.Add([]byte("a:\n\t- b\n- c\n  -\n'q: \"\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		docs, err := ParseDocs(bytes.NewReader(data))
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
