// Package yamlsub parses the YAML subset this repository's two file
// formats are written in — scenario files (internal/scenario) and the
// paper's Kubernetes manifests (internal/manifest): block mappings, block
// sequences ("- " items), scalar values (plain or quoted), "#" comments and
// "---" document separators. It is not a general YAML parser and rejects
// what it does not understand rather than guessing (no flow syntax,
// anchors, multi-line scalars or tabs). Every node carries the 1-based
// source line it came from, and every error names one.
package yamlsub

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
)

// ErrSyntax wraps structural parse failures. Every error ParseDocs returns
// for malformed input wraps it and carries the line it is anchored to.
var ErrSyntax = errors.New("yaml: syntax error")

// Kind says which of the three node shapes a Node has.
type Kind int

// The node shapes.
const (
	Scalar Kind = iota
	Map
	Seq
)

// Field is one "key: value" entry of a mapping.
type Field struct {
	Key string
	Val *Node
}

// Node is one parsed value annotated with its source line. A mapping keeps
// its entries in file order and its keys are unique (ParseDocs rejects
// duplicates); a sequence has at least one item.
type Node struct {
	Kind   Kind
	Line   int
	Scalar string
	Fields []Field // Map
	Items  []*Node // Seq
}

// Get returns the node at a path of mapping keys, or nil.
func (n *Node) Get(path ...string) *Node {
	for _, p := range path {
		if n == nil || n.Kind != Map {
			return nil
		}
		var next *Node
		for _, f := range n.Fields {
			if f.Key == p {
				next = f.Val
				break
			}
		}
		n = next
	}
	return n
}

// Str returns the scalar at path, or "".
func (n *Node) Str(path ...string) string {
	if c := n.Get(path...); c != nil && c.Kind == Scalar {
		return c.Scalar
	}
	return ""
}

// rawLine is one significant source line.
type rawLine struct {
	indent int
	text   string // content with indentation stripped
	line   int
}

func syntaxErr(line int, format string, args ...any) error {
	return fmt.Errorf("%w: line %d: %s", ErrSyntax, line, fmt.Sprintf(format, args...))
}

// ParseDocs reads the stream and returns one tree per "---"-separated
// document, skipping documents that hold nothing but blanks and comments.
func ParseDocs(r io.Reader) ([]*Node, error) {
	sc := bufio.NewScanner(r)
	var docs []*Node
	var lines []rawLine
	flush := func() error {
		if len(lines) == 0 {
			return nil
		}
		if lines[0].indent != 0 {
			return syntaxErr(lines[0].line, "document must start at column 0")
		}
		root, rest, err := parseBlock(lines, 0)
		if err != nil {
			return err
		}
		if len(rest) != 0 {
			return syntaxErr(rest[0].line, "unexpected dedent")
		}
		docs = append(docs, root)
		lines = lines[:0]
		return nil
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Text()
		trimmed := strings.TrimSpace(raw)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		if trimmed == "---" {
			if err := flush(); err != nil {
				return nil, err
			}
			continue
		}
		indent := 0
		for indent < len(raw) && raw[indent] == ' ' {
			indent++
		}
		if raw[indent] == '\t' {
			return nil, syntaxErr(lineNo, "tabs are not allowed in indentation")
		}
		lines = append(lines, rawLine{indent: indent, text: trimmed, line: lineNo})
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, syntaxErr(lineNo+1, "line too long")
		}
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return docs, nil
}

// parseBlock parses lines at exactly `indent` as a mapping or sequence,
// returning the remaining (shallower) lines.
func parseBlock(lines []rawLine, indent int) (*Node, []rawLine, error) {
	if isDashItem(lines[0].text) {
		return parseSeq(lines, indent)
	}
	return parseMap(lines, indent)
}

func isDashItem(text string) bool {
	return text == "-" || strings.HasPrefix(text, "- ")
}

// parseSeq consumes "- " items at `indent`.
func parseSeq(lines []rawLine, indent int) (*Node, []rawLine, error) {
	seq := &Node{Kind: Seq, Line: lines[0].line}
	for len(lines) > 0 {
		l := lines[0]
		if l.indent < indent {
			return seq, lines, nil
		}
		if l.indent > indent {
			return nil, nil, syntaxErr(l.line, "unexpected indent")
		}
		if !isDashItem(l.text) {
			return nil, nil, syntaxErr(l.line, "expected \"- \" sequence item, got %q", l.text)
		}
		inline := strings.TrimSpace(strings.TrimPrefix(l.text, "-"))
		itemIndent := indent + 2
		// The item's lines are the text after the dash plus every deeper
		// line that follows. The dash line's slot is rewritten in place to
		// hold the inline text, so the item is a sub-slice, not a copy.
		n := 1
		for n < len(lines) && lines[n].indent > indent {
			if lines[n].indent != itemIndent {
				return nil, nil, syntaxErr(lines[n].line, "sequence item fields must be indented %d spaces", itemIndent)
			}
			n++
		}
		itemLines := lines[:n]
		lines = lines[n:]
		if inline == "" {
			itemLines = itemLines[1:]
		} else {
			itemLines[0] = rawLine{indent: itemIndent, text: inline, line: l.line}
		}
		if len(itemLines) == 0 {
			return nil, nil, syntaxErr(l.line, "empty sequence item")
		}
		// A single inline value with no "key:" shape is a scalar item.
		if n == 1 {
			if _, _, ok := splitKV(inline); !ok {
				seq.Items = append(seq.Items, &Node{Line: l.line, Scalar: cleanScalar(inline)})
				continue
			}
		}
		item, rest, err := parseMap(itemLines, itemIndent)
		if err != nil {
			return nil, nil, err
		}
		if len(rest) != 0 {
			return nil, nil, syntaxErr(rest[0].line, "unexpected dedent")
		}
		item.Line = l.line
		seq.Items = append(seq.Items, item)
	}
	return seq, lines, nil
}

// parseMap consumes "key: value" / "key:" lines at exactly `indent`.
func parseMap(lines []rawLine, indent int) (*Node, []rawLine, error) {
	m := &Node{Kind: Map, Line: lines[0].line}
	for len(lines) > 0 {
		l := lines[0]
		if l.indent < indent {
			return m, lines, nil
		}
		if l.indent > indent {
			return nil, nil, syntaxErr(l.line, "unexpected indent")
		}
		key, val, ok := splitKV(l.text)
		if !ok {
			return nil, nil, syntaxErr(l.line, "expected \"key: value\" or \"key:\", got %q", l.text)
		}
		if m.Get(key) != nil {
			return nil, nil, syntaxErr(l.line, "duplicate key %q", key)
		}
		lines = lines[1:]
		// "key:" — block child if deeper lines follow, else empty scalar.
		var child *Node
		if val == "" && len(lines) > 0 && lines[0].indent > indent {
			var err error
			if child, lines, err = parseBlock(lines, lines[0].indent); err != nil {
				return nil, nil, err
			}
		} else {
			child = &Node{Line: l.line, Scalar: val}
		}
		m.Fields = append(m.Fields, Field{Key: key, Val: child})
	}
	return m, lines, nil
}

// splitKV separates "key: value", honoring quoted values, trailing comments
// and trailing-colon block keys. ok is false when the text is not key-shaped.
func splitKV(s string) (key, val string, ok bool) {
	i := strings.Index(s, ":")
	if i <= 0 {
		return "", "", false
	}
	// "key:value" without a space is a plain scalar (e.g. a time "00:05"),
	// not a mapping entry; "key:" at end of line is a block key.
	if i+1 < len(s) && s[i+1] != ' ' {
		return "", "", false
	}
	key = strings.TrimSpace(s[:i])
	if strings.ContainsAny(key, " \"'") {
		return "", "", false
	}
	return key, cleanScalar(strings.TrimSpace(s[i+1:])), true
}

// cleanScalar strips trailing comments and surrounding quotes.
func cleanScalar(v string) string {
	if len(v) > 0 && (v[0] == '"' || v[0] == '\'') {
		if j := strings.IndexByte(v[1:], v[0]); j >= 0 {
			return v[1 : j+1]
		}
		return v
	}
	if j := strings.Index(v, " #"); j >= 0 {
		v = strings.TrimSpace(v[:j])
	}
	return v
}
