// Package yamlsub parses the YAML subset this repository's two file
// formats are written in — scenario files (internal/scenario) and the
// paper's Kubernetes manifests (internal/manifest): block mappings, block
// sequences ("- " items), scalar values (plain or quoted), "#" comments and
// "---" document separators. It is not a general YAML parser and rejects
// what it does not understand rather than guessing (no flow syntax,
// anchors, multi-line scalars or tabs). Every node carries the 1-based
// source line it came from, and every error names one.
//
// ParseDocs copies its input into one string and cuts every key and scalar
// out of it, and each document's nodes, fields and items live in a few
// slabs sized by its line count: a parsed tree retains that one source
// string and its own slabs, whatever its size, and nothing else.
package yamlsub

import (
	"bufio"
	"errors"
	"fmt"
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

// ParseDocs parses src and returns one tree per "---"-separated document,
// skipping documents that hold nothing but blanks and comments. Lines end
// in "\n" or "\r\n", and a line of bufio.MaxScanTokenSize bytes or more,
// a "\r" counted, is an error, as it is to a bufio.Scanner.
func ParseDocs(src []byte) ([]*Node, error) {
	text := string(src)
	var docs []*Node
	lines := make([]rawLine, 0, strings.Count(text, "\n")+1)
	flush := func() error {
		if len(lines) == 0 {
			return nil
		}
		root, err := parseDoc(lines)
		if err != nil {
			return err
		}
		docs = append(docs, root)
		lines = lines[:0]
		return nil
	}
	lineNo := 0
	for rest := text; rest != ""; {
		var raw string
		raw, rest, _ = strings.Cut(rest, "\n")
		lineNo++
		if len(raw) >= bufio.MaxScanTokenSize {
			return nil, syntaxErr(lineNo, "line too long")
		}
		// A CRLF line's "\r" is whitespace to TrimSpace, the only reader
		// of a line's end, so it needs no trimming of its own.
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
	if err := flush(); err != nil {
		return nil, err
	}
	return docs, nil
}

// parser hands out one document's nodes, fields and items from slabs sized
// by its line counts. A mapping's fields (a sequence's items) collect on an
// open stack while nested blocks parse above them, and move to the slab as
// one contiguous run when it closes.
type parser struct {
	nodes              []Node
	fields, openFields []Field
	items, openItems   []*Node
}

// parseDoc parses one document's lines. Each node is a key's value, a
// sequence item or the root, and each field a key line, so a document of n
// lines, d of them dash items, needs at most n+d+1 nodes, n fields and d
// items; every slab holds that many, so none grows.
func parseDoc(lines []rawLine) (*Node, error) {
	if lines[0].indent != 0 {
		return nil, syntaxErr(lines[0].line, "document must start at column 0")
	}
	n, dashes := len(lines), 0
	for _, l := range lines {
		if isDashItem(l.text) {
			dashes++
		}
	}
	fields := make([]Field, 2*n)
	p := parser{nodes: make([]Node, 0, n+dashes+1), fields: fields[:0:n], openFields: fields[n:n]}
	if dashes > 0 {
		items := make([]*Node, 2*dashes)
		p.items, p.openItems = items[:0:dashes], items[dashes:dashes]
	}
	root, rest, err := p.block(lines, 0)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, syntaxErr(rest[0].line, "unexpected dedent")
	}
	return root, nil
}

func (p *parser) node(kind Kind, line int, scalar string) *Node {
	p.nodes = append(p.nodes, Node{Kind: kind, Line: line, Scalar: scalar})
	return &p.nodes[len(p.nodes)-1]
}

// block parses lines at exactly `indent` as a mapping or sequence,
// returning the remaining (shallower) lines.
func (p *parser) block(lines []rawLine, indent int) (*Node, []rawLine, error) {
	if isDashItem(lines[0].text) {
		return p.seq(lines, indent)
	}
	return p.mapping(lines, indent)
}

func isDashItem(text string) bool {
	return text == "-" || strings.HasPrefix(text, "- ")
}

// seq consumes "- " items at `indent`.
func (p *parser) seq(lines []rawLine, indent int) (*Node, []rawLine, error) {
	seq := p.node(Seq, lines[0].line, "")
	open := len(p.openItems)
	for len(lines) > 0 {
		l := lines[0]
		if l.indent < indent {
			break
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
				p.openItems = append(p.openItems, p.node(Scalar, l.line, cleanScalar(inline)))
				continue
			}
		}
		item, rest, err := p.mapping(itemLines, itemIndent)
		if err != nil {
			return nil, nil, err
		}
		if len(rest) != 0 {
			return nil, nil, syntaxErr(rest[0].line, "unexpected dedent")
		}
		item.Line = l.line
		p.openItems = append(p.openItems, item)
	}
	start := len(p.items)
	p.items = append(p.items, p.openItems[open:]...)
	seq.Items = p.items[start:len(p.items):len(p.items)]
	p.openItems = p.openItems[:open]
	return seq, lines, nil
}

// mapping consumes "key: value" / "key:" lines at exactly `indent`.
func (p *parser) mapping(lines []rawLine, indent int) (*Node, []rawLine, error) {
	m := p.node(Map, lines[0].line, "")
	open := len(p.openFields)
	for len(lines) > 0 {
		l := lines[0]
		if l.indent < indent {
			break
		}
		if l.indent > indent {
			return nil, nil, syntaxErr(l.line, "unexpected indent")
		}
		key, val, ok := splitKV(l.text)
		if !ok {
			return nil, nil, syntaxErr(l.line, "expected \"key: value\" or \"key:\", got %q", l.text)
		}
		for _, f := range p.openFields[open:] {
			if f.Key == key {
				return nil, nil, syntaxErr(l.line, "duplicate key %q", key)
			}
		}
		lines = lines[1:]
		// "key:" — block child if deeper lines follow, else empty scalar.
		var child *Node
		if val == "" && len(lines) > 0 && lines[0].indent > indent {
			var err error
			if child, lines, err = p.block(lines, lines[0].indent); err != nil {
				return nil, nil, err
			}
		} else {
			child = p.node(Scalar, l.line, val)
		}
		p.openFields = append(p.openFields, Field{Key: key, Val: child})
	}
	start := len(p.fields)
	p.fields = append(p.fields, p.openFields[open:]...)
	m.Fields = p.fields[start:len(p.fields):len(p.fields)]
	p.openFields = p.openFields[:open]
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
