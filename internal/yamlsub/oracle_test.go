package yamlsub

import (
	"bufio"
	"errors"
	"io"
	"strings"
)

// oracleParseDocs is the parser ParseDocs replaced, kept as its test
// oracle: a bufio.Scanner over the stream, a string per line, a node per
// value, and mappings and sequences grown by append. FuzzParseDocs holds
// ParseDocs to the same trees and the same error text.
func oracleParseDocs(r io.Reader) ([]*Node, error) {
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
		root, rest, err := oracleBlock(lines, 0)
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

// oracleBlock parses lines at exactly `indent` as a mapping or sequence,
// returning the remaining (shallower) lines.
func oracleBlock(lines []rawLine, indent int) (*Node, []rawLine, error) {
	if isDashItem(lines[0].text) {
		return oracleSeq(lines, indent)
	}
	return oracleMap(lines, indent)
}

// oracleSeq consumes "- " items at `indent`.
func oracleSeq(lines []rawLine, indent int) (*Node, []rawLine, error) {
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
		item, rest, err := oracleMap(itemLines, itemIndent)
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

// oracleMap consumes "key: value" / "key:" lines at exactly `indent`.
func oracleMap(lines []rawLine, indent int) (*Node, []rawLine, error) {
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
			if child, lines, err = oracleBlock(lines, lines[0].indent); err != nil {
				return nil, nil, err
			}
		} else {
			child = &Node{Line: l.line, Scalar: val}
		}
		m.Fields = append(m.Fields, Field{Key: key, Val: child})
	}
	return m, lines, nil
}
