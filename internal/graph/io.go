package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// Text edge-list format, compatible with the common "SNAP-like" layout:
//
//	# comment lines start with '#' or '%'
//	p <n> <m>        (optional header; n inferred from edges if absent)
//	u v              (one edge per line, 0-based vertex ids)
//
// Fields are separated by any run of whitespace — the set strings.Fields
// splits on, Unicode spaces such as U+00A0 included — and lines may end in
// CRLF; both are common in published SNAP dumps. The cmd/coreset tool reads
// and writes this format. Parsing is incremental: EdgeListParser yields one
// edge at a time so the streaming runtime (internal/stream) can shard a graph
// without ever materializing it, and ReadEdgeList is a thin accumulator on
// top of the same parser, so batch and streaming consumers accept exactly the
// same inputs. Lines are split and plain-digit ids parsed inside the
// scanner's buffer, so a line costs no allocation.
//
// Real-world dumps are messier than the strict format: they carry self-loops,
// repeated edges and extra columns (weights, timestamps). The lenient parser
// (NewLenientEdgeListParser) absorbs the per-line mess — dropped self-loops
// are counted, extra columns are ignored — and yields repeated edges as
// they come; removing those is a whole-input question, which the dataset
// ingestion path (internal/dataset) answers with one sort after the last
// line.

// WriteEdgeList writes g in the text format above, with a header line.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "p %d %d\n", g.N, len(g.Edges)); err != nil {
		return err
	}
	for _, e := range g.Edges {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// EdgeListParser incrementally parses the text edge-list format. It validates
// as it goes — self-loops, out-of-range ids and header mismatches fail on the
// offending line, never by panicking — and holds O(1) state beyond the
// scanner buffer in both modes, so arbitrarily large graphs can be parsed in
// a stream.
//
// The constructor reads ahead to the first edge (skipping comments and the
// header), so HasHeader and the header-declared vertex count are known before
// the first call to Next.
type EdgeListParser struct {
	sc       *bufio.Scanner
	lineNo   int
	header   bool
	n        int // header vertex count (valid iff header)
	declared int // header edge count (valid iff header)
	count    int // edges returned so far
	maxID    ID  // largest endpoint seen
	pending  Edge
	hasPend  bool
	err      error // sticky: io.EOF after a clean end, else the parse error

	// Lenient mode: messy-but-sane lines are dropped and counted instead of
	// failing the parse.
	lenient   bool
	selfLoops int
}

// NewEdgeListParser returns a strict parser over r: self-loops, duplicate
// header lines and malformed edges all fail on the offending line. Errors on
// the first line (and end-of-input) are reported by the first call to Next,
// not here.
func NewEdgeListParser(r io.Reader) *EdgeListParser {
	return newParser(r, false)
}

// NewLenientEdgeListParser returns a parser tolerant of real-world SNAP
// dumps: self-loops are dropped and counted (SelfLoops) instead of failing,
// extra columns after "u v" (weights, timestamps) are ignored, and a header's
// edge count is not held against the lines that follow. Repeated edges are
// yielded like any other, as the strict parser yields them; dataset.Ingest
// removes them. Malformed ids and header violations still fail — leniency
// absorbs messy data, not corrupt data.
func NewLenientEdgeListParser(r io.Reader) *EdgeListParser {
	return newParser(r, true)
}

func newParser(r io.Reader, lenient bool) *EdgeListParser {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	p := &EdgeListParser{sc: sc, maxID: -1, lenient: lenient}
	// Read ahead so header information is available immediately.
	e, err := p.scan()
	if err != nil {
		p.err = err
		return p
	}
	p.pending, p.hasPend = e, true
	return p
}

// Next returns the next edge, canonicalized, or io.EOF at a clean end of
// input. Any other error is a parse or read failure; errors are sticky.
func (p *EdgeListParser) Next() (Edge, error) {
	if p.hasPend {
		p.hasPend = false
		return p.pending, nil
	}
	if p.err != nil {
		return Edge{}, p.err
	}
	e, err := p.scan()
	if err != nil {
		p.err = err
		return Edge{}, err
	}
	return e, nil
}

// scan advances to the next edge line. A line is trimmed and split exactly
// as strings.TrimSpace and strings.Fields would (so single-space,
// tab-separated and aligned multi-space layouts all parse, and CR from CRLF
// endings is trimmed), but inside the scanner's buffer: a line is copied
// only into an error message, or into strconv for an id that is not plain
// digits.
func (p *EdgeListParser) scan() (Edge, error) {
	for p.sc.Scan() {
		p.lineNo++
		line := bytes.TrimSpace(p.sc.Bytes())
		if len(line) == 0 || line[0] == '#' || line[0] == '%' {
			continue
		}
		// line is trimmed, so a field is followed by another one exactly
		// when rest is not empty.
		f0, rest := nextField(line)
		f1, rest := nextField(rest)
		f2, rest := nextField(rest)
		fields := 1
		switch {
		case len(rest) > 0:
			fields = 4 // or more
		case len(f2) > 0:
			fields = 3
		case len(f1) > 0:
			fields = 2
		}
		if len(f0) == 1 && f0[0] == 'p' {
			if p.header || p.count > 0 {
				return Edge{}, fmt.Errorf("graph: line %d: unexpected extra header %q", p.lineNo, line)
			}
			if fields != 3 {
				return Edge{}, fmt.Errorf("graph: line %d: bad header %q: want \"p <n> <m>\"", p.lineNo, line)
			}
			n, err1 := strconv.Atoi(string(f1))
			m, err2 := strconv.Atoi(string(f2))
			if err1 != nil || err2 != nil {
				return Edge{}, fmt.Errorf("graph: line %d: bad header %q: non-numeric sizes", p.lineNo, line)
			}
			if n < 0 || m < 0 {
				return Edge{}, fmt.Errorf("graph: line %d: negative sizes in header %q", p.lineNo, line)
			}
			p.n, p.declared, p.header = n, m, true
			continue
		}
		// Strict mode demands exactly "u v"; lenient mode ignores extra
		// columns (weighted or timestamped dumps).
		if fields != 2 && !(p.lenient && fields > 2) {
			return Edge{}, fmt.Errorf("graph: line %d: bad edge %q: want \"u v\"", p.lineNo, line)
		}
		u, err1 := parseInt(f0)
		v, err2 := parseInt(f1)
		if err1 != nil || err2 != nil {
			return Edge{}, fmt.Errorf("graph: line %d: bad edge %q: non-numeric endpoint", p.lineNo, line)
		}
		if u < 0 || v < 0 || u > int64(MaxID) || v > int64(MaxID) {
			return Edge{}, fmt.Errorf("graph: line %d: vertex id out of range in %q", p.lineNo, line)
		}
		if u == v {
			if p.lenient {
				p.selfLoops++
				continue
			}
			return Edge{}, fmt.Errorf("graph: line %d: self-loop %q", p.lineNo, line)
		}
		e := Edge{ID(u), ID(v)}.Canon()
		if p.header && int(e.V) >= p.n {
			return Edge{}, fmt.Errorf("graph: line %d: edge %q out of declared range [0,%d)", p.lineNo, line, p.n)
		}
		if e.V > p.maxID {
			p.maxID = e.V
		}
		p.count++
		return e, nil
	}
	if err := p.sc.Err(); err != nil {
		return Edge{}, err
	}
	// Strict mode holds the header to its word. Lenient mode does not: a
	// dump whose header counts the raw lines disagrees with the kept-edge
	// count as soon as a self-loop was dropped.
	if p.header && !p.lenient && p.count != p.declared {
		return Edge{}, fmt.Errorf("graph: header declared %d edges, found %d", p.declared, p.count)
	}
	return Edge{}, io.EOF
}

// nextField returns the first whitespace-separated field of b and what
// follows it, splitting where strings.Fields splits: on the ASCII spaces
// "\t\n\v\f\r " and on any rune unicode.IsSpace accepts, decoded as
// utf8.DecodeRune decodes it (an invalid byte is one non-space rune).
func nextField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) {
		if c := b[i]; c < utf8.RuneSelf {
			if asciiSpace[c] == 0 {
				break
			}
			i++
		} else if w := unicodeSpace(b[i:]); w > 0 {
			i += w
		} else {
			break
		}
	}
	start := i
	for i < len(b) {
		if c := b[i]; c < utf8.RuneSelf {
			if asciiSpace[c] != 0 {
				break
			}
			i++
		} else if unicodeSpace(b[i:]) > 0 {
			break
		} else {
			_, w := utf8.DecodeRune(b[i:])
			i += w
		}
	}
	return b[start:i], b[i:]
}

var asciiSpace = [utf8.RuneSelf]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// unicodeSpace returns the byte length of the non-ASCII whitespace rune b
// starts with, or 0 when it starts with anything else.
func unicodeSpace(b []byte) int {
	if r, w := utf8.DecodeRune(b); unicode.IsSpace(r) {
		return w
	}
	return 0
}

// parseInt is strconv.ParseInt(string(b), 10, 64) without the copy for the
// common case, a run of at most 18 decimal digits (which cannot overflow);
// anything else — a sign, more digits, a stray byte — goes to strconv, so
// what parses and what fails is exactly what strconv decides.
func parseInt(b []byte) (int64, error) {
	if len(b) == 0 || len(b) > 18 {
		return strconv.ParseInt(string(b), 10, 64)
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return strconv.ParseInt(string(b), 10, 64)
		}
		v = v*10 + int64(c-'0')
	}
	return v, nil
}

// HasHeader reports whether a "p <n> <m>" header was seen; when true,
// NumVertices is exact before the stream is drained.
func (p *EdgeListParser) HasHeader() bool { return p.header }

// Declared returns the header's edge count, or -1 without a header.
func (p *EdgeListParser) Declared() int {
	if !p.header {
		return -1
	}
	return p.declared
}

// NumVertices returns the header's vertex count, or 1 + the largest endpoint
// seen so far (authoritative only once Next has returned io.EOF).
func (p *EdgeListParser) NumVertices() int {
	if p.header {
		return p.n
	}
	return int(p.maxID) + 1
}

// Count returns the number of edges yielded so far.
func (p *EdgeListParser) Count() int { return p.count }

// SelfLoops returns how many self-loop lines a lenient parser has dropped so
// far (always 0 in strict mode, where the first self-loop is an error).
func (p *EdgeListParser) SelfLoops() int { return p.selfLoops }

// ReadEdgeList parses the text format above into a materialized graph. If no
// header is present, N is set to 1 + the maximum vertex id seen (0 for an
// empty input).
func ReadEdgeList(r io.Reader) (*Graph, error) {
	p := NewEdgeListParser(r)
	var edges []Edge
	if p.HasHeader() {
		// The declared count comes from the input: it sizes the first
		// allocation only up to a bound, so "p 2 4611686018427387904" is
		// refused at EOF instead of panicking in make.
		edges = make([]Edge, 0, min(p.Declared(), 1<<16))
	}
	for {
		e, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		edges = append(edges, e)
	}
	g := &Graph{N: p.NumVertices(), Edges: edges}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
