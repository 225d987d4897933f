package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text edge-list format, compatible with the common "SNAP-like" layout:
//
//	# comment lines start with '#' or '%'
//	p <n> <m>        (optional header; n inferred from edges if absent)
//	u v              (one edge per line, 0-based vertex ids)
//
// Fields are separated by any run of spaces or tabs, and lines may end in
// CRLF — both are common in published SNAP dumps. The cmd/coreset tool reads
// and writes this format. Parsing is incremental: EdgeListParser yields one
// edge at a time so the streaming runtime (internal/stream) can shard a graph
// without ever materializing it, and ReadEdgeList is a thin accumulator on
// top of the same parser, so batch and streaming consumers accept exactly the
// same inputs.
//
// Real-world dumps are messier than the strict format: they carry self-loops,
// repeated edges and extra columns (weights, timestamps). The lenient parser
// (NewLenientEdgeListParser) absorbs those — dropped self-loops and
// duplicates are surfaced as counts, extra columns are ignored — which is
// what the dataset ingestion path (internal/dataset) runs.

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
// scanner buffer, so arbitrarily large graphs can be parsed in a stream.
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
	// failing the parse. seen holds every canonical edge yielded so far, so
	// duplicate suppression costs O(m) memory — acceptable for ingestion,
	// which runs once per dataset, but not free; strict mode stays O(1).
	lenient    bool
	seen       map[Edge]struct{}
	selfLoops  int
	duplicates int
}

// NewEdgeListParser returns a strict parser over r: self-loops, duplicate
// header lines and malformed edges all fail on the offending line. Errors on
// the first line (and end-of-input) are reported by the first call to Next,
// not here.
func NewEdgeListParser(r io.Reader) *EdgeListParser {
	return newParser(r, false)
}

// NewLenientEdgeListParser returns a parser tolerant of real-world SNAP
// dumps: self-loops and repeated edges are dropped and counted (SelfLoops,
// Duplicates) instead of failing, and extra columns after "u v" (weights,
// timestamps) are ignored. Malformed ids and header violations still fail —
// leniency absorbs messy data, not corrupt data. Duplicate suppression keeps
// a set of every edge yielded, so this mode holds O(m) memory.
func NewLenientEdgeListParser(r io.Reader) *EdgeListParser {
	return newParser(r, true)
}

func newParser(r io.Reader, lenient bool) *EdgeListParser {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	p := &EdgeListParser{sc: sc, maxID: -1, lenient: lenient}
	if lenient {
		p.seen = make(map[Edge]struct{})
	}
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

// scan advances to the next edge line. Lines are split on any run of spaces
// or tabs (strings.Fields), so single-space, tab-separated and aligned
// multi-space layouts all parse; TrimSpace strips CR from CRLF line endings.
func (p *EdgeListParser) scan() (Edge, error) {
	for p.sc.Scan() {
		p.lineNo++
		line := strings.TrimSpace(p.sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "p" {
			if p.header || p.count > 0 {
				return Edge{}, fmt.Errorf("graph: line %d: unexpected extra header %q", p.lineNo, line)
			}
			if len(fields) != 3 {
				return Edge{}, fmt.Errorf("graph: line %d: bad header %q: want \"p <n> <m>\"", p.lineNo, line)
			}
			n, err1 := strconv.Atoi(fields[1])
			m, err2 := strconv.Atoi(fields[2])
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
		if len(fields) != 2 && !(p.lenient && len(fields) > 2) {
			return Edge{}, fmt.Errorf("graph: line %d: bad edge %q: want \"u v\"", p.lineNo, line)
		}
		u, err1 := strconv.ParseInt(fields[0], 10, 64)
		v, err2 := strconv.ParseInt(fields[1], 10, 64)
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
		if p.lenient {
			if _, dup := p.seen[e]; dup {
				p.duplicates++
				continue
			}
			p.seen[e] = struct{}{}
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
	// count as soon as a duplicate or self-loop was dropped.
	if p.header && !p.lenient && p.count != p.declared {
		return Edge{}, fmt.Errorf("graph: header declared %d edges, found %d", p.declared, p.count)
	}
	return Edge{}, io.EOF
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

// Duplicates returns how many repeated edges a lenient parser has dropped so
// far — repeats of the same canonical {u,v} pair, so "1 2" and "2 1" count as
// the same edge. Always 0 in strict mode, which admits parallel edges just
// like Graph.Validate.
func (p *EdgeListParser) Duplicates() int { return p.duplicates }

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
