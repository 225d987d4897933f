package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// ingestReference is Ingest as it was before duplicate removal moved out of
// the parser, kept as a test-only oracle: refParser is the lenient
// edge-list parser of that time (strings.TrimSpace, strings.Fields and
// strconv on every line's copy) with its map of every edge yielded, and each
// kept edge goes straight to the Builder. FuzzIngest demands that Ingest
// write the same edges.seg and manifest.json and fail with the same error
// text.
func ingestReference(dir string, r io.Reader, opts IngestOptions) (*Manifest, error) {
	b, err := NewBuilder(dir, opts)
	if err != nil {
		return nil, err
	}
	p := &refParser{sc: bufio.NewScanner(r), maxID: -1, seen: make(map[graph.Edge]struct{})}
	p.sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for {
		e, err := p.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Abort()
			return nil, fmt.Errorf("dataset: ingest into %s: %w", dir, err)
		}
		if err := b.Add(e); err != nil {
			b.Abort()
			return nil, err
		}
	}
	return b.Finish(p.numVertices(), opts.Source, p.selfLoops, p.duplicates)
}

type refParser struct {
	sc         *bufio.Scanner
	lineNo     int
	header     bool
	n          int
	count      int
	maxID      graph.ID
	seen       map[graph.Edge]struct{}
	selfLoops  int
	duplicates int
}

func (p *refParser) numVertices() int {
	if p.header {
		return p.n
	}
	return int(p.maxID) + 1
}

func (p *refParser) next() (graph.Edge, error) {
	for p.sc.Scan() {
		p.lineNo++
		line := strings.TrimSpace(p.sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "p" {
			if p.header || p.count > 0 {
				return graph.Edge{}, fmt.Errorf("graph: line %d: unexpected extra header %q", p.lineNo, line)
			}
			if len(fields) != 3 {
				return graph.Edge{}, fmt.Errorf("graph: line %d: bad header %q: want \"p <n> <m>\"", p.lineNo, line)
			}
			n, err1 := strconv.Atoi(fields[1])
			m, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return graph.Edge{}, fmt.Errorf("graph: line %d: bad header %q: non-numeric sizes", p.lineNo, line)
			}
			if n < 0 || m < 0 {
				return graph.Edge{}, fmt.Errorf("graph: line %d: negative sizes in header %q", p.lineNo, line)
			}
			p.n, p.header = n, true
			continue
		}
		if len(fields) < 2 {
			return graph.Edge{}, fmt.Errorf("graph: line %d: bad edge %q: want \"u v\"", p.lineNo, line)
		}
		u, err1 := strconv.ParseInt(fields[0], 10, 64)
		v, err2 := strconv.ParseInt(fields[1], 10, 64)
		if err1 != nil || err2 != nil {
			return graph.Edge{}, fmt.Errorf("graph: line %d: bad edge %q: non-numeric endpoint", p.lineNo, line)
		}
		if u < 0 || v < 0 || u > int64(graph.MaxID) || v > int64(graph.MaxID) {
			return graph.Edge{}, fmt.Errorf("graph: line %d: vertex id out of range in %q", p.lineNo, line)
		}
		if u == v {
			p.selfLoops++
			continue
		}
		e := graph.Edge{U: graph.ID(u), V: graph.ID(v)}.Canon()
		if p.header && int(e.V) >= p.n {
			return graph.Edge{}, fmt.Errorf("graph: line %d: edge %q out of declared range [0,%d)", p.lineNo, line, p.n)
		}
		if _, dup := p.seen[e]; dup {
			p.duplicates++
			continue
		}
		p.seen[e] = struct{}{}
		if e.V > p.maxID {
			p.maxID = e.V
		}
		p.count++
		return e, nil
	}
	if err := p.sc.Err(); err != nil {
		return graph.Edge{}, err
	}
	return graph.Edge{}, io.EOF
}
