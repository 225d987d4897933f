package stream

import (
	"fmt"
	"io"

	"repro/internal/gen"
	"repro/internal/graph"
)

// EdgeSource streams the edges of a graph in caller-sized batches. It is the
// runtime's only view of the input: nothing downstream of a source ever holds
// the full edge list, which is what makes the pipeline run in the paper's
// per-machine space regime.
type EdgeSource interface {
	// Next fills buf with up to len(buf) edges and returns how many were
	// written. It returns io.EOF (with a count of 0) once the stream is
	// exhausted, and any parse/read error otherwise.
	Next(buf []graph.Edge) (int, error)
	// NumVertices returns the number of vertices. It is authoritative once
	// Next has returned io.EOF; before that it is authoritative iff
	// KnownUpfront reports true.
	NumVertices() int
	// KnownUpfront reports whether NumVertices is exact before the stream is
	// drained (true for generators, slices and headered edge lists; false
	// for headerless edge lists, where n is 1 + the largest id seen).
	KnownUpfront() bool
}

// NotRestartableError reports that a retry/replay path asked a source to
// Restart but the source cannot rewind. Source names the concrete source
// kind (e.g. "stream.ReaderSource over non-seekable *os.File"), so a failed
// replay says which input to fix — register a dataset or a seekable file —
// instead of a generic "cannot restart".
type NotRestartableError struct {
	// Source identifies the offending source kind.
	Source string
}

func (e *NotRestartableError) Error() string {
	return fmt.Sprintf("stream: source %s is not restartable; replay needs a dataset, slice, generator, or seekable reader", e.Source)
}

// Restartable is the optional EdgeSource extension behind cluster round
// replay: a source that can rewind and deliver the identical edge sequence
// again. Since cluster sharding is a seeded hash over that sequence, a
// restartable source lets the coordinator regenerate any single machine's
// shard deterministically after a worker loss. All sources in this package
// implement it (ReaderSource only over seekable readers).
type Restartable interface {
	EdgeSource
	// Restart rewinds the source to the beginning of its stream. After a nil
	// return, Next replays the exact edge sequence already delivered.
	Restart() error
}

// SliceSource streams an in-memory edge slice. It is the bridge from
// materialized graphs (and the reference source for parity tests: edges are
// delivered exactly in slice order).
type SliceSource struct {
	n     int
	edges []graph.Edge
	pos   int
}

// NewSliceSource returns a source over (n, edges). The slice is not copied.
func NewSliceSource(n int, edges []graph.Edge) *SliceSource {
	return &SliceSource{n: n, edges: edges}
}

// NewGraphSource returns a source streaming g's edge list.
func NewGraphSource(g *graph.Graph) *SliceSource {
	return NewSliceSource(g.N, g.Edges)
}

func (s *SliceSource) Next(buf []graph.Edge) (int, error) {
	if s.pos >= len(s.edges) {
		return 0, io.EOF
	}
	c := copy(buf, s.edges[s.pos:])
	s.pos += c
	return c, nil
}

func (s *SliceSource) NumVertices() int   { return s.n }
func (s *SliceSource) KnownUpfront() bool { return true }

// Restart rewinds to the start of the slice.
func (s *SliceSource) Restart() error {
	s.pos = 0
	return nil
}

// Collect drains src into a materialized graph — the batch runtime's view of
// an input. An unread SliceSource hands back its backing slice instead of a
// copy, so collecting an already-materialized graph costs nothing; the
// result is read-only for the caller in that case.
func Collect(src EdgeSource) (*graph.Graph, error) {
	if s, ok := src.(*SliceSource); ok && s.pos == 0 {
		s.pos = len(s.edges)
		return &graph.Graph{N: s.n, Edges: s.edges}, nil
	}
	var edges []graph.Edge
	buf := make([]graph.Edge, 4096)
	for {
		c, err := src.Next(buf)
		edges = append(edges, buf[:c]...)
		if err == io.EOF {
			return &graph.Graph{N: src.NumVertices(), Edges: edges}, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// IterSource adapts a gen.EdgeIter (a synthetic-workload generator with O(1)
// state) into an EdgeSource on a declared vertex universe. The factory mints
// a fresh iterator per pass — generators are seeded, so every pass replays
// the same draw sequence, which makes the source restartable.
type IterSource struct {
	n    int
	mint func() gen.EdgeIter
	it   gen.EdgeIter
	done bool
}

// NewIterSource returns a source over the edges of mint() on n vertices.
// mint must return a fresh iterator over the same edge sequence on every
// call (true for the seeded gen.*Iter constructors when the caller builds
// the generator RNG inside mint).
func NewIterSource(n int, mint func() gen.EdgeIter) *IterSource {
	return &IterSource{n: n, mint: mint, it: mint()}
}

func (s *IterSource) Next(buf []graph.Edge) (int, error) {
	if s.done {
		return 0, io.EOF
	}
	c := 0
	for c < len(buf) {
		e, ok := s.it.Next()
		if !ok {
			s.done = true
			if c == 0 {
				return 0, io.EOF
			}
			return c, nil
		}
		buf[c] = e
		c++
	}
	return c, nil
}

func (s *IterSource) NumVertices() int   { return s.n }
func (s *IterSource) KnownUpfront() bool { return true }

// Restart mints a fresh iterator, replaying the sequence from the start.
func (s *IterSource) Restart() error {
	s.it = s.mint()
	s.done = false
	return nil
}

// ReaderSource streams a text edge list (the cmd/coreset format) from an
// io.Reader via the incremental parser, validating line by line. With a
// "p <n> <m>" header the vertex count is known upfront (enabling the online
// peeling optimization); without one it is inferred as the stream drains.
type ReaderSource struct {
	r    io.Reader
	p    *graph.EdgeListParser
	done bool
}

// NewReaderSource returns a source parsing r incrementally.
func NewReaderSource(r io.Reader) *ReaderSource {
	return &ReaderSource{r: r, p: graph.NewEdgeListParser(r)}
}

func (s *ReaderSource) Next(buf []graph.Edge) (int, error) {
	if s.done {
		return 0, io.EOF
	}
	c := 0
	for c < len(buf) {
		e, err := s.p.Next()
		if err == io.EOF {
			s.done = true
			if c == 0 {
				return 0, io.EOF
			}
			return c, nil
		}
		if err != nil {
			// The whole input is invalid; the partial batch is discarded.
			return 0, err
		}
		buf[c] = e
		c++
	}
	return c, nil
}

func (s *ReaderSource) NumVertices() int   { return s.p.NumVertices() }
func (s *ReaderSource) KnownUpfront() bool { return s.p.HasHeader() }

// Restart rewinds the underlying reader and reparses from the top. It fails
// with a *NotRestartableError when the reader is not seekable (e.g. stdin),
// in which case the source cannot back a replayed cluster round.
func (s *ReaderSource) Restart() error {
	sk, ok := s.r.(io.Seeker)
	if !ok {
		return &NotRestartableError{Source: fmt.Sprintf("stream.ReaderSource over non-seekable %T", s.r)}
	}
	if _, err := sk.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("stream: restart edge list: %w", err)
	}
	s.p = graph.NewEdgeListParser(s.r)
	s.done = false
	return nil
}
