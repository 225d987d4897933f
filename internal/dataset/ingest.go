package dataset

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/graph"
)

// IngestOptions tune dataset construction.
type IngestOptions struct {
	// SegmentEdges is the target edges per segment (DefaultSegmentEdges when
	// zero). Smaller segments lower the reader's resident-memory floor at the
	// cost of more per-segment overhead.
	SegmentEdges int
	// Source is a provenance string recorded in the manifest (a file path,
	// URL, or generator spec).
	Source string
}

func (o IngestOptions) segmentEdges() int {
	if o.SegmentEdges <= 0 {
		return DefaultSegmentEdges
	}
	return o.SegmentEdges
}

// Builder writes a dataset incrementally: edges go straight through the
// varint-delta encoder into the data file (tee'd through sha256), so building
// a dataset never holds more than one segment of edges in memory. Finish
// writes the manifest atomically (tmp+rename); a crashed build leaves no
// manifest, so a half-written directory can never be Opened.
type Builder struct {
	dir      string
	f        *os.File
	w        *bufio.Writer
	h        hash.Hash
	segEdges int
	pending  []graph.Edge
	segments []Segment
	off      int64
	m        int
	maxID    graph.ID
	enc      []byte
	done     bool
}

// NewBuilder starts a dataset build in dir, creating the directory if
// needed. The data file is truncated immediately, so build into a fresh
// directory when an existing dataset must survive a failed build; the
// manifest, by contrast, only appears once Finish succeeds.
func NewBuilder(dir string, opts IngestOptions) (*Builder, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: build %s: %w", dir, err)
	}
	f, err := os.Create(filepath.Join(dir, DataName))
	if err != nil {
		return nil, fmt.Errorf("dataset: build %s: %w", dir, err)
	}
	return &Builder{
		dir:      dir,
		f:        f,
		w:        bufio.NewWriterSize(f, 1<<20),
		h:        sha256.New(),
		segEdges: opts.segmentEdges(),
		maxID:    -1,
	}, nil
}

// Add appends edges to the dataset in order. Semantic checks (id ranges,
// self-loops, duplicates) belong to the caller — Ingest runs them through
// the lenient parser and its duplicate pass, generators are trusted; Finish
// still cross-checks endpoints against the declared vertex count.
func (b *Builder) Add(edges ...graph.Edge) error {
	if b.done {
		return fmt.Errorf("dataset: build %s: Add after Finish", b.dir)
	}
	for _, e := range edges {
		b.pending = append(b.pending, e)
		if e.U > b.maxID {
			b.maxID = e.U
		}
		if e.V > b.maxID {
			b.maxID = e.V
		}
		if len(b.pending) >= b.segEdges {
			if err := b.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush encodes the pending edges as one segment block.
func (b *Builder) flush() error {
	if len(b.pending) == 0 {
		return nil
	}
	b.enc = graph.AppendEdgeBatch(b.enc[:0], b.pending)
	if _, err := b.w.Write(b.enc); err != nil {
		return fmt.Errorf("dataset: build %s: %w", b.dir, err)
	}
	b.h.Write(b.enc)
	b.segments = append(b.segments, Segment{Offset: b.off, Length: len(b.enc), Edges: len(b.pending)})
	b.off += int64(len(b.enc))
	b.m += len(b.pending)
	b.pending = b.pending[:0]
	return nil
}

// Abort discards a build in progress, closing and best-effort removing the
// partial data file. Safe to call after Finish (no-op).
func (b *Builder) Abort() {
	if b.done {
		return
	}
	b.done = true
	b.f.Close()
	os.Remove(filepath.Join(b.dir, DataName))
}

// Finish flushes the final segment, syncs the data file, and atomically
// writes the manifest. n is the dataset's vertex count; when n < 0 it is
// inferred as 1 + the largest endpoint seen. selfLoops/duplicates record what
// ingestion dropped (zero for trusted inputs).
func (b *Builder) Finish(n int, source string, selfLoops, duplicates int) (*Manifest, error) {
	if b.done {
		return nil, fmt.Errorf("dataset: build %s: Finish twice", b.dir)
	}
	b.done = true
	if err := b.flush(); err != nil {
		b.f.Close()
		return nil, err
	}
	if err := b.w.Flush(); err != nil {
		b.f.Close()
		return nil, fmt.Errorf("dataset: build %s: %w", b.dir, err)
	}
	if err := b.f.Sync(); err != nil {
		b.f.Close()
		return nil, fmt.Errorf("dataset: build %s: %w", b.dir, err)
	}
	if err := b.f.Close(); err != nil {
		return nil, fmt.Errorf("dataset: build %s: %w", b.dir, err)
	}
	if n < 0 {
		n = int(b.maxID) + 1
	} else if b.maxID >= graph.ID(n) {
		return nil, fmt.Errorf("dataset: build %s: endpoint %d out of declared range [0,%d)", b.dir, b.maxID, n)
	}
	man := &Manifest{
		Format:     FormatVersion,
		N:          n,
		M:          b.m,
		Bytes:      b.off,
		Hash:       hex.EncodeToString(b.h.Sum(nil)),
		Segments:   b.segments,
		Source:     source,
		SelfLoops:  selfLoops,
		Duplicates: duplicates,
	}
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("dataset: build %s: %w", b.dir, err)
	}
	tmp := filepath.Join(b.dir, ManifestName+".tmp")
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("dataset: build %s: %w", b.dir, err)
	}
	if err := os.Rename(tmp, filepath.Join(b.dir, ManifestName)); err != nil {
		return nil, fmt.Errorf("dataset: build %s: %w", b.dir, err)
	}
	return man, nil
}

// Ingest parses a SNAP-style edge list from r with the lenient parser
// (tabs/CRLF/comments tolerated; self-loops and duplicates dropped and
// recorded in the manifest) and stores it as a dataset in dir. The edge list
// is never materialized: edges flow from the parser straight into segment
// blocks, and duplicate detection keeps one 8-byte key per edge (edgeKeys),
// sorted after the last line rather than probed per line, so ingestion
// memory is one segment plus 8 bytes per input edge. Repeats of a canonical
// {u,v} pair ("1 2" then "2 1" included) are dropped after their first
// occurrence in input order. An input without repeats is written once;
// otherwise the data file just written, never the input (which may be
// stdin), is re-read and re-encoded without them.
func Ingest(dir string, r io.Reader, opts IngestOptions) (*Manifest, error) {
	b, err := NewBuilder(dir, opts)
	if err != nil {
		return nil, err
	}
	p := graph.NewLenientEdgeListParser(r)
	var keys edgeKeys
	for {
		e, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Abort()
			return nil, fmt.Errorf("dataset: ingest into %s: %w", dir, err)
		}
		keys.add(e)
		if err := b.Add(e); err != nil {
			b.Abort()
			return nil, err
		}
	}
	duplicates := keys.markRepeats()
	if duplicates > 0 {
		if b, err = b.rewrite(opts, keys.repeat); err != nil {
			return nil, err
		}
	}
	return b.Finish(p.NumVertices(), opts.Source, p.SelfLoops(), duplicates)
}

// keyParts is how many partitions edgeKeys hashes keys into: enough that a
// partition of a million-edge input sorts in cache, few enough that the
// partitions' write and read cursors stay in cache while edges stream.
const keyParts = 256

// repeatBit marks a key that repeats an earlier one; canonical keys never
// set it, since an ID has 31 bits.
const repeatBit = 1 << 63

// edgeKeys finds repeated edges with one sort instead of a probe per edge.
// Each edge's key goes, in input order, to one of keyParts partitions chosen
// by a hash of the key, so equal keys share a partition. After the last edge
// the partitions are sorted one by one — together, one sort of every key,
// partition first, each piece small enough to stay in cache — and equal
// neighbours are the repeats. A walk over the edges in input order then reads
// each partition's keys back in the order they were added.
type edgeKeys struct {
	parts [keyParts][]uint64
	next  [keyParts]int // read cursors of repeat
}

// edgeKey packs a canonical edge into one integer.
func edgeKey(e graph.Edge) uint64 { return uint64(e.U)<<32 | uint64(e.V) }

func keyPart(k uint64) int { return int((k * 0x9e3779b97f4a7c15) >> 56) }

// add appends e's key to its partition.
func (s *edgeKeys) add(e graph.Edge) {
	k := edgeKey(e)
	p := keyPart(k)
	s.parts[p] = append(s.parts[p], k)
}

// markRepeats sets repeatBit on every key that equals one added before it
// and returns how many it marked. Each partition is sorted in a scratch
// copy; one holding equal neighbours is walked again in input order, each
// key looked up in the sorted copy to see whether it was met before.
func (s *edgeKeys) markRepeats() int {
	var sorted, met []uint64
	repeats := 0
	for _, part := range s.parts {
		sorted = append(sorted[:0], part...)
		slices.Sort(sorted)
		if !hasEqualNeighbours(sorted) {
			continue
		}
		words := (len(sorted) + 63) / 64
		met = slices.Grow(met[:0], words)[:words]
		clear(met)
		for j, k := range part {
			i, _ := slices.BinarySearch(sorted, k)
			if met[i/64]&(1<<(i%64)) != 0 {
				part[j] |= repeatBit
				repeats++
			} else {
				met[i/64] |= 1 << (i % 64)
			}
		}
	}
	return repeats
}

func hasEqualNeighbours(sorted []uint64) bool {
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return true
		}
	}
	return false
}

// repeat reports whether e, the next edge in input order, was marked a
// repeat. Edges must come in the order they were added; one out of that
// order is an error.
func (s *edgeKeys) repeat(e graph.Edge) (bool, error) {
	k := edgeKey(e)
	p := keyPart(k)
	i := s.next[p]
	if i == len(s.parts[p]) || s.parts[p][i]&^repeatBit != k {
		return false, fmt.Errorf("edge %v was not ingested at this position", e)
	}
	s.next[p]++
	return s.parts[p][i]&repeatBit != 0, nil
}

// rewrite replaces the data file b has written with one holding the same
// edges, in the same order, less those drop reports: b's file is renamed
// aside and re-read segment by segment into a fresh builder over the same
// directory, which is returned. b is done with either way.
func (b *Builder) rewrite(opts IngestOptions, drop func(graph.Edge) (bool, error)) (*Builder, error) {
	if err := b.flush(); err != nil {
		b.Abort()
		return nil, err
	}
	data, raw := filepath.Join(b.dir, DataName), filepath.Join(b.dir, DataName+".raw")
	b.done = true
	defer b.f.Close()
	err := b.w.Flush()
	if err == nil {
		err = os.Rename(data, raw)
	}
	if err != nil {
		os.Remove(data)
		return nil, fmt.Errorf("dataset: build %s: %w", b.dir, err)
	}
	defer os.Remove(raw)
	out, err := NewBuilder(b.dir, opts)
	if err != nil {
		return nil, err
	}
	if err := b.copyTo(out, drop); err != nil {
		out.Abort()
		return nil, err
	}
	return out, nil
}

// copyTo adds to out every edge b has written that drop does not report.
func (b *Builder) copyTo(out *Builder, drop func(graph.Edge) (bool, error)) error {
	var enc []byte
	var edges []graph.Edge
	for _, s := range b.segments {
		enc = slices.Grow(enc[:0], s.Length)[:s.Length]
		_, err := b.f.ReadAt(enc, s.Offset)
		if err == nil {
			edges, _, err = graph.DecodeEdgeBatchInto(edges, enc)
		}
		if err != nil {
			return fmt.Errorf("dataset: build %s: re-reading %s: %w", b.dir, DataName, err)
		}
		for _, e := range edges {
			skip, err := drop(e)
			if err != nil {
				return fmt.Errorf("dataset: build %s: re-reading %s: %w", b.dir, DataName, err)
			}
			if skip {
				continue
			}
			if err := out.Add(e); err != nil {
				return err
			}
		}
	}
	return nil
}

// IngestFile ingests the edge-list file at path, recording the path as the
// manifest source (unless opts.Source overrides it).
func IngestFile(dir, path string, opts IngestOptions) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: ingest: %w", err)
	}
	defer f.Close()
	if opts.Source == "" {
		opts.Source = path
	}
	return Ingest(dir, bufio.NewReaderSize(f, 1<<20), opts)
}
