// Package dataset is the repository's disk-backed edge store: the one data
// plane every runtime reads real graphs from. A dataset is a directory
// holding a manifest (manifest.json) and a single data file (edges.seg) of
// concatenated segment blocks, each block an independently decodable
// graph.AppendEdgeBatch varint-delta batch — the same fuzzed codec the
// cluster wire protocol ships, so the on-disk format and the on-wire format
// can never drift.
//
// The design target is graphs larger than RAM: ingestion (ingest.go) builds
// segments incrementally off the lenient edge-list parser without ever
// materializing the edge list, and reads are segment-at-a-time through a
// seek-backed reader (os.File.ReadAt on recorded offsets), so peak resident
// memory is one segment regardless of dataset size. Segment offsets in the
// manifest make any position in the stream directly addressable, which is
// what lets stream.DatasetSource restart a pass in O(1) — the property
// cluster round replay and multi-round resharding need.
//
// The manifest carries a SHA-256 content hash over the data file. Identity
// follows the bytes, not the registration: internal/service derives its
// result-cache keys from the hash, so a re-registered (or re-ingested,
// byte-identical) dataset keeps hitting the same cached results.
package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"

	"repro/internal/graph"
)

const (
	// FormatVersion is the manifest format this package writes and the only
	// one it reads.
	FormatVersion = 1
	// ManifestName and DataName are the two files of a dataset directory.
	ManifestName = "manifest.json"
	DataName     = "edges.seg"
	// DefaultSegmentEdges is the ingestion default: 64Ki edges per segment
	// (~a few hundred KiB encoded) keeps per-segment resident memory small
	// while amortizing the per-segment read.
	DefaultSegmentEdges = 1 << 16
)

// Segment locates one edge batch inside the data file. Offsets are absolute,
// so a reader can decode any segment without touching the ones before it.
type Segment struct {
	Offset int64 `json:"offset"` // byte offset of the batch in edges.seg
	Length int   `json:"length"` // encoded length in bytes
	Edges  int   `json:"edges"`  // edges in the batch
}

// Manifest describes a stored dataset. It is the sole source of truth for
// the dataset's shape: readers trust it (after a size cross-check) and never
// rescan the data file to answer NumVertices/Edges.
type Manifest struct {
	Format   int       `json:"format"`
	N        int       `json:"n"`     // number of vertices
	M        int       `json:"m"`     // number of stored edges
	Bytes    int64     `json:"bytes"` // data file size; must equal the segment sum
	Hash     string    `json:"hash"`  // sha256 hex of the data file
	Segments []Segment `json:"segments"`
	// Ingestion provenance: where the edges came from and what the lenient
	// parser dropped on the way in.
	Source     string `json:"source,omitempty"`
	SelfLoops  int    `json:"selfLoops,omitempty"`
	Duplicates int    `json:"duplicates,omitempty"`
}

// validate cross-checks the manifest's internal consistency.
func (m *Manifest) validate() error {
	if m.Format != FormatVersion {
		return fmt.Errorf("dataset: unsupported format %d (want %d)", m.Format, FormatVersion)
	}
	if m.N < 0 || m.M < 0 {
		return fmt.Errorf("dataset: negative sizes in manifest (n=%d m=%d)", m.N, m.M)
	}
	var off int64
	edges := 0
	for i, s := range m.Segments {
		if s.Offset != off || s.Length <= 0 || s.Edges < 0 {
			return fmt.Errorf("dataset: segment %d malformed (offset %d want %d, length %d, edges %d)",
				i, s.Offset, off, s.Length, s.Edges)
		}
		off += int64(s.Length)
		edges += s.Edges
	}
	if off != m.Bytes {
		return fmt.Errorf("dataset: segments cover %d bytes, manifest declares %d", off, m.Bytes)
	}
	if edges != m.M {
		return fmt.Errorf("dataset: segments hold %d edges, manifest declares %d", edges, m.M)
	}
	return nil
}

// Dataset is an open read handle on a stored dataset. It is safe for
// concurrent readers: segment reads are positioned (ReadAt), so independent
// sources can stream the same dataset simultaneously.
type Dataset struct {
	dir string
	man Manifest
	f   *os.File
	// segReads counts segment decodes over the dataset's lifetime — the
	// observable the zero-re-parse cache tests pin: a cache-served job must
	// not move it.
	segReads atomic.Int64
}

// Open opens the dataset directory dir, reading and validating its manifest
// and cross-checking the data file's size (a full content-hash check is
// Verify, which costs a scan of the file). The returned handle holds the
// data file open until Close.
func Open(dir string) (*Dataset, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("dataset: open %s: %w", dir, err)
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, fmt.Errorf("dataset: %s: corrupt manifest: %w", dir, err)
	}
	if err := man.validate(); err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, dir)
	}
	f, err := os.Open(filepath.Join(dir, DataName))
	if err != nil {
		return nil, fmt.Errorf("dataset: open %s: %w", dir, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("dataset: stat %s: %w", dir, err)
	}
	if fi.Size() != man.Bytes {
		f.Close()
		return nil, fmt.Errorf("dataset: %s: data file is %d bytes, manifest declares %d",
			dir, fi.Size(), man.Bytes)
	}
	return &Dataset{dir: dir, man: man, f: f}, nil
}

// Close releases the data file handle. Reads after Close fail.
func (d *Dataset) Close() error { return d.f.Close() }

// Dir returns the dataset directory.
func (d *Dataset) Dir() string { return d.dir }

// Manifest returns a copy of the manifest (segments shared read-only).
func (d *Dataset) Manifest() Manifest { return d.man }

// NumVertices returns the dataset's vertex count.
func (d *Dataset) NumVertices() int { return d.man.N }

// Edges returns the number of stored edges.
func (d *Dataset) Edges() int { return d.man.M }

// Hash returns the sha256 hex content hash of the data file — the dataset's
// identity for result-cache keying.
func (d *Dataset) Hash() string { return d.man.Hash }

// Segments returns how many segments the data file holds.
func (d *Dataset) Segments() int { return len(d.man.Segments) }

// SegmentEdges returns segment i's edge count without reading it.
func (d *Dataset) SegmentEdges(i int) int { return d.man.Segments[i].Edges }

// SegmentReads returns how many segment decodes this handle has served —
// across every source minted from it. A result served from a cache performs
// zero reads, which is exactly what the service's no-re-parse tests assert.
func (d *Dataset) SegmentReads() int64 { return d.segReads.Load() }

// ReadSegment reads and decodes segment i into a fresh edge slice. scratch,
// when non-nil, is reused for the encoded bytes; pass the previous call's
// scratch to avoid reallocating per segment.
func (d *Dataset) ReadSegment(i int, scratch []byte) (edges []graph.Edge, newScratch []byte, err error) {
	return d.ReadSegmentInto(i, nil, scratch)
}

// ReadSegmentInto is ReadSegment decoding into dst's backing array when it
// is large enough (graph.DecodeEdgeBatchInto): a reader that passes back the
// previous call's edges and scratch walks a whole dataset holding one decoded
// segment and one encoded one, allocating neither again.
func (d *Dataset) ReadSegmentInto(i int, dst []graph.Edge, scratch []byte) (edges []graph.Edge, newScratch []byte, err error) {
	if i < 0 || i >= len(d.man.Segments) {
		return nil, scratch, fmt.Errorf("dataset: segment %d out of range [0,%d)", i, len(d.man.Segments))
	}
	seg := d.man.Segments[i]
	if cap(scratch) < seg.Length {
		scratch = make([]byte, seg.Length)
	}
	scratch = scratch[:seg.Length]
	if _, err := d.f.ReadAt(scratch, seg.Offset); err != nil {
		return nil, scratch, fmt.Errorf("dataset: read segment %d of %s: %w", i, d.dir, err)
	}
	edges, rest, err := graph.DecodeEdgeBatchInto(dst, scratch)
	if err != nil {
		return nil, scratch, fmt.Errorf("dataset: segment %d of %s: %w", i, d.dir, err)
	}
	if len(rest) != 0 {
		return nil, scratch, fmt.Errorf("dataset: segment %d of %s: %d trailing bytes", i, d.dir, len(rest))
	}
	if len(edges) != seg.Edges {
		return nil, scratch, fmt.Errorf("dataset: segment %d of %s decoded %d edges, manifest declares %d",
			i, d.dir, len(edges), seg.Edges)
	}
	d.segReads.Add(1)
	return edges, scratch, nil
}

// Verify re-hashes the data file and compares it to the manifest — the full
// integrity check Open skips. It costs one sequential scan of the file.
func (d *Dataset) Verify() error {
	h := sha256.New()
	if _, err := io.Copy(h, io.NewSectionReader(d.f, 0, d.man.Bytes)); err != nil {
		return fmt.Errorf("dataset: verify %s: %w", d.dir, err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != d.man.Hash {
		return fmt.Errorf("dataset: %s: content hash %s does not match manifest %s", d.dir, got, d.man.Hash)
	}
	return nil
}

// Store is a root directory of named datasets, one subdirectory per name —
// the layout coreset serve reads with -datasets DIR and coreset ingest writes
// into.
type Store struct{ root string }

// OpenStore opens (creating if needed) a dataset store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: store %s: %w", dir, err)
	}
	return &Store{root: dir}, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// Path returns the directory a named dataset lives in. The name must be a
// single path element — no separators, no traversal — so a store name can
// never escape the root.
func (s *Store) Path(name string) (string, error) {
	if name == "" || name != filepath.Base(name) || name == "." || name == ".." {
		return "", fmt.Errorf("dataset: invalid dataset name %q", name)
	}
	return filepath.Join(s.root, name), nil
}

// Open opens the named dataset.
func (s *Store) Open(name string) (*Dataset, error) {
	dir, err := s.Path(name)
	if err != nil {
		return nil, err
	}
	return Open(dir)
}

// List returns the names of every dataset in the store (directories holding
// a manifest), sorted.
func (s *Store) List() ([]string, error) {
	ents, err := os.ReadDir(s.root)
	if err != nil {
		return nil, fmt.Errorf("dataset: list %s: %w", s.root, err)
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(s.root, e.Name(), ManifestName)); err == nil {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}
