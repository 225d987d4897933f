package dataset

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// buildRandom stores a deterministic GNP graph as a dataset and returns both
// the stored handle and the in-memory oracle.
func buildRandom(t *testing.T, dir string, n, m, segEdges int) (*Dataset, *graph.Graph) {
	t.Helper()
	g := gen.GNP(n, float64(2*m)/float64(n*(n-1)), rng.New(7))
	b, err := NewBuilder(dir, IngestOptions{SegmentEdges: segEdges, Source: "test-gnp"})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add(g.Edges...); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Finish(g.N, "test-gnp", 0, 0); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, g
}

// readAll drains a dataset segment by segment.
func readAll(t *testing.T, d *Dataset) []graph.Edge {
	t.Helper()
	var all []graph.Edge
	var scratch []byte
	for i := 0; i < d.Segments(); i++ {
		var seg []graph.Edge
		var err error
		seg, scratch, err = d.ReadSegment(i, scratch)
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		all = append(all, seg...)
	}
	return all
}

func TestBuildOpenRoundTrip(t *testing.T) {
	d, g := buildRandom(t, t.TempDir(), 200, 900, 64)
	if d.NumVertices() != g.N || d.Edges() != len(g.Edges) {
		t.Fatalf("dataset shape %d/%d, graph %d/%d", d.NumVertices(), d.Edges(), g.N, len(g.Edges))
	}
	if d.Segments() < 2 {
		t.Fatalf("want multiple segments, got %d", d.Segments())
	}
	if got := readAll(t, d); !reflect.DeepEqual(got, g.Edges) {
		t.Fatal("stored edges differ from the source graph")
	}
	if got, want := d.SegmentReads(), int64(d.Segments()); got != want {
		t.Fatalf("SegmentReads() = %d after one pass, want %d", got, want)
	}
	if err := d.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// A second pass decodes identically — the property Restart rides on.
	if got := readAll(t, d); !reflect.DeepEqual(got, g.Edges) {
		t.Fatal("second pass differs from the first")
	}
}

// TestHashIsContentAddressed: identity follows the bytes. The same edges
// stored twice hash identically; a different graph hashes differently.
func TestHashIsContentAddressed(t *testing.T) {
	d1, _ := buildRandom(t, t.TempDir(), 100, 300, 32)
	d2, _ := buildRandom(t, t.TempDir(), 100, 300, 32)
	if d1.Hash() != d2.Hash() {
		t.Fatalf("identical builds hash %s vs %s", d1.Hash(), d2.Hash())
	}
	d3, _ := buildRandom(t, t.TempDir(), 100, 500, 32)
	if d1.Hash() == d3.Hash() {
		t.Fatal("different graphs share a content hash")
	}
}

func TestIngestFixture(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "graph", "testdata", "snap_sample.txt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	man, err := Ingest(dir, strings.NewReader(string(raw)), IngestOptions{SegmentEdges: 5, Source: "snap_sample.txt"})
	if err != nil {
		t.Fatal(err)
	}
	if man.M != 16 || man.N != 12 || man.SelfLoops != 2 || man.Duplicates != 2 {
		t.Fatalf("manifest = m:%d n:%d loops:%d dups:%d, want 16/12/2/2",
			man.M, man.N, man.SelfLoops, man.Duplicates)
	}
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	edges := readAll(t, d)
	// The stored edges must equal a direct lenient parse of the same bytes
	// with each repeated edge kept at its first occurrence.
	p := graph.NewLenientEdgeListParser(strings.NewReader(string(raw)))
	var want []graph.Edge
	seen := make(map[graph.Edge]bool)
	for {
		e, err := p.Next()
		if err != nil {
			break
		}
		if !seen[e] {
			seen[e] = true
			want = append(want, e)
		}
	}
	if !reflect.DeepEqual(edges, want) {
		t.Fatalf("stored edges %v != parsed edges %v", edges, want)
	}
	if err := graph.New(d.NumVertices(), edges).Validate(); err != nil {
		t.Fatalf("ingested graph fails validation: %v", err)
	}
}

func TestIngestRejectsCorruptInput(t *testing.T) {
	dir := t.TempDir()
	if _, err := Ingest(dir, strings.NewReader("0 1\nbad line here extra\n0 x\n"), IngestOptions{}); err == nil {
		t.Fatal("ingest accepted corrupt input")
	}
	// A failed ingest must not leave an openable dataset behind.
	if _, err := Open(dir); err == nil {
		t.Fatal("failed ingest left an openable dataset")
	}
}

// TestOpenRejectsTampering: truncation and manifest/data mismatches fail at
// Open (size check) or Verify (content check).
func TestOpenRejectsTampering(t *testing.T) {
	dir := t.TempDir()
	d, _ := buildRandom(t, dir, 50, 120, 16)
	data := filepath.Join(dir, DataName)

	// Flip a byte: Open still succeeds (size unchanged), Verify catches it.
	raw, err := os.ReadFile(data)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), raw...)
	tampered[len(tampered)/2] ^= 0xff
	if err := os.WriteFile(data, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after bit flip: %v", err)
	}
	defer d2.Close()
	if err := d2.Verify(); err == nil {
		t.Fatal("Verify accepted tampered data")
	}

	// Truncate: Open itself refuses.
	if err := os.WriteFile(data, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted truncated data file")
	}
	_ = d
}

func TestStore(t *testing.T) {
	root := t.TempDir()
	st, err := OpenStore(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", ".", "..", "a/b", "../escape"} {
		if _, err := st.Path(bad); err == nil {
			t.Errorf("store accepted name %q", bad)
		}
	}
	dir, err := st.Path("web-graph")
	if err != nil {
		t.Fatal(err)
	}
	if _, g := buildRandom(t, dir, 40, 80, 16); g == nil {
		t.Fatal("build failed")
	}
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"web-graph"}) {
		t.Fatalf("List() = %v", names)
	}
	d, err := st.Open("web-graph")
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	if _, err := st.Open("missing"); err == nil {
		t.Fatal("Open of a missing dataset succeeded")
	}
}

func TestBuilderEmptyAndDeclaredN(t *testing.T) {
	// Empty dataset: zero segments, still opens and round-trips.
	dir := t.TempDir()
	b, err := NewBuilder(dir, IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Finish(5, "empty", 0, 0); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.NumVertices() != 5 || d.Edges() != 0 || d.Segments() != 0 {
		t.Fatalf("empty dataset shape n:%d m:%d segs:%d", d.NumVertices(), d.Edges(), d.Segments())
	}

	// Declared n smaller than an endpoint is refused at Finish.
	b2, err := NewBuilder(t.TempDir(), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b2.Add(graph.Edge{U: 0, V: 9}); err != nil {
		t.Fatal(err)
	}
	if _, err := b2.Finish(5, "bad", 0, 0); err == nil {
		t.Fatal("Finish accepted endpoint out of declared range")
	}

	// n < 0 infers from the data.
	dir3 := t.TempDir()
	b3, err := NewBuilder(dir3, IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b3.Add(graph.Edge{U: 2, V: 7}); err != nil {
		t.Fatal(err)
	}
	man, err := b3.Finish(-1, "inferred", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if man.N != 8 {
		t.Fatalf("inferred n = %d, want 8", man.N)
	}
}

func TestManifestValidation(t *testing.T) {
	dir := t.TempDir()
	buildRandom(t, dir, 30, 60, 16)
	manPath := filepath.Join(dir, ManifestName)
	good, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, tamper := range []struct{ from, to string }{
		{`"format": 1`, `"format": 99`},
		{`"m": `, `"m": 1000000000, "was": `},
	} {
		bad := strings.Replace(string(good), tamper.from, tamper.to, 1)
		if bad == string(good) {
			t.Fatalf("tamper %q did not apply", tamper.from)
		}
		if err := os.WriteFile(manPath, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Errorf("Open accepted manifest tampered via %q", tamper.from)
		}
	}
	if err := os.WriteFile(manPath, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatalf("restored manifest no longer opens: %v", err)
	}
}

func TestSegmentBoundaries(t *testing.T) {
	// Exact multiples of the segment size must not produce an empty tail.
	for _, m := range []int{16, 32, 33} {
		dir := t.TempDir()
		b, err := NewBuilder(dir, IngestOptions{SegmentEdges: 16})
		if err != nil {
			t.Fatal(err)
		}
		edges := make([]graph.Edge, m)
		for i := range edges {
			edges[i] = graph.Edge{U: graph.ID(i), V: graph.ID(i + 1)}
		}
		if err := b.Add(edges...); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Finish(-1, fmt.Sprintf("m=%d", m), 0, 0); err != nil {
			t.Fatal(err)
		}
		d, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		wantSegs := (m + 15) / 16
		if d.Segments() != wantSegs {
			t.Errorf("m=%d: %d segments, want %d", m, d.Segments(), wantSegs)
		}
		if got := readAll(t, d); !reflect.DeepEqual(got, edges) {
			t.Errorf("m=%d: round trip mismatch", m)
		}
		d.Close()
	}
}
