package dataset

import (
	"bytes"
	"io"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// ingestInputs are two edge lists over G(n, deg/n), seed 1. "bench-shape"
// lists the edges in generator order, tab-separated under two comment lines,
// as bench/ writes the dataset_edcs_stream input — no duplicates.
// "both-orientations" lists every edge twice, as "u v" and as "v u",
// shuffled, so half of all lines are duplicates and most are far from their
// first occurrence.
func ingestInputs(n int, deg float64) []struct {
	name  string
	lines int
	text  []byte
} {
	var edges []graph.Edge
	for it := gen.GNPIter(n, deg/float64(n), rng.New(1)); ; {
		e, ok := it.Next()
		if !ok {
			break
		}
		edges = append(edges, e)
	}
	appendLine := func(buf []byte, u, v graph.ID) []byte {
		buf = strconv.AppendInt(buf, int64(u), 10)
		buf = append(buf, '\t')
		buf = strconv.AppendInt(buf, int64(v), 10)
		return append(buf, '\n')
	}
	shape := []byte("# Undirected graph: bench dataset_edcs_stream\n# FromNodeId\tToNodeId\n")
	for _, e := range edges {
		shape = appendLine(shape, e.U, e.V)
	}
	both := make([]graph.Edge, 0, 2*len(edges))
	for _, e := range edges {
		both = append(both, e, graph.Edge{U: e.V, V: e.U})
	}
	rng.New(2).Shuffle(len(both), func(i, j int) { both[i], both[j] = both[j], both[i] })
	var dump []byte
	for _, e := range both {
		dump = appendLine(dump, e.U, e.V)
	}
	return []struct {
		name  string
		lines int
		text  []byte
	}{
		{"bench-shape", len(edges), shape},
		{"both-orientations", len(both), dump},
	}
}

// BenchmarkIngest times Ingest from an in-memory edge list to a dataset on
// disk, on ingestInputs at the dataset_edcs_stream shape (n 32768, degree
// 64: 1 048 643 edges), and reports ns per input edge line and live heap
// bytes per input edge line: the most heap Ingest keeps reachable, sampled
// (after a forced GC) every 1 MiB of input and at end of input, less what
// was live before.
//
//	go test -run '^$' -bench Ingest -benchtime 5x ./internal/dataset
func BenchmarkIngest(b *testing.B) {
	for _, in := range ingestInputs(32768, 64) {
		b.Run(in.name, func(b *testing.B) {
			dir := filepath.Join(b.TempDir(), "ds")
			opts := IngestOptions{SegmentEdges: 65536}
			live := liveIngestBytes(b, dir, in.text, opts)
			b.ReportAllocs()
			b.SetBytes(int64(len(in.text)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Ingest(dir, bytes.NewReader(in.text), opts); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(in.lines), "ns/edge")
			b.ReportMetric(float64(live)/float64(in.lines), "live-B/edge")
		})
	}
}

// liveIngestBytes runs one Ingest whose reader samples the live heap.
func liveIngestBytes(b *testing.B, dir string, text []byte, opts IngestOptions) uint64 {
	var ms runtime.MemStats
	sample := func() uint64 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	r := &sampledReader{r: bytes.NewReader(text), sample: sample}
	base := sample()
	if _, err := Ingest(dir, r, opts); err != nil {
		b.Fatal(err)
	}
	if r.peak < base {
		return 0
	}
	return r.peak - base
}

// sampledReader calls sample every 1 MiB read and at end of input, keeping
// the largest value.
type sampledReader struct {
	r      io.Reader
	sample func() uint64
	read   int
	peak   uint64
}

func (s *sampledReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	s.read += n
	if s.read >= 1<<20 || err == io.EOF {
		s.read = 0
		s.peak = max(s.peak, s.sample())
	}
	return n, err
}
