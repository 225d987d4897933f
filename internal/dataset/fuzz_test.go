package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// FuzzIngest is differential: on any input, Ingest must write the same
// files as ingestReference — edges.seg and manifest.json byte for byte, and
// no other file — or fail with the same error text. Segments of one to five
// edges put most repeats in a later segment than their first occurrence.
func FuzzIngest(f *testing.F) {
	for _, seed := range []string{
		"0 1\n1 0\n",
		"# c\n3\t4\r\n0 1\n1 1\n1 2\n0 1\n2 3\n1 0\n",
		"p 4 9\n0 1\n1 0\n2 3\n3 2\n0 1\n",
		"5 6\n6 5\n5 6\n7 8\n8 7\n0 9\n",
		"0 1\n0 x\n",
		"0 1\n1 0\np 3 1\n",
		"0\u00a01\n1\u30000\n2 1 99\n",
		"2147483647 0\n0 2147483647\n2147483647 2147483646\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	if in, err := os.ReadFile(filepath.Join("testdata", "input.txt")); err == nil {
		f.Add(in)
	} else {
		f.Fatalf("golden input: %v", err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		root := t.TempDir()
		got, want := filepath.Join(root, "got"), filepath.Join(root, "want")
		opts := IngestOptions{SegmentEdges: 1 + len(data)%5, Source: "fuzz"}
		_, err := Ingest(got, bytes.NewReader(data), opts)
		_, rerr := ingestReference(want, bytes.NewReader(data), opts)
		if errText(err, got) != errText(rerr, want) {
			t.Fatalf("Ingest error %q, reference error %q", errText(err, got), errText(rerr, want))
		}
		gotNames, wantNames := dirNames(t, got), dirNames(t, want)
		if !slices.Equal(gotNames, wantNames) {
			t.Fatalf("Ingest left %v, reference left %v", gotNames, wantNames)
		}
		for _, name := range wantNames {
			g, err1 := os.ReadFile(filepath.Join(got, name))
			w, err2 := os.ReadFile(filepath.Join(want, name))
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("%s differs:\nIngest:    %q\nreference: %q", name, g, w)
			}
		}
	})
}

// TestIngestMatchesReference runs the differential check of FuzzIngest on
// inputs large enough to fill every key partition: ingestInputs over
// G(4096, 16/4096), default segments and segments of 1000 edges.
func TestIngestMatchesReference(t *testing.T) {
	for _, in := range ingestInputs(4096, 16) {
		for _, segEdges := range []int{0, 1000} {
			root := t.TempDir()
			got, want := filepath.Join(root, "got"), filepath.Join(root, "want")
			opts := IngestOptions{SegmentEdges: segEdges, Source: in.name}
			man, err := Ingest(got, bytes.NewReader(in.text), opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ingestReference(want, bytes.NewReader(in.text), opts); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{ManifestName, DataName} {
				g, err1 := os.ReadFile(filepath.Join(got, name))
				w, err2 := os.ReadFile(filepath.Join(want, name))
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if !bytes.Equal(g, w) {
					t.Errorf("%s, segments of %d: %s differs from the reference's", in.name, segEdges, name)
				}
			}
			if wantDups := in.lines - man.M; man.Duplicates != wantDups {
				t.Errorf("%s: %d duplicates, want %d", in.name, man.Duplicates, wantDups)
			}
		}
	}
}

// errText is err's message with dir replaced, so errors from two
// directories compare; "" for nil.
func errText(err error, dir string) string {
	if err == nil {
		return ""
	}
	return strings.ReplaceAll(err.Error(), dir, "DIR")
}

// dirNames lists dir's entries, or nothing when dir does not exist.
func dirNames(t *testing.T, dir string) []string {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// openCrasher is a manifest whose segment lengths wrap int64: four segments
// of 2^62 bytes or more at offsets 0, 2^62, -2^63 and -2^62 sum to the
// 10 bytes it declares. Open must refuse it; it once passed, and the first
// ReadSegment then panicked in make.
const openCrasher = `{"format":1,"n":2,"m":1,"bytes":10,"hash":"",
"segments":[{"offset":0,"length":4611686018427387904,"edges":1},
{"offset":4611686018427387904,"length":4611686018427387904,"edges":0},
{"offset":-9223372036854775808,"length":4611686018427387904,"edges":0},
{"offset":-4611686018427387904,"length":4611686018427387914,"edges":0}]}`

// FuzzOpen writes fuzzed manifest and data bytes as a dataset directory:
// Open, reading every segment and Verify must each either fail with an
// error or succeed, never panic, and a segment that reads must decode to
// the edge count its manifest declares.
func FuzzOpen(f *testing.F) {
	man, err1 := os.ReadFile(filepath.Join(goldenDir, ManifestName))
	data, err2 := os.ReadFile(filepath.Join(goldenDir, DataName))
	if err1 != nil || err2 != nil {
		f.Fatal(err1, err2)
	}
	f.Add(man, data)
	f.Add(man, data[:len(data)-1])
	f.Add([]byte(strings.Replace(string(man), `"length": 3`, `"length": 4`, 1)), append(data, 0))
	f.Add([]byte(strings.Replace(string(man), `"offset": 9`, `"offset": -9`, 1)), data)
	f.Add([]byte(openCrasher), make([]byte, 10))
	f.Add([]byte(`{"format":1,"n":0,"m":0,"bytes":0,"hash":"","segments":[]}`), []byte{})
	f.Fuzz(func(t *testing.T, man, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), man, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, DataName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Open(dir)
		if err != nil {
			return
		}
		defer d.Close()
		var scratch []byte
		for i := 0; i < d.Segments(); i++ {
			edges, s, err := d.ReadSegment(i, scratch)
			scratch = s
			if err == nil && len(edges) != d.SegmentEdges(i) {
				t.Fatalf("segment %d decoded %d edges, manifest declares %d", i, len(edges), d.SegmentEdges(i))
			}
		}
		d.Verify()
	})
}

// TestOpenRefusesWrappedSegments: the wrapped-length crasher is refused by
// Open with an error naming the segment, before any read.
func TestOpenRefusesWrappedSegments(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(openCrasher), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, DataName), make([]byte, 10), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir)
	if err == nil {
		d.Close()
		t.Fatal("Open accepted segments whose lengths wrap int64")
	}
	if !strings.Contains(err.Error(), "segment 0 malformed") {
		t.Fatalf("Open error %q does not name segment 0", err)
	}
}
