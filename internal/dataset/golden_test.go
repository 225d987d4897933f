package dataset

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite the dataset goldens under testdata/v<FormatVersion>/")

// goldenDir holds the dataset the current format writes for
// testdata/input.txt: its manifest.json and edges.seg.
var goldenDir = filepath.Join("testdata", fmt.Sprintf("v%d", FormatVersion))

// goldenOptions are the ingest options the goldens were written with; four
// edges per segment puts several duplicates in later segments than their
// first occurrence.
var goldenOptions = IngestOptions{SegmentEdges: 4, Source: "input.txt"}

// TestIngestGolden pins the on-disk format: ingesting testdata/input.txt — a
// messy dump with both comment styles, CRLF, tabs, a U+00A0 separator, extra
// columns, self-loops and duplicates in both orientations — must write
// testdata/v<FormatVersion>/ byte for byte, and that directory must open and
// decode with this package's reader. A change to the segment codec, the
// manifest or what ingestion keeps fails here and names the file; a format
// change needs a FormatVersion bump and goldens regenerated with -update.
func TestIngestGolden(t *testing.T) {
	in, err := os.ReadFile(filepath.Join("testdata", "input.txt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := Ingest(dir, bytes.NewReader(in), goldenOptions); err != nil {
		t.Fatal(err)
	}
	names := []string{ManifestName, DataName}
	if *updateGoldens {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(goldenDir, name), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, name := range names {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatalf("no golden %s for format version %d: regenerate with -update", name, FormatVersion)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from %s/%s at format version %d; a format change needs a FormatVersion bump "+
				"and regenerated goldens (-update)\nwritten now: %q\ngolden:      %q",
				name, goldenDir, name, FormatVersion, got, want)
		}
	}

	d, err := Open(goldenDir)
	if err != nil {
		t.Fatalf("the golden dataset does not open: %v", err)
	}
	defer d.Close()
	if err := d.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := len(readAll(t, d)); got != d.Edges() {
		t.Fatalf("the golden dataset decodes %d edges, its manifest declares %d", got, d.Edges())
	}
}
