package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestIngestFileAndRunDataset: ingest a messy SNAP-style edge list, then run
// the same task from the stored dataset and from the cleaned file — the
// summary lines must match in every local mode.
func TestIngestFileAndRunDataset(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "raw.txt")
	messy := "# SNAP comment\n0\t1\r\n1 2\n2 2\n2 3\n1 2\n3 4\n1 0\n"
	if err := os.WriteFile(raw, []byte(messy), 0o644); err != nil {
		t.Fatal(err)
	}
	ds := filepath.Join(dir, "data", "path")
	out, errOut, code := runCLI(t, "ingest", "-in", raw, "-out", ds)
	if code != 0 {
		t.Fatalf("ingest exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "ingested: n=5 m=4") {
		t.Fatalf("ingest summary: %q", out)
	}
	// "1 2" repeats in the same orientation, "1 0" repeats "0 1" reversed.
	if !strings.Contains(out, "dropped: 1 self-loops, 2 duplicate edges") {
		t.Fatalf("ingest drop report missing: %q", out)
	}

	clean := filepath.Join(dir, "clean.txt")
	if err := os.WriteFile(clean, []byte("p 5 4\n0 1\n1 2\n2 3\n3 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range [][]string{nil, {"-stream"}} {
		base := append([]string{"-task", "matching", "-k", "2", "-seed", "3", "-q"}, mode...)
		fromDS, errDS, code := runCLI(t, append(base, "-dataset", ds)...)
		if code != 0 {
			t.Fatalf("dataset run exit %d, stderr: %s", code, errDS)
		}
		fromFile, errF, code := runCLI(t, append(base, "-in", clean)...)
		if code != 0 {
			t.Fatalf("file run exit %d, stderr: %s", code, errF)
		}
		if fromDS != fromFile {
			t.Fatalf("mode %v: dataset %q, file %q", mode, fromDS, fromFile)
		}
	}
}

// TestIngestGenParity: a dataset built from a generator draw must reproduce
// the -gen run verbatim — same draw order, same sharding, same summary.
func TestIngestGenParity(t *testing.T) {
	ds := filepath.Join(t.TempDir(), "gnp")
	out, errOut, code := runCLI(t, "ingest", "-gen", "gnp", "-n", "2000", "-deg", "6", "-seed", "7", "-out", ds, "-seg-edges", "512")
	if code != 0 {
		t.Fatalf("ingest exit %d, stderr: %s", code, errOut)
	}
	if !strings.Contains(out, "ingested: n=2000 m=5960") {
		t.Fatalf("ingest summary: %q", out)
	}

	args := []string{"-task", "matching", "-seed", "7", "-k", "4", "-stream"}
	fromDS, errDS, code := runCLI(t, append(args, "-dataset", ds)...)
	if code != 0 {
		t.Fatalf("dataset run exit %d, stderr: %s", code, errDS)
	}
	fromGen, errG, code := runCLI(t, append(args, "-gen", "gnp", "-n", "2000", "-deg", "6")...)
	if code != 0 {
		t.Fatalf("gen run exit %d, stderr: %s", code, errG)
	}
	// The segment size sets the dataset source's Next() granularity, so the
	// batch count and wall-clock lines legitimately differ; everything the
	// pipeline computes — bytes, coresets, the composed matching — must not.
	strip := func(s string) string {
		var kept []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "throughput:") || strings.HasPrefix(line, "stream:") {
				continue
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, "\n")
	}
	for _, s := range []string{fromDS, fromGen} {
		if !strings.Contains(s, "n=2000, 5960 edges") {
			t.Fatalf("run did not see the full graph: %q", s)
		}
	}
	if strip(fromDS) != strip(fromGen) {
		t.Fatalf("dataset-backed run diverged from -gen:\n%q\n%q", fromDS, fromGen)
	}
}

// The flag surface rejects ambiguous inputs.
func TestIngestAndDatasetFlagErrors(t *testing.T) {
	if _, errOut, code := runCLI(t, "ingest", "-in", "x", "-gen", "gnp", "-out", "y"); code != 2 || !strings.Contains(errOut, "exactly one") {
		t.Fatalf("ingest with two inputs: exit %d, stderr %q", code, errOut)
	}
	if _, errOut, code := runCLI(t, "ingest", "-in", "x"); code != 2 || !strings.Contains(errOut, "-out") {
		t.Fatalf("ingest without -out: exit %d, stderr %q", code, errOut)
	}
	if _, errOut, code := runCLI(t, "-task", "matching", "-dataset", "d", "-gen", "gnp"); code != 2 || !strings.Contains(errOut, "-dataset replaces") {
		t.Fatalf("-dataset with -gen: exit %d, stderr %q", code, errOut)
	}
}
