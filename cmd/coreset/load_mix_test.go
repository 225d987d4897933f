package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/rng"
	"repro/internal/service"
)

// TestMixScenario drives the -dataset/-mix workload end to end against an
// in-process daemon with a dataset store: jobs must alternate between the
// stored dataset and the generator spec, and the report must carry one
// latency line per kind next to the combined percentiles.
func TestMixScenario(t *testing.T) {
	root := t.TempDir()
	g := gen.GNP(500, 8.0/500.0, rng.New(3))
	b, err := dataset.NewBuilder(filepath.Join(root, "web"), dataset.IngestOptions{SegmentEdges: 128})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Add(g.Edges...); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Finish(g.N, "test", 0, 0); err != nil {
		t.Fatal(err)
	}

	svc := service.New(service.Config{Workers: 2, DatasetDir: root})
	ts := httptest.NewServer(svc)
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()

	var out, errb bytes.Buffer
	code := runLoad([]string{
		"-addr", ts.URL, "-dataset", "web", "-mix",
		"-gen", "gnp", "-n", "500", "-deg", "8",
		"-task", "matching", "-k", "2", "-jobs", "8", "-c", "2", "-seeds", "2",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	s := out.String()
	for _, want := range []string{"graph web: dataset web n=500", "dataset: 4 jobs", "gen:     4 jobs", "latency: p50"} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// -mix without -dataset and -dataset against -target cluster are flag errors.
func TestMixFlagErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := runLoad([]string{"-mix"}, &out, &errb); code != 2 || !strings.Contains(errb.String(), "-mix requires -dataset") {
		t.Fatalf("-mix alone: exit %d, stderr %q", code, errb.String())
	}
	errb.Reset()
	if code := runLoad([]string{"-target", "cluster", "-dataset", "web", "-cluster", "x:1"}, &out, &errb); code != 2 || !strings.Contains(errb.String(), "-dataset requires -target service") {
		t.Fatalf("-dataset with cluster target: exit %d, stderr %q", code, errb.String())
	}
}
