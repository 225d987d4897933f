package expt

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 22 {
		t.Fatalf("registry has %d experiments, want 22", len(all))
	}
	for i, e := range all {
		var gotID int
		if _, err := fmt.Sscanf(e.ID, "E%d", &gotID); err != nil {
			t.Fatalf("bad experiment id %q: %v", e.ID, err)
		}
		if gotID != i+1 {
			t.Fatalf("experiment %d has id %s (sorted order broken)", i, e.ID)
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestGet(t *testing.T) {
	if _, ok := Get("E1"); !ok {
		t.Fatal("E1 missing")
	}
	if _, ok := Get("E99"); ok {
		t.Fatal("E99 should not exist")
	}
}

// TestAllExperimentsRunQuick executes every experiment end-to-end in quick
// mode. This is the suite's integration test: every experiment must produce
// at least one non-empty table, must not panic (feasibility violations
// inside experiments panic by design) and must not report a violation of a
// parity or an envelope it checks in its notes.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments still take a few seconds")
	}
	cfg := Config{Seed: 0xC0FFEE, Quick: true}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res := e.Run(cfg)
			if res.ID != e.ID {
				t.Fatalf("result id %q != %q", res.ID, e.ID)
			}
			if len(res.Tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tb := range res.Tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("table %q empty", tb.Title)
				}
				out := tb.String()
				if !strings.Contains(out, "--") {
					t.Fatalf("table %q did not render", tb.Title)
				}
			}
			for _, note := range res.Notes {
				if strings.Contains(note, "VIOLATION") {
					t.Errorf("note: %s", note)
				}
			}
		})
	}
}

// TestExperimentsDeterministic re-runs one representative experiment and
// compares rendered tables: same seed, same tables.
func TestExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Config{Seed: 42, Quick: true}
	for _, id := range []string{"E1", "E4", "E7", "E8"} {
		e, _ := Get(id)
		a := e.Run(cfg)
		b := e.Run(cfg)
		for i := range a.Tables {
			if a.Tables[i].String() != b.Tables[i].String() {
				t.Fatalf("%s table %d not deterministic", id, i)
			}
		}
	}
}

// TestBytesLawNotes re-fits the exponent of total bytes in α from E7's and
// E8's rendered rows and requires the note to carry it: the law line is an
// observation of the table, not a restatement of the paper.
func TestBytesLawNotes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := Config{Seed: 1, Quick: true}
	for _, id := range []string{"E7", "E8"} {
		e, _ := Get(id)
		res := e.Run(cfg)
		tb := res.Tables[0]
		alphaCol, bytesCol := slices.Index(tb.Headers, "alpha"), slices.Index(tb.Headers, "total-bytes")
		if alphaCol < 0 || bytesCol < 0 {
			t.Fatalf("%s: no alpha or total-bytes column in %v", id, tb.Headers)
		}
		var xs, ys []float64
		for _, row := range tb.Rows {
			x, err1 := strconv.ParseFloat(row[alphaCol], 64)
			y, err2 := strconv.ParseFloat(row[bytesCol], 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: unparsable row %v", id, row)
			}
			xs, ys = append(xs, x), append(ys, y)
		}
		want := fmt.Sprintf("slope %.2f over the rows", logLogSlope(xs, ys))
		if !slices.ContainsFunc(res.Notes, func(n string) bool { return strings.Contains(n, want) }) {
			t.Errorf("%s: no note carries %q: %q", id, want, res.Notes)
		}
	}
}

func TestLogLogSlope(t *testing.T) {
	xs := []float64{1, 2, 4, 8}
	for _, e := range []float64{-2, -1, 0.5} {
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = 3 * math.Pow(x, e)
		}
		if got := logLogSlope(xs, ys); math.Abs(got-e) > 1e-9 {
			t.Errorf("slope of 3·x^%g = %g", e, got)
		}
	}
}
