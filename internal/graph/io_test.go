package graph

import (
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

// drain pulls every edge out of a parser, returning the edges and the
// terminal error (nil after a clean io.EOF).
func drain(p *EdgeListParser) ([]Edge, error) {
	var edges []Edge
	for {
		e, err := p.Next()
		if err == io.EOF {
			return edges, nil
		}
		if err != nil {
			return edges, err
		}
		edges = append(edges, e)
	}
}

// TestLenientParserFixture pins the lenient parse of the checked-in
// SNAP-style fixture: tabs, multi-space runs, CRLF endings and both comment
// styles all parse; the two self-loops are dropped and counted, never
// yielded and never an error, and the two repeated edges are yielded
// canonicalized (dataset.Ingest drops them).
func TestLenientParserFixture(t *testing.T) {
	data, err := os.ReadFile("testdata/snap_sample.txt")
	if err != nil {
		t.Fatal(err)
	}
	p := NewLenientEdgeListParser(strings.NewReader(string(data)))
	edges, err := drain(p)
	if err != nil {
		t.Fatalf("lenient parse of the fixture failed: %v", err)
	}
	if len(edges) != 18 {
		t.Fatalf("yielded %d edges, want 18", len(edges))
	}
	if p.SelfLoops() != 2 {
		t.Fatalf("SelfLoops() = %d, want 2", p.SelfLoops())
	}
	if p.NumVertices() != 12 {
		t.Fatalf("NumVertices() = %d, want 12", p.NumVertices())
	}
	// The strict parser must refuse the same bytes (first self-loop).
	if _, err := drain(NewEdgeListParser(strings.NewReader(string(data)))); err == nil {
		t.Fatal("strict parser accepted the messy fixture")
	}
	g := New(p.NumVertices(), edges)
	if err := g.Validate(); err != nil {
		t.Fatalf("lenient output fails validation: %v", err)
	}
}

func TestLenientParserSemantics(t *testing.T) {
	cases := []struct {
		name      string
		in        string
		edges     []Edge
		selfLoops int
	}{
		{
			name:  "tabs and multiple spaces",
			in:    "0\t1\n2   3\n\t4 5\r\n",
			edges: []Edge{{0, 1}, {2, 3}, {4, 5}},
		},
		{
			name:  "reversed duplicate canonicalized",
			in:    "1 2\n2 1\n",
			edges: []Edge{{1, 2}, {1, 2}},
		},
		{
			name:  "unicode whitespace separates",
			in:    "0\u00a01\n\u30002\u20033\u2028\n\v4\f5\n",
			edges: []Edge{{0, 1}, {2, 3}, {4, 5}},
		},
		{
			name:      "self-loops counted not fatal",
			in:        "0 0\n0 1\n1 1\n",
			edges:     []Edge{{0, 1}},
			selfLoops: 2,
		},
		{
			name:  "extra columns ignored",
			in:    "0\t1\t1438300800\n2\t3\t0.5\n",
			edges: []Edge{{0, 1}, {2, 3}},
		},
		{
			name:      "header with dropped lines tolerated",
			in:        "p 4 3\n0 1\n1 1\n2 3\n",
			edges:     []Edge{{0, 1}, {2, 3}},
			selfLoops: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewLenientEdgeListParser(strings.NewReader(tc.in))
			edges, err := drain(p)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			if !reflect.DeepEqual(edges, tc.edges) {
				t.Fatalf("edges = %v, want %v", edges, tc.edges)
			}
			if p.SelfLoops() != tc.selfLoops {
				t.Fatalf("SelfLoops() = %d, want %d", p.SelfLoops(), tc.selfLoops)
			}
		})
	}
}

// TestLenientParserStillRejectsCorruptInput: leniency absorbs messy data,
// not corrupt data — malformed ids, headers and out-of-range endpoints fail
// in both modes.
func TestLenientParserStillRejectsCorruptInput(t *testing.T) {
	for _, in := range []string{
		"0 x\n",
		"-1 0\n",
		"9999999999 1\n",
		"p 2\n",
		"p 1 1\n0 5\n",
		"0\n",
	} {
		if _, err := drain(NewLenientEdgeListParser(strings.NewReader(in))); err == nil {
			t.Errorf("lenient parser accepted corrupt input %q", in)
		}
	}
}

// TestStrictParserFieldSplitting: the strict parser shares the hardened
// tokenizer — tabs and aligned columns parse — but demands exactly two
// fields and keeps self-loops fatal.
func TestStrictParserFieldSplitting(t *testing.T) {
	edges, err := drain(NewEdgeListParser(strings.NewReader("0\t1\n2   3\r\n")))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if want := []Edge{{0, 1}, {2, 3}}; !reflect.DeepEqual(edges, want) {
		t.Fatalf("edges = %v, want %v", edges, want)
	}
	if _, err := drain(NewEdgeListParser(strings.NewReader("0 1 99\n"))); err == nil {
		t.Fatal("strict parser accepted a three-column line")
	}
}
