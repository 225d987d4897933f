package graph

import (
	"bytes"
	"io"
	"os"
	"reflect"
	"slices"
	"testing"
)

// FuzzReadEdgeList exercises the edge-list parser with arbitrary input: it
// must never panic, every accepted graph must validate, and the incremental
// EdgeListParser must accept exactly the inputs (and produce exactly the
// edges) that the batch ReadEdgeList does — the parity the streaming runtime
// relies on. The lenient parser rides along under its own invariants: it
// never yields a self-loop, and on everything the strict parser accepts it
// yields exactly the strict edge list. (Duplicate removal belongs to
// dataset.Ingest, which FuzzIngest checks.)
func FuzzReadEdgeList(f *testing.F) {
	for _, seed := range []string{
		"p 4 2\n0 1\n2 3\n",
		"# comment\n% other\n0 1\n3 2\n",
		"p 2\n",
		"0 x\n",
		"p 2 1\n0 1\n0 1\n",
		"p 1 1\n0 5\n",
		"-1 0\n",
		"0 0\n",
		"",
		"p 0 0\n",
		"1 2\np 5 1\n",
		"9999999999 1\n",
		"p 3 1\n0\t1\n",
		"0\t1\t1438300800\n",               // extra column (timestamped SNAP dump)
		"1 2\r\n2 3\r\n",                   // CRLF line endings
		"3 3\n1 2\n2 1\n",                  // self-loop + reversed duplicate
		"0\u00a01\n\u30002\u20033\u2028\n", // Unicode whitespace
		"+1 02\n-0 1\n",                    // signs and leading zeros go to strconv
		"9223372036854775808 1\n123456789012345678 1\n",
		"0\xc2 1\n\xa0\xc2\xa0 1\n", // invalid UTF-8 next to a real U+00A0
	} {
		f.Add([]byte(seed))
	}
	// The checked-in SNAP-style fixture (tabs, CRLF, comments, self-loops,
	// duplicates) seeds the corpus with the real-world shape ingestion sees.
	if fixture, err := os.ReadFile("testdata/snap_sample.txt"); err == nil {
		f.Add(fixture)
	} else {
		f.Fatalf("fixture: %v", err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err == nil {
			if verr := g.Validate(); verr != nil {
				t.Fatalf("accepted graph fails validation: %v", verr)
			}
		}

		p := NewEdgeListParser(bytes.NewReader(data))
		var edges []Edge
		var perr error
		for {
			e, nerr := p.Next()
			if nerr == io.EOF {
				break
			}
			if nerr != nil {
				perr = nerr
				break
			}
			edges = append(edges, e)
		}
		if (err == nil) != (perr == nil) {
			t.Fatalf("batch err = %v, incremental err = %v", err, perr)
		}
		if err == nil {
			if p.NumVertices() != g.N {
				t.Fatalf("incremental n = %d, batch n = %d", p.NumVertices(), g.N)
			}
			if len(edges) != len(g.Edges) || (len(edges) > 0 && !reflect.DeepEqual(edges, g.Edges)) {
				t.Fatalf("incremental edges %v != batch edges %v", edges, g.Edges)
			}
		}

		// Lenient invariants: never yields a self-loop, and on any
		// strict-accepted input it succeeds with exactly the strict edges.
		lp := NewLenientEdgeListParser(bytes.NewReader(data))
		var lenientEdges []Edge
		var lerr error
		for {
			e, nerr := lp.Next()
			if nerr == io.EOF {
				break
			}
			if nerr != nil {
				lerr = nerr
				break
			}
			if e.U == e.V {
				t.Fatalf("lenient parser yielded self-loop %v", e)
			}
			lenientEdges = append(lenientEdges, e)
		}
		if err == nil {
			if lerr != nil {
				t.Fatalf("strict accepted but lenient failed: %v", lerr)
			}
			if !slices.Equal(lenientEdges, g.Edges) {
				t.Fatalf("lenient edges %v != strict edges %v", lenientEdges, g.Edges)
			}
		}
	})
}
