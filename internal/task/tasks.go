package task

import (
	"repro/internal/core"
	"repro/internal/diversity"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/vcover"
)

// The built-in task table. Registration order is the user-facing order
// (CLI usage strings, metric label pre-registration); the wire bytes are
// the cluster protocol's HELLO task identities and must never be reused or
// renumbered — matching/vc/edcs(+rounds) predate the registry and keep
// their original bytes for wire compatibility.
func init() {
	Register(Descriptor{
		Name: "matching",
		Wire: 1,
		NewBuilder: func(k, nHint int, p Params) Builder {
			return newMatchingBuilder(nHint)
		},
		AppendBody: appendEdgeBody,
		DecodeBody: decodeEdgeBody,
		Compose:    composeMatching,
		CoresetLen: func(s Summary) int { return len(s.Coreset) },
		Verify: func(n int, edges []graph.Edge, sol Solution) error {
			return matching.Verify(n, edges, sol.Matching)
		},
		SolutionNoun: "matching",
		SolutionUnit: "edges",
		CoresetLabel: "coreset edges per machine",
		LiveLabel:    "live greedy per machine",
	})

	Register(Descriptor{
		Name: "vc",
		Wire: 2,
		NewBuilder: func(k, nHint int, p Params) Builder {
			return newVCBuilder(k, nHint)
		},
		AppendBody: appendVCBody,
		DecodeBody: decodeVCBody,
		Compose: func(n int, sums []Summary) Solution {
			coresets := make([]*core.VCCoreset, len(sums))
			for i, s := range sums {
				coresets[i] = s.VC
			}
			cover := core.ComposeVC(n, coresets)
			return Solution{Size: len(cover), Cover: cover}
		},
		CoresetLen: func(s Summary) int { return len(s.VC.Residual) },
		FixedLen:   func(s Summary) int { return len(s.VC.Fixed) },
		Verify: func(n int, edges []graph.Edge, sol Solution) error {
			return vcover.Verify(n, edges, sol.Cover)
		},
		SolutionNoun: "vertex cover",
		SolutionUnit: "vertices",
		CoresetLabel: "residual edges per machine",
		FixedLabel:   "fixed vertices per machine",
		ShowStored:   true,
	})

	Register(Descriptor{
		Name:       "edcs",
		Wire:       3,
		WireRounds: 4,
		UsesBeta:   true,
		NewBuilder: func(k, nHint int, p Params) Builder {
			return newEDCSBuilder(nHint, p.EDCS)
		},
		AppendBody: appendEdgeBody,
		DecodeBody: decodeEdgeBody,
		Validate: func(p Params) error {
			return p.EDCS.Validate()
		},
		Compose:    composeMatching,
		CoresetLen: func(s Summary) int { return len(s.Coreset) },
		Verify: func(n int, edges []graph.Edge, sol Solution) error {
			return matching.Verify(n, edges, sol.Matching)
		},
		SolutionNoun: "edcs",
		SolutionUnit: "edges matched",
		CoresetLabel: "EDCS edges per machine",
		LiveLabel:    "repair removals per machine",
	})

	Register(Descriptor{
		Name: "diversity",
		Wire: 5,
		NewBuilder: func(k, nHint int, p Params) Builder {
			return newDiversityBuilder()
		},
		AppendBody: func(dst []byte, s Summary) []byte {
			return graph.AppendIDs(dst, s.Verts)
		},
		DecodeBody: func(s *Summary, data []byte) ([]byte, error) {
			verts, rest, err := graph.DecodeIDs(data)
			if err != nil {
				return nil, err
			}
			s.Verts = verts // DecodeIDs is non-nil on empty, like Centers
			s.Bytes = graph.EncodedIDBytes(verts)
			return rest, nil
		},
		Compose:    composeDiversity,
		CoresetLen: func(s Summary) int { return len(s.Verts) },
		Verify: func(n int, edges []graph.Edge, sol Solution) error {
			return diversity.Verify(n, sol.Verts)
		},
		SolutionNoun: "diversity",
		SolutionUnit: "separation",
		CoresetLabel: "centers per machine",
	})
}

// appendEdgeBody/decodeEdgeBody is the shared body codec of the edge-set
// coresets (Theorem 1 matchings and EDCSs): one sorted edge set — the same
// graph codec the simulated accounting charges, so the measured CORESET body
// and core.CoresetSizeBytes are the same function of the edge set.
func appendEdgeBody(dst []byte, s Summary) []byte {
	return graph.AppendEdgeSet(dst, s.Coreset)
}

func decodeEdgeBody(s *Summary, data []byte) ([]byte, error) {
	edges, rest, err := graph.DecodeEdgeSet(data)
	if err != nil {
		return nil, err
	}
	if edges == nil {
		edges = []graph.Edge{} // a maximum matching / H edge list is never nil
	}
	s.Coreset = edges
	s.Bytes = len(data) - len(rest) // the encoding is canonical: what was read is what Finish charged
	return rest, nil
}

// appendVCBody/decodeVCBody is the Theorem 2 body, core's VC coreset message.
func appendVCBody(dst []byte, s Summary) []byte {
	return core.AppendVCCoreset(dst, s.VC)
}

func decodeVCBody(s *Summary, data []byte) ([]byte, error) {
	vc, rest, err := core.DecodeVCCoreset(data)
	if err != nil {
		return nil, err
	}
	s.VC = vc
	s.Bytes = len(data) - len(rest) // canonical, as in decodeEdgeBody
	return rest, nil
}

// composeMatching is the shared composer tail of the edge-list coresets:
// an exact maximum matching of the union of the per-machine coresets.
func composeMatching(n int, sums []Summary) Solution {
	coresets := make([][]graph.Edge, len(sums))
	for i, s := range sums {
		coresets[i] = s.Coreset
	}
	m := core.ComposeMatching(n, coresets)
	return Solution{Size: m.Size(), Matching: m}
}

// diversityBuilder collects the machine's touched vertex set and summarizes
// it with the greedy k-center selection at end of stream. Order-insensitive
// by construction, so parity across runtimes needs nothing beyond the
// shared hash partitioning.
type diversityBuilder struct {
	seen map[graph.ID]struct{}
}

func newDiversityBuilder() *diversityBuilder {
	return &diversityBuilder{seen: make(map[graph.ID]struct{})}
}

func (b *diversityBuilder) Add(e graph.Edge) {
	b.seen[e.U] = struct{}{}
	b.seen[e.V] = struct{}{}
}

func (b *diversityBuilder) Finish(n int) Summary {
	verts := make([]graph.ID, 0, len(b.seen))
	for v := range b.seen {
		verts = append(verts, v)
	}
	centers := diversity.Centers(verts, diversity.DefaultK)
	return Summary{
		Verts:  centers,
		Stored: len(verts), // distinct vertices held, the machine's state
		Bytes:  graph.EncodedIDBytes(centers),
	}
}

// composeDiversity re-runs the greedy selection on the union of the
// per-machine center sets — the arXiv:1506.06715 composition step.
func composeDiversity(n int, sums []Summary) Solution {
	var union []graph.ID
	for _, s := range sums {
		union = append(union, s.Verts...)
	}
	centers := diversity.Centers(union, diversity.DefaultK)
	return Solution{Size: diversity.Dispersion(centers), Verts: centers}
}
