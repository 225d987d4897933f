package expt

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/vcover"
)

func init() {
	register(Experiment{
		ID:    "E7",
		Title: "Subsampled matching protocol: α-approx at Õ(nk/α²) bytes (Remark 5.2)",
		Paper: "Remark 5.2 / Theorem 5 tightness: subsampling each machine's maximum matching at rate 1/α gives an α-approximation with O~(nk/α²) total communication.",
		Run:   runE7,
	})
	register(Experiment{
		ID:    "E8",
		Title: "Grouped VC protocol: α-approx at Õ(nk/α) bytes (Remark 5.8)",
		Paper: "Remark 5.8 / Theorem 6 tightness: grouping vertices into Θ(α/log n)-size groups and running Theorem 2 gives an α-approximation with O~(nk/α) communication.",
		Run:   runE8,
	})
}

// Both protocols run as E1 and E2 do: a random k-partition from the
// repetition seed's stream 0, one coreset per machine under MapParts with
// machine i drawing from stream i+1, and each message charged the sorted-set
// codec every runtime puts on the wire.

func runE7(cfg Config) *Result {
	n := pick(cfg, 4096, 32768)
	k := pick(cfg, 8, 16)
	reps := pick(cfg, 2, 4)
	alphas := []int{1, 2, 4, 8}

	tb := stats.NewTable(
		"E7: subsampled matching protocol vs alpha (paper: ratio ≈ α, bytes ≈ c·nk/α²)",
		"alpha", "total-bytes", "bytes*alpha^2/(n*k)", "opt", "matching", "ratio", "ratio/alpha")
	root := rng.New(cfg.Seed)
	g := gen.GNP(n, 10/float64(n), root.Split(0))
	opt := matching.Maximum(g.N, g.Edges).Size()
	var xs, bytes, perAlpha []float64
	for _, alpha := range alphas {
		var bytesS, ratioS, sizeS stats.Summary
		for rep := 0; rep < reps; rep++ {
			r := rng.New(cfg.Seed + uint64(hash2("e7", alpha, rep)))
			parts := partition.RandomK(g.Edges, k, r.Split(0))
			coresets := core.MapParts(parts, cfg.Workers, func(i int, part []graph.Edge) []graph.Edge {
				return core.SubsampledMatchingCoreset(g.N, part, alpha, r.Split(uint64(i)+1))
			})
			total := 0
			for _, cs := range coresets {
				total += core.CoresetSizeBytes(cs)
			}
			m := core.ComposeMatching(g.N, coresets)
			bytesS.Add(float64(total))
			sizeS.Add(float64(m.Size()))
			ratioS.Add(ratio(float64(opt), float64(m.Size())))
		}
		b := math.RoundToEven(bytesS.Mean())
		xs, bytes = append(xs, float64(alpha)), append(bytes, b)
		perAlpha = append(perAlpha, ratioS.Mean()/float64(alpha))
		tb.AddRow(alpha,
			fmt.Sprintf("%.0f", b),
			fmt.Sprintf("%.2f", b*float64(alpha*alpha)/(float64(n)*float64(k))),
			opt,
			fmt.Sprintf("%.0f", sizeS.Mean()),
			ratioS.MeanCI(),
			fmt.Sprintf("%.2f", perAlpha[len(perAlpha)-1]))
	}
	return &Result{
		ID:     "E7",
		Title:  "Subsampled matching protocol",
		Tables: []*stats.Table{tb},
		Notes: []string{
			bytesLawNote(xs, bytes, -2, "Õ(nk/α²)"),
			fmt.Sprintf("ratio/α over the rows: %.2f to %.2f (Theorem 5 is tight if it stays O(1))", slices.Min(perAlpha), slices.Max(perAlpha)),
		},
	}
}

func runE8(cfg Config) *Result {
	n := pick(cfg, 4096, 32768)
	k := pick(cfg, 8, 16)
	reps := pick(cfg, 2, 4)
	alphas := []int{16, 32, 64, 128}

	tb := stats.NewTable(
		"E8: grouped VC protocol vs alpha (paper: ratio <= α, bytes ≈ c·nk/α)",
		"alpha", "group-size", "total-bytes", "bytes*alpha/(n*k)", "opt", "cover", "ratio", "feasible")
	root := rng.New(cfg.Seed)
	b := gen.BipartiteGNP(n/2, n/2, 20/float64(n), root.Split(0))
	g := b.ToGraph()
	opt := len(vcover.KonigCover(b))
	var xs, bytes, perAlpha []float64
	for _, alpha := range alphas {
		gs := core.GroupSizeFor(g.N, alpha)
		var bytesS, coverS, ratioS stats.Summary
		feasible := true
		for rep := 0; rep < reps; rep++ {
			r := rng.New(cfg.Seed + uint64(hash2("e8", alpha, rep)))
			parts := partition.RandomK(g.Edges, k, r.Split(0))
			coresets := core.MapParts(parts, cfg.Workers, func(i int, part []graph.Edge) *core.VCCoreset {
				return core.GroupedVCCoreset(g.N, k, gs, part)
			})
			total := 0
			for _, cs := range coresets {
				// Fixed holds groups outside the peeled levels (those with an
				// internal edge), so it travels as one set of its own.
				total += graph.IDSetBytes(cs.Fixed) + graph.EdgeSetBytes(cs.Residual)
			}
			cover := core.ComposeGroupedVC(g.N, gs, coresets)
			if err := vcover.Verify(g.N, g.Edges, cover); err != nil {
				feasible = false
			}
			bytesS.Add(float64(total))
			coverS.Add(float64(len(cover)))
			ratioS.Add(ratio(float64(len(cover)), float64(opt)))
		}
		bt := math.RoundToEven(bytesS.Mean())
		xs, bytes = append(xs, float64(alpha)), append(bytes, bt)
		perAlpha = append(perAlpha, ratioS.Mean()/float64(alpha))
		tb.AddRow(alpha, gs,
			fmt.Sprintf("%.0f", bt),
			fmt.Sprintf("%.2f", bt*float64(alpha)/(float64(n)*float64(k))),
			opt,
			fmt.Sprintf("%.0f", coverS.Mean()),
			ratioS.MeanCI(),
			feasible)
	}
	return &Result{
		ID:     "E8",
		Title:  "Grouped VC protocol",
		Tables: []*stats.Table{tb},
		Notes: []string{
			bytesLawNote(xs, bytes, -1, "Õ(nk/α)"),
			fmt.Sprintf("ratio/α over the rows: %.3f to %.3f (Theorem 6 is tight if it stays below 1)", slices.Min(perAlpha), slices.Max(perAlpha)),
		},
	}
}

// bytesLawNote renders the observed exponent of total bytes in α — the
// least-squares slope of ln(bytes) on ln(α) over the rows — beside the one
// the paper's law states.
func bytesLawNote(alphas, bytes []float64, law int, name string) string {
	return fmt.Sprintf("ln(total-bytes) on ln(α) slope %.2f over the rows; the %s law gives %d", logLogSlope(alphas, bytes), name, law)
}
