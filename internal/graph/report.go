package graph

// RunReport is the JSON-able record of one distributed coreset run: the
// input shape, the partitioning parameters, the composed solution size and
// the per-machine / communication accounting. It is the schema shared by
// coreset run's -json output and the service's job API, and both get it
// from the same constructor (internal/engine), so a CLI run and a service
// job describe themselves identically and downstream tooling can consume
// either.
//
// Slice fields are indexed by machine. Fields a runtime does not produce
// (Batches outside stream and cluster mode, the measured-versus-estimated
// split outside cluster mode; nothing is batch-only) are omitted from the
// JSON encoding when empty. The per-machine and communication accounting is
// the embedded RunCounts, the block core.PipelineStats carries, so the
// report copies it whole.
type RunReport struct {
	Task string `json:"task"` // "matching" | "vc" | "edcs"
	Mode string `json:"mode"` // "batch" | "stream" | "cluster"
	N    int    `json:"n"`    // vertices
	M    int    `json:"m"`    // edges read
	K    int    `json:"k"`    // machines
	Seed uint64 `json:"seed"` // partitioning seed
	// Beta is the EDCS degree bound that produced the coresets (task "edcs"
	// only; omitted otherwise). Without it, reports from different bounds on
	// the same (graph, seed, k) would be indistinguishable.
	Beta int `json:"beta,omitempty"`

	// SolutionSize is the composed matching size (edges) or vertex cover
	// size (vertices).
	SolutionSize int `json:"solutionSize"`

	RunCounts

	DurationMS  float64 `json:"durationMs"`
	EdgesPerSec float64 `json:"edgesPerSec,omitempty"`

	// Multi-round MPC fields (task "edcs" driven by internal/rounds;
	// omitted for single-round runs). Rounds is the configured round cap,
	// RoundsRun how many rounds actually executed (the early exit stops
	// below the cap once the union stops shrinking), and RoundStats the
	// per-round breakdown. For multi-round runs the top-level communication
	// fields aggregate across rounds: TotalCommBytes sums every round,
	// MaxMachineBytes is the largest single message of any round, and the
	// per-machine slices describe the FINAL round (whose coresets are what
	// the coordinator composed).
	Rounds     int           `json:"rounds,omitempty"`
	RoundsRun  int           `json:"roundsRun,omitempty"`
	RoundStats []RoundReport `json:"roundStats,omitempty"`

	// MachineStats is the per-machine telemetry breakdown (cluster only):
	// one entry per machine, populated from the TELEM payload each worker
	// returns at round end. For multi-round runs this describes the FINAL
	// round, mirroring the per-machine slices above; the per-round breakdown
	// lives in RoundStats[*].MachineStats.
	MachineStats []MachineStats `json:"machineStats,omitempty"`
}

// RunCounts is a run's per-machine and communication accounting, in the
// report's key order. It is declared once: core.PipelineStats, which every
// runtime fills, and RunReport, which prints it, both embed it. Slices are
// indexed by machine; a runtime fills what it can observe and leaves the
// rest zero.
type RunCounts struct {
	PartEdges []int `json:"partEdges,omitempty"` // edges routed to each machine
	// StoredEdges is how many edges each machine still held at end of
	// stream. For matching it equals PartEdges (the model's O(m/k) budget);
	// for vertex cover online peeling makes it smaller on peel-heavy inputs.
	StoredEdges []int `json:"storedEdges,omitempty"`
	// Live is each machine's online telemetry at end of stream: the greedy
	// matching size (matching) or the count of vertices peeled online (vc).
	Live         []int `json:"live,omitempty"`
	CoresetEdges []int `json:"coresetEdges"`           // edges in each machine's coreset message
	CoresetFixed []int `json:"coresetFixed,omitempty"` // fixed vertices in each machine's message (vc)

	// TotalCommBytes and MaxMachineBytes are the coreset messages' sizes: in
	// batch and stream mode the exact length of each message's encoded body,
	// simulated in that nothing is sent; in cluster mode the MEASURED bytes
	// of each worker's CORESET frame as read off its TCP connection — the
	// same body plus the frame header and the stats varints — with the body
	// lengths alongside in EstCommBytes / EstMaxMachineBytes so the two can
	// be compared on every run (experiment E20).
	TotalCommBytes     int `json:"totalCommBytes"`
	MaxMachineBytes    int `json:"maxMachineBytes"`
	EstCommBytes       int `json:"estCommBytes,omitempty"`       // cluster only
	EstMaxMachineBytes int `json:"estMaxMachineBytes,omitempty"` // cluster only
	// ShardBytes is the measured coordinator-to-worker traffic (cluster
	// only): HELLO, SHARD and EOS frames summed over all workers, including
	// the traffic of replayed rounds.
	ShardBytes       int `json:"shardBytes,omitempty"`
	CompositionEdges int `json:"compositionEdges"`  // edges the coordinator processed
	Batches          int `json:"batches,omitempty"` // batches read from the source (stream and cluster)

	// Retries counts worker-failure replay attempts across the run (cluster
	// only; 0 on an undisturbed run) and ReplayedMachines the machines whose
	// round was successfully replayed, in ascending order — for multi-round
	// runs, aggregated and deduplicated across rounds (the per-round
	// breakdown is in RunReport.RoundStats).
	Retries          int   `json:"retries,omitempty"`
	ReplayedMachines []int `json:"replayedMachines,omitempty"`
}

// MachineStats is one worker machine's round telemetry: where its wall time
// went (shard decode, insert/repair, coreset encode) and what the build did
// (edges ingested, EDCS repair fixpoint iterations and removals, peak |H|).
// Times are measured on the worker's own clock and shipped back in the TELEM
// frame, so they exclude network transfer and coordinator-side queuing; the
// phase sum is a lower bound on the coordinator's measured round wall time.
type MachineStats struct {
	Machine int `json:"machine"` // machine index within the round

	DecodeMS float64 `json:"decodeMs"` // shard frame decode wall time
	BuildMS  float64 `json:"buildMs"`  // insert + repair wall time
	EncodeMS float64 `json:"encodeMs"` // finish + coreset encode wall time

	EdgesIn int `json:"edgesIn"` // edges routed to the machine this round
	BuildCounters

	// Replayed marks a machine whose telemetry describes a replacement
	// attempt after a worker failure, not the original assignment.
	Replayed bool `json:"replayed,omitempty"`
}

// BuildCounters are a machine's EDCS fixpoint counters (zero for builders
// without incremental repair): dirty-vertex rescans, H evictions and the
// largest |H| the machine ever held. They are a pure function of the
// machine's shard, kept out of the summary whose wire shape the codec tests
// pin; a worker ships them in its TELEM frame.
type BuildCounters struct {
	RepairIters int `json:"repairIters,omitempty"`
	Removals    int `json:"removals,omitempty"`
	PeakCoreset int `json:"peakCoreset,omitempty"`
}

// RoundReport is one round of a multi-round EDCS run: how many machines were
// active, what the round consumed and produced, and what its coreset
// messages cost. In cluster mode TotalCommBytes/MaxMachineBytes are measured
// off the TCP connections per round (the estimate rides alongside, as in the
// top-level fields); in batch and stream mode they are the simulated
// estimate and the Est* fields are omitted.
type RoundReport struct {
	Round      int    `json:"round"`      // 0-based round index
	K          int    `json:"k"`          // machines active this round
	Seed       uint64 `json:"seed"`       // per-round sharding seed
	InputEdges int    `json:"inputEdges"` // edges fed into the round
	UnionEdges int    `json:"unionEdges"` // edges in the union of the round's coresets

	TotalCommBytes     int     `json:"totalCommBytes"`
	MaxMachineBytes    int     `json:"maxMachineBytes"`
	EstCommBytes       int     `json:"estCommBytes,omitempty"`       // cluster only
	EstMaxMachineBytes int     `json:"estMaxMachineBytes,omitempty"` // cluster only
	ShardBytes         int     `json:"shardBytes,omitempty"`         // cluster only
	DurationMS         float64 `json:"durationMs"`

	// Retries counts this round's worker-failure replay attempts and
	// ReplayedMachines the machines recovered by replay (cluster only;
	// omitted on an undisturbed round).
	Retries          int   `json:"retries,omitempty"`
	ReplayedMachines []int `json:"replayedMachines,omitempty"`

	// MachineStats is this round's per-machine telemetry breakdown (cluster
	// only; see RunReport.MachineStats for field semantics).
	MachineStats []MachineStats `json:"machineStats,omitempty"`
}
