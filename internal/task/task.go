// Package task is the pluggable task registry: one descriptor per coreset
// family, bundling everything a runtime needs to execute it — the
// per-machine incremental builder (the stream.Machine contract), the wire
// codec for its summary body (byte layout and simulated byte charge), the
// composer that turns a set of summaries into a final solution, and the
// parameter validation every user-facing surface shares.
//
// The paper's framework is generic: ALG(G(i)) summaries over a random
// k-partitioning, composed by any downstream solver. The runtimes reflect
// that — batch (Descriptor.Batch, in this package), stream
// (internal/stream), cluster (internal/cluster) and the coreset service
// (internal/service) all dispatch through a *Descriptor instead of
// switching on task names, and all of them split with the same seeded hash
// partitioning and feed each part to the task's own builder, so they
// compose the identical answer for a fixed (graph, seed, k). A new coreset
// family is a package plus one Register call: no runtime, wire or service
// code changes, and the CLI task lists, the service's task-labeled metrics
// and the worker's HELLO validation pick it up from the registry.
//
// Wire compatibility: a descriptor's Wire byte is its identity in the
// cluster protocol's HELLO frame. The bytes of the pre-registry protocol
// are preserved verbatim (matching=1, vc=2, edcs=3, with 4 as the EDCS
// multi-round assignment); registering a task never needs a protocol
// version bump, since a peer that predates its byte refuses it by name. A
// body codec is another matter: a CORESET body does not describe its own
// format, so changing what AppendBody emits for a registered task is a new
// cluster protocol version (internal/cluster, wire.go).
package task

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/edcs"
	"repro/internal/graph"
	"repro/internal/matching"
)

// Params carries the per-run task parameters a descriptor may consume.
// Tasks ignore the fields they do not declare: only descriptors with
// UsesBeta read the EDCS degree constraints.
type Params struct {
	// EDCS is the degree-constraint pair for beta-parameterized tasks
	// (zero otherwise).
	EDCS edcs.Params
}

// Summary is a machine's end-of-stream message to the coordinator: exactly
// one of the coreset fields is set, plus accounting. It is the one message
// type every runtime emits — the streaming goroutines, the cluster
// runtime's worker processes and the batch runtime's map stage — so the
// seed-parity guarantee (deep-equal summaries for the same (graph, seed,
// k)) is a statement about a single struct.
type Summary struct {
	Coreset []graph.Edge    // edge-list coresets: Theorem 1 matching, EDCS H-edges
	VC      *core.VCCoreset // Theorem 2: peeled vertices + sparse residual
	Verts   []graph.ID      // vertex-set coresets: diversity centers
	Edges   int             // edges routed to this machine
	Stored  int             // edges (or distinct vertices) still held at end of stream
	Live    int             // online telemetry: greedy size, peel count, repair removals
	Bytes   int             // exact length of the encoded body (Descriptor.AppendBody)
}

// Builder is one machine's incremental coreset state. Add is called once
// per routed edge, in arrival order, by that machine's goroutine (or worker
// process) only; Finish is called exactly once, after the stream is
// drained, with the final vertex count.
type Builder interface {
	Add(e graph.Edge)
	Finish(n int) Summary
}

// MachineTelem is a machine's build-phase telemetry, separate from Summary
// (whose wire shape is pinned by the seed-parity codec tests): EDCS
// fixpoint counters that describe how much repair work the build did. All
// fields are zero for builders without incremental repair.
type MachineTelem struct {
	RepairIters int // dirty-vertex rescans in the EDCS repair fixpoint
	Removals    int // H evictions (overfull edges removed by repair)
	PeakCoreset int // largest |H| the machine ever held
}

// Telemetered is the optional Builder extension for build telemetry.
type Telemetered interface {
	Telem() MachineTelem
}

// Solution is a composed final answer. Size is always set (it is the
// cross-runtime parity number); exactly one of the typed fields carries the
// task's solution object.
type Solution struct {
	Size     int                // solution size: matching edges, cover vertices, dispersion
	Matching *matching.Matching // matching-flavored tasks
	Cover    []graph.ID         // vertex cover
	Verts    []graph.ID         // vertex-set solutions (diversity centers)
}

// Descriptor bundles everything the runtimes need to execute one task.
// All function fields except Validate, FixedLen and Verify are required.
type Descriptor struct {
	// Name is the task's user-facing identity: CLI -task values, service
	// job requests, run reports and metric labels.
	Name string
	// Wire is the task byte carried in the cluster protocol's HELLO frame.
	Wire byte
	// WireRounds, when nonzero, is the HELLO task byte of this task's
	// multi-round assignment (internal/rounds); zero means the task is not
	// rounds-capable.
	WireRounds byte
	// UsesBeta declares that the task consumes the EDCS degree constraints:
	// the HELLO frame carries them, the CLI/service accept -beta for it,
	// and Params.EDCS is populated.
	UsesBeta bool

	// NewBuilder returns a fresh per-machine builder for a k-machine run.
	// nHint > 0 declares the vertex count upfront (enables online peeling
	// and table pre-sizing); it never changes the result.
	NewBuilder func(k, nHint int, p Params) Builder
	// AppendBody encodes the task-specific coreset body of s (everything
	// after the shared stats prefix) and returns the extended buffer.
	AppendBody func(dst []byte, s Summary) []byte
	// DecodeBody decodes the coreset body into s — including the byte
	// charge (Summary.Bytes: the length of the body, as Finish charged it)
	// and the exact nil-versus-empty slice shapes Finish produces, which
	// the seed-parity guarantee depends on — and returns the unconsumed
	// tail.
	DecodeBody func(s *Summary, data []byte) (rest []byte, err error)
	// Validate rejects unusable task parameters before a run starts
	// (nil: the task takes none).
	Validate func(p Params) error
	// Compose unions the per-machine summaries and solves on the union.
	Compose func(n int, sums []Summary) Solution
	// CoresetLen is the per-machine coreset size folded into run stats.
	CoresetLen func(s Summary) int
	// FixedLen is the per-machine fixed-vertex count (nil: the task has no
	// fixed vertices; vc reports its peeled levels through it).
	FixedLen func(s Summary) int
	// Verify checks a composed solution against the full edge list
	// (nil: no verifier). The engine's batch runtime runs it as a self-check.
	Verify func(n int, edges []graph.Edge, sol Solution) error

	// CLI display metadata: how cmd/coreset labels this task's output.
	// The summary line is "<SolutionNoun>: <size> <SolutionUnit> (<mode>,
	// k machines)"; the per-machine lines use the *Label fields (empty:
	// the line is omitted).
	SolutionNoun string // e.g. "vertex cover"
	SolutionUnit string // e.g. "vertices"
	CoresetLabel string // e.g. "residual edges per machine"
	FixedLabel   string // e.g. "fixed vertices per machine" (vc only)
	LiveLabel    string // stream-mode live telemetry line (e.g. "live greedy per machine")
	ShowStored   bool   // stream mode: print "stored vs received per machine"
}

// registry is a task table; the package-level Default registry is the one
// every runtime dispatches through, but the type exists separately so
// misuse (duplicate registration, incomplete descriptors) is testable
// without corrupting the global table.
type registry struct {
	byName map[string]*Descriptor
	byWire map[byte]wireEntry
	names  []string // registration order
}

// wireEntry resolves a HELLO task byte to its descriptor; multiRound marks
// the task's WireRounds byte (the multi-round assignment).
type wireEntry struct {
	d          *Descriptor
	multiRound bool
}

func newRegistry() *registry {
	return &registry{byName: make(map[string]*Descriptor), byWire: make(map[byte]wireEntry)}
}

// register validates d completely before touching the tables, so a
// panicking registration never leaves a half-registered task behind.
func (r *registry) register(d *Descriptor) {
	if d.Name == "" {
		panic("task: descriptor with empty name")
	}
	if _, dup := r.byName[d.Name]; dup {
		panic(fmt.Sprintf("task: duplicate registration of task %q", d.Name))
	}
	if d.Wire == 0 {
		panic(fmt.Sprintf("task %q: wire byte 0 is reserved", d.Name))
	}
	if _, dup := r.byWire[d.Wire]; dup {
		panic(fmt.Sprintf("task %q: wire byte 0x%02x already registered", d.Name, d.Wire))
	}
	if d.WireRounds != 0 {
		if d.WireRounds == d.Wire {
			panic(fmt.Sprintf("task %q: rounds wire byte equals the single-round byte", d.Name))
		}
		if _, dup := r.byWire[d.WireRounds]; dup {
			panic(fmt.Sprintf("task %q: wire byte 0x%02x already registered", d.Name, d.WireRounds))
		}
	}
	for _, req := range []struct {
		name string
		ok   bool
	}{
		{"NewBuilder", d.NewBuilder != nil},
		{"AppendBody", d.AppendBody != nil},
		{"DecodeBody", d.DecodeBody != nil},
		{"Compose", d.Compose != nil},
		{"CoresetLen", d.CoresetLen != nil},
	} {
		if !req.ok {
			panic(fmt.Sprintf("task %q: nil %s", d.Name, req.name))
		}
	}
	r.byName[d.Name] = d
	r.byWire[d.Wire] = wireEntry{d: d}
	if d.WireRounds != 0 {
		r.byWire[d.WireRounds] = wireEntry{d: d, multiRound: true}
	}
	r.names = append(r.names, d.Name)
}

func (r *registry) get(name string) (*Descriptor, bool) {
	d, ok := r.byName[name]
	return d, ok
}

func (r *registry) byWireByte(b byte) (d *Descriptor, multiRound, ok bool) {
	e, ok := r.byWire[b]
	return e.d, e.multiRound, ok
}

func (r *registry) wireRange() string {
	bs := make([]int, 0, len(r.byWire))
	for b := range r.byWire {
		bs = append(bs, int(b))
	}
	sort.Ints(bs)
	parts := make([]string, len(bs))
	for i, b := range bs {
		parts[i] = fmt.Sprintf("0x%02x", b)
	}
	return strings.Join(parts, ", ")
}

// defaultRegistry holds every task registered through Register; populated
// by this package's init (tasks.go).
var defaultRegistry = newRegistry()

// Register adds a task descriptor to the default registry. It panics on a
// duplicate name or wire byte and on incomplete descriptors (nil builder,
// codec or composer): registration happens in init, so misuse is a
// programming error caught by the first test that imports the package.
func Register(d Descriptor) { defaultRegistry.register(&d) }

// Get returns the descriptor registered under name.
func Get(name string) (*Descriptor, bool) { return defaultRegistry.get(name) }

// MustGet is Get for names that are known to be registered; it panics on an
// unknown name.
func MustGet(name string) *Descriptor {
	d, ok := Get(name)
	if !ok {
		panic(fmt.Sprintf("task: unknown task %q", name))
	}
	return d
}

// Names returns the registered task names in registration order. It is the
// single source of truth for every accepted-task list: CLI usage strings,
// service validation and metric label pre-registration.
func Names() []string {
	return append([]string(nil), defaultRegistry.names...)
}

// ByWire resolves a HELLO task byte: the owning descriptor, whether the
// byte is the task's multi-round assignment, and whether it is known at
// all.
func ByWire(b byte) (d *Descriptor, multiRound, ok bool) {
	return defaultRegistry.byWireByte(b)
}

// WireRange lists every registered wire byte (for unknown-task errors).
func WireRange() string { return defaultRegistry.wireRange() }

// RoundsCapable returns the descriptor of the (single) rounds-capable task,
// or nil if none is registered. The multi-round driver (internal/rounds)
// is EDCS-shaped, so exactly one task may declare WireRounds today.
func RoundsCapable() *Descriptor {
	for _, name := range defaultRegistry.names {
		if d := defaultRegistry.byName[name]; d.WireRounds != 0 {
			return d
		}
	}
	return nil
}

// betaCapable returns the first registered descriptor that consumes the
// EDCS degree constraints (nil if none): the task named in "beta only
// applies to" validation errors.
func betaCapable() *Descriptor {
	for _, name := range defaultRegistry.names {
		if d := defaultRegistry.byName[name]; d.UsesBeta {
			return d
		}
	}
	return nil
}
