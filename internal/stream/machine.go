package stream

import (
	"repro/internal/graph"
	"repro/internal/task"
)

// Summary is a machine's end-of-stream message to the coordinator. It is an
// alias of task.Summary — one message type across every runtime, so coresets
// built in-process, by cluster workers, or by the batch pipeline compare
// deep-equal field for field.
type Summary = task.Summary

// MachineTelem is a machine's build-phase telemetry, separate from Summary
// (whose wire shape is pinned by the seed-parity codec tests). Alias of
// task.MachineTelem.
type MachineTelem = task.MachineTelem

// Machine is one machine's incremental coreset builder behind an exported
// facade, for runtimes that host the paper's machines outside this package.
// The cluster runtime's worker processes (internal/cluster) feed a Machine
// from SHARD frames exactly as this package's goroutines feed their builders
// from channel batches — one implementation of the per-machine algorithms,
// so an in-process run and a cluster run over the same k-partitioning are
// bit-for-bit identical by construction.
//
// Add is called once per routed edge, in arrival order, from one goroutine;
// Finish is called exactly once, with the final vertex count, after the last
// Add.
type Machine struct {
	b        task.Builder
	received int
}

// NewMachine wraps a task builder — typically task.Descriptor.NewBuilder's
// result — with the runtime's received-edge accounting.
func NewMachine(b task.Builder) *Machine {
	return &Machine{b: b}
}

// Add feeds one routed edge.
func (m *Machine) Add(e graph.Edge) {
	m.received++
	m.b.Add(e)
}

// Received returns how many edges have been added.
func (m *Machine) Received() int { return m.received }

// Finish computes the end-of-stream summary for a final vertex count of n.
func (m *Machine) Finish(n int) Summary {
	s := m.b.Finish(n)
	s.Edges = m.received
	return s
}

// Telem returns the machine's build telemetry; the zero value for builders
// that do not track any.
func (m *Machine) Telem() MachineTelem {
	if t, ok := m.b.(task.Telemetered); ok {
		return t.Telem()
	}
	return MachineTelem{}
}
