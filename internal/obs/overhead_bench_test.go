package obs

import (
	"testing"
)

// BenchmarkObsOverhead measures what instrumentation costs on the runtimes'
// hot paths. The nil-tracer cases are what every run pays with tracing off;
// the counter case is the cluster coordinator's per-frame add with a
// registry attached (the counter is resolved once per session, so a frame
// pays one atomic add and no lookup). All of them must stay allocation-free.
//
// Run with go test -run=^$ -bench=BenchmarkObsOverhead -benchmem ./internal/obs/.
func BenchmarkObsOverhead(b *testing.B) {
	// Spans run once per round or run — never per frame. The residual cost
	// with tracing off is the caller-built variadic attribute slice (~100 B
	// per span), which is why the per-frame paths use counters instead.
	b.Run("span/nil-tracer", func(b *testing.B) {
		var tr *Tracer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			end := tr.Span("worker.round", "machine", 1, "round", 0)
			end("edges", 4096)
		}
	})
	b.Run("event/nil-tracer", func(b *testing.B) {
		var tr *Tracer
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Event("shard.flush", "bytes", 4096)
		}
	})
	b.Run("counter/pre-resolved", func(b *testing.B) {
		c := NewRegistry().CounterVec("cluster_shard_bytes_total", "", "machine").With("3")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Add(4096)
		}
	})
}
