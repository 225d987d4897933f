package obs

import (
	"strconv"
	"testing"
)

// BenchmarkObsOverhead measures what instrumentation costs when it is OFF —
// the default for every library layer. The nil-sink and nil-tracer cases are
// the exact calls the cluster runtime makes on its per-frame hot path
// (coordinator countSent/countReceived, worker countIn/countOut) and per
// round (tracer spans); they must stay allocation-free, or observability
// would tax every run that never asked for it. The registry-backed cases sit
// alongside for contrast — the price a caller opts into with -trace/-admin.
//
// Run with go test -run=^$ -bench=BenchmarkObsOverhead -benchmem ./internal/obs/.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("count/nil-sink", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Count(nil, "cluster_frames_sent_total", 1)
		}
	})
	b.Run("countby/nil-sink", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			CountBy(nil, "cluster_shard_bytes_total", "machine", "3", 4096)
		}
	})
	b.Run("observe/nil-sink", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Observe(nil, "cluster_dial_seconds", 0.002)
		}
	})
	// Spans run once per round or run — never per frame. The residual cost
	// with tracing off is the caller-built variadic attribute slice (~100 B
	// per span), which is why the per-frame paths above use plain arguments.
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

	b.Run("count/registry-sink", func(b *testing.B) {
		s := NewRegistrySink(NewRegistry())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Count(s, "cluster_frames_sent_total", 1)
		}
	})
	b.Run("countby/registry-sink", func(b *testing.B) {
		s := NewRegistrySink(NewRegistry())
		lbl := strconv.Itoa(3)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			CountBy(s, "cluster_shard_bytes_total", "machine", lbl, 4096)
		}
	})
}
