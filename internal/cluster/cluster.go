// Package cluster is the distributed deployment of the paper's simultaneous
// model: the k machines are separate OS processes, and the coreset messages
// cross a real TCP connection, so the communication the paper bounds is
// *measured* on the wire instead of estimated from encoded sizes.
//
//	EdgeSource --> sharder --> k TCP connections --> k worker processes
//	                                  ^                      |
//	              coordinator --------+---- CORESET frames --+--> composition
//
// The coordinator (Solve, for any registered task) consumes any
// stream.EdgeSource, routes every edge with the same seeded
// partition.HashAssign the in-process runtime uses — so a cluster run is
// bit-for-bit identical to the streaming and batch pipelines for the same
// (graph, seed, k) — and fans edge batches out over a compact length-prefixed
// binary protocol (wire.go: typed HELLO/ACK/SHARD/EOS/CORESET/ERROR frames,
// SHARD payloads in the order-preserving graph.AppendEdgeBatch, CORESET
// bodies in each task's set codec).
// Each worker hosts a stream.Machine — the very builders the in-process
// pipeline runs — and answers with one CORESET frame. The coordinator
// composes the summaries with the same core composition and reports both the
// measured wire bytes (TotalCommBytes/MaxMachineBytes) and the simulated
// estimate (EstCommBytes) side by side.
//
// There is one conversation, held by a Session: dial and greet every worker
// once, then run rounds of shard-and-collect on the open connections, then
// close. Solve is a session capped at one round plus the composition; the
// multi-round MPC driver (internal/rounds) Dials a session under the task's
// multi-round assignment and runs several rounds on shrinking inputs. Both
// go through the same sharding loop, the same per-machine frame exchange and
// the same replay waves.
//
// Backpressure is per worker: every connection has a bounded batch channel
// and a blocking TCP write path, so a slow worker throttles only its own
// shard stream. Cancellation is cooperative at batch granularity on the
// coordinator and forces connections closed, which workers observe as a
// dropped run; a worker crash or stall mid-shard surfaces as a typed
// *WorkerError at the coordinator — every frame exchange is bounded by
// Config.IOTimeout — with no hang and no goroutine leak. With
// Config.MaxRetries > 0 and a restartable source, a retryable failure
// (dial, connection drop, deadline) is not fatal: the coordinator re-dials
// the worker (or a Config.Spares standby) with capped exponential backoff
// and replays only the current round against it, reproducing the machine's
// exact shard from the seeded hash (retry.go), so a lost worker costs one
// round, not the run.
//
// Deployment shapes: `coreset worker` is the resident worker process (serves
// many runs concurrently, drains gracefully); coreset -cluster
// host:port,... drives an existing deployment; -cluster local self-spawns k
// worker processes (SpawnLocal) for single-machine use; and coreset serve
// dispatches jobs with mode "cluster" to a configured worker fleet.
package cluster

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Metric names this package reports through Config.Obs (see internal/obs).
// Counts are events and bytes measured on the live connections; a run with a
// nil Sink reports nothing. cluster_replays_total is the acceptance signal
// for fault tolerance: it advances once per machine whose round was
// successfully replayed after a worker loss.
// The per-connection names (frames, shard/coreset/telem bytes) are reported
// through obs.CountBy with a "machine" label, so a KeyedSink sees a
// per-machine breakdown while a plain Sink sees the same totals unlabeled.
// MetricTelemBytes counts TELEM frame traffic separately from
// MetricCoresetBytes: telemetry is measurement overhead, never part of the
// coreset communication the paper's model charges.
const (
	MetricFramesSent     = "cluster_frames_sent_total"
	MetricFramesReceived = "cluster_frames_received_total"
	MetricShardBytes     = "cluster_shard_bytes_total"
	MetricCoresetBytes   = "cluster_coreset_bytes_total"
	MetricTelemBytes     = "cluster_telem_bytes_total"
	MetricDialAttempts   = "cluster_dial_attempts_total"
	MetricBackoffSleeps  = "cluster_backoff_sleeps_total"
	MetricRetries        = "cluster_retries_total"
	MetricReplays        = "cluster_replays_total"
	MetricWorkerFailures = "cluster_worker_failures_total"
)

// DefaultBatchSize matches the in-process streaming runtime's batch size.
const DefaultBatchSize = 1024

// DefaultDialTimeout bounds each worker connection attempt.
const DefaultDialTimeout = 5 * time.Second

// DefaultIOTimeout bounds each frame read/write on a worker connection, so
// a worker that accepts the connection and then stalls surfaces as a
// retryable *WorkerError instead of hanging the run until caller
// cancellation.
const DefaultIOTimeout = 30 * time.Second

// DefaultMaxRetries is the replay budget the CLI surfaces enable by
// default: one retry against the machine's own address plus one against a
// spare. The library default (Config zero value) remains fail-fast.
const DefaultMaxRetries = 2

// DefaultRetryBackoff seeds the capped exponential backoff between replay
// waves.
const DefaultRetryBackoff = 100 * time.Millisecond

// maxRetryBackoff caps the exponential backoff growth.
const maxRetryBackoff = 5 * time.Second

// Config parameterizes a cluster run.
type Config struct {
	// Workers lists the worker addresses, one machine per entry; k is
	// len(Workers). Required, non-empty.
	Workers []string
	// Seed seeds the hash sharder: partition.HashAssign(e, k, Seed) decides
	// every route, exactly as in the in-process runtimes.
	Seed uint64
	// BatchSize is the number of edges per SHARD frame (default
	// DefaultBatchSize).
	BatchSize int
	// DialTimeout bounds each worker connection attempt (default
	// DefaultDialTimeout).
	DialTimeout time.Duration
	// IOTimeout bounds each frame read/write on a worker connection
	// (default DefaultIOTimeout; negative disables the deadlines). A frame
	// that misses the deadline fails the machine with a retryable
	// *WorkerError of KindDeadline.
	IOTimeout time.Duration
	// MaxRetries is the replay budget per machine per round: how many times
	// a machine whose failure is Retryable may be re-dialed and its current
	// round replayed before the run fails with ErrRetriesExhausted. 0 (the
	// zero value) disables replay — any worker failure fails the run, the
	// pre-replay behavior. Replay additionally requires the round input to
	// be a stream.Restartable source; otherwise failures stay fatal.
	MaxRetries int
	// RetryBackoff is the delay before the first replay wave, doubling per
	// wave up to a cap (default DefaultRetryBackoff).
	RetryBackoff time.Duration
	// Spares lists standby worker addresses. When a machine's replay
	// attempt fails, its next attempt consumes a spare address in place of
	// the failed one — so a worker whose process is gone for good costs one
	// round, not the run.
	Spares []string
	// Obs receives wire-level events (frames, bytes, dial attempts, backoff
	// sleeps, retries, replays — the Metric* names above) as they happen.
	// Nil, the zero value, keeps the library silent. Sinks implementing
	// obs.KeyedSink additionally see the per-connection counters broken down
	// by machine index.
	Obs obs.Sink
	// RunID is the coordinator's trace run ID, shipped to every worker in
	// the HELLO frame so worker-side spans (coreset worker -trace) join the
	// coordinator's trace stream. Empty is fine: workers still return
	// telemetry, their spans just carry no run attribute.
	RunID string
}

func (c Config) batchSize() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return DefaultBatchSize
}

func (c Config) dialTimeout() time.Duration {
	if c.DialTimeout > 0 {
		return c.DialTimeout
	}
	return DefaultDialTimeout
}

func (c Config) ioTimeout() time.Duration {
	if c.IOTimeout < 0 {
		return 0
	}
	if c.IOTimeout == 0 {
		return DefaultIOTimeout
	}
	return c.IOTimeout
}

func (c Config) backoffBase() time.Duration {
	if c.RetryBackoff > 0 {
		return c.RetryBackoff
	}
	return DefaultRetryBackoff
}

// FailureKind classifies what broke between the coordinator and a worker,
// and drives the retry decision: transport failures (dial, connection drop,
// stalled frame) are retryable because replaying the round is deterministic
// — the seeded hash re-creates the machine's exact shard — while handshake
// and protocol failures are not, because a deterministic replay would fail
// identically.
type FailureKind uint8

const (
	// KindUnknown is the zero kind: unclassified, never retryable.
	KindUnknown FailureKind = iota
	// KindDial: the worker connection could not be established (connection
	// refused, unreachable, dial timeout).
	KindDial
	// KindConn: an established connection dropped mid-conversation (reset,
	// unexpected EOF, closed).
	KindConn
	// KindDeadline: a frame read or write exceeded Config.IOTimeout — the
	// peer accepted the connection but stalled.
	KindDeadline
	// KindHandshake: the worker rejected the HELLO (ERROR frame, version or
	// parameter mismatch) or answered it with an unexpected frame.
	KindHandshake
	// KindProtocol: a corrupt or unexpected frame after the handshake, or a
	// remote ERROR mid-run.
	KindProtocol
)

func (k FailureKind) String() string {
	switch k {
	case KindDial:
		return "dial"
	case KindConn:
		return "conn"
	case KindDeadline:
		return "deadline"
	case KindHandshake:
		return "handshake"
	case KindProtocol:
		return "protocol"
	default:
		return "unknown"
	}
}

// retryable reports whether failures of this kind may be replayed.
func (k FailureKind) retryable() bool {
	return k == KindDial || k == KindConn || k == KindDeadline
}

// ErrRetriesExhausted tags the terminal, non-retryable *WorkerError a run
// fails with when a machine's replay budget (Config.MaxRetries) runs out.
var ErrRetriesExhausted = errors.New("cluster: retries exhausted")

// WorkerError is the typed error for a machine that failed mid-run: dial
// failure, connection drop (worker crash), stalled frame, protocol
// violation, or an ERROR frame the worker sent before closing. Err carries
// the cause; Kind classifies it and Retryable reports whether a replay
// could recover it (a run configured with MaxRetries > 0 only surfaces a
// retryable WorkerError once its replay budget is spent, wrapped in
// ErrRetriesExhausted with Retryable false). When several workers fail
// concurrently the run error joins them (errors.Join) with the causally
// first failure leading, so errors.As finds the primary.
type WorkerError struct {
	Machine   int         // machine index within the run
	Addr      string      // worker address
	Kind      FailureKind // what broke
	Retryable bool        // whether round replay may recover it
	Err       error
}

func (e *WorkerError) Error() string {
	if e.Kind == KindUnknown {
		return fmt.Sprintf("cluster: worker %d (%s): %v", e.Machine, e.Addr, e.Err)
	}
	return fmt.Sprintf("cluster: worker %d (%s) [%s]: %v", e.Machine, e.Addr, e.Kind, e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

// Stats reports what a cluster run did and cost: the run-stats struct every
// runtime shares, with the communication fields split into measured wire
// bytes and the simulated estimate the in-process runtimes report.
type Stats = core.PipelineStats
