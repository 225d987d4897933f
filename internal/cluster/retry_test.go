package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/edcs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/task"
)

// proxyPlan scripts how the flaky proxy mistreats one connection. The zero
// plan forwards everything faithfully (a healthy connection).
type proxyPlan struct {
	// dropAfterFrames closes both sides after forwarding this many
	// coordinator-to-worker frames (0 = no limit). The HELLO is frame 1, so
	// dropAfterFrames 2 kills the connection on the first SHARD.
	dropAfterFrames int
	// stall changes dropAfterFrames's behavior: instead of closing, the proxy
	// stops forwarding and holds both connections open — a worker that
	// accepted the run and then wedged.
	stall bool
	// dropAfterEOS closes both sides right after forwarding the coordinator's
	// EOS, so the worker computes its coreset but the answer never arrives.
	// The drop is ordered, not timed: the worker-to-coordinator pipe is muted
	// before the EOS goes out, so not even a worker that answers before the
	// close lands gets its CORESET through.
	dropAfterEOS bool
	// dropAfterCoreset closes both sides after forwarding this many
	// worker-to-coordinator CORESET frames (0 = no limit) — a worker that
	// survives exactly one round of a session.
	dropAfterCoreset int
}

// flakyProxy fronts a real worker at backend and misbehaves per connection:
// accepted connection i follows plans[i] (the last plan repeats for any
// further connections, so "fail once, then behave" is plans of length two).
// The returned closer tears down the listener and every tracked connection;
// tests must call it (or register it as cleanup) before asserting goroutine
// baselines.
func flakyProxy(t *testing.T, backend string, plans []proxyPlan) (addr string, closeFn func()) {
	t.Helper()
	if len(plans) == 0 {
		t.Fatal("flakyProxy needs at least one plan")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &proxy{ln: ln, done: make(chan struct{})}
	go func() {
		for i := 0; ; i++ {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			p.track(client)
			plan := plans[len(plans)-1]
			if i < len(plans) {
				plan = plans[i]
			}
			up, err := net.Dial("tcp", backend)
			if err != nil {
				client.Close()
				continue
			}
			p.track(up)
			muted := new(atomic.Bool) // set once this connection's EOS drop has triggered
			go p.pipeToWorker(client, up, plan, muted)
			go p.pipeToCoordinator(client, up, plan, muted)
		}
	}()
	return ln.Addr().String(), p.close
}

type proxy struct {
	ln    net.Listener
	done  chan struct{}
	mu    sync.Mutex
	conns []net.Conn
	once  sync.Once
}

func (p *proxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns = append(p.conns, c)
	p.mu.Unlock()
}

func (p *proxy) close() {
	p.once.Do(func() {
		close(p.done)
		p.ln.Close()
		p.mu.Lock()
		for _, c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
	})
}

// pipeToWorker relays coordinator-to-worker frames under the plan.
func (p *proxy) pipeToWorker(client, up net.Conn, plan proxyPlan, muted *atomic.Bool) {
	frames := 0
	for {
		typ, payload, _, err := readFrame(client)
		if err != nil {
			return
		}
		dropNow := plan.dropAfterEOS && typ == frameEOS
		if dropNow {
			// Before forwarding: whatever the worker sends in reply to this
			// EOS is read by the other pipe after the flag is set.
			muted.Store(true)
		}
		if _, err := writeFrame(up, typ, payload); err != nil {
			return
		}
		frames++
		if dropNow {
			client.Close()
			up.Close()
			return
		}
		if plan.dropAfterFrames > 0 && frames >= plan.dropAfterFrames {
			if plan.stall {
				<-p.done // wedge: hold both connections open, forward nothing
				return
			}
			client.Close()
			up.Close()
			return
		}
	}
}

// pipeToCoordinator relays worker-to-coordinator frames under the plan.
func (p *proxy) pipeToCoordinator(client, up net.Conn, plan proxyPlan, muted *atomic.Bool) {
	coresets := 0
	for {
		typ, payload, _, err := readFrame(up)
		if err != nil || muted.Load() {
			return
		}
		if _, err := writeFrame(client, typ, payload); err != nil {
			return
		}
		if typ == frameCoreset {
			coresets++
			if plan.dropAfterCoreset > 0 && coresets >= plan.dropAfterCoreset {
				client.Close()
				up.Close()
				return
			}
		}
	}
}

func containsInt(xs []int, want int) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// deadAddr returns a valid loopback address with nothing listening on it.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// assertSummariesEqual is the replay acceptance bar: the disturbed run's
// summaries must be deep-equal to the undisturbed run's — same coresets, same
// per-machine accounting — because replay reproduces the exact shard.
func assertSummariesEqual(t *testing.T, got, want []stream.Summary) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("machine count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i].Coreset, want[i].Coreset) {
			t.Fatalf("machine %d coreset diverged after replay", i)
		}
		if got[i].Edges != want[i].Edges || got[i].Stored != want[i].Stored || got[i].Live != want[i].Live {
			t.Fatalf("machine %d accounting diverged: got {%d %d %d} want {%d %d %d}",
				i, got[i].Edges, got[i].Stored, got[i].Live, want[i].Edges, want[i].Stored, want[i].Live)
		}
	}
}

// TestReplayRecovery drives the failure modes a worker can inflict mid-round
// through the replay path and demands full recovery with bit-identical
// results: crash during the shard stream, crash after EOS (the coreset never
// arrives), and a stall that only the IOTimeout can detect.
func TestReplayRecovery(t *testing.T) {
	for _, tc := range []struct {
		name string
		plan proxyPlan
		cfg  func(c *Config)
		// lax allows extra machines in ReplayedMachines: a short IOTimeout
		// can also trip on healthy-but-slow machines (e.g. under -race), and
		// those replays must recover too.
		lax bool
	}{
		{name: "crash-during-shard", plan: proxyPlan{dropAfterFrames: 2}},
		{name: "crash-awaiting-coreset", plan: proxyPlan{dropAfterEOS: true}},
		{name: "stall-hits-deadline", plan: proxyPlan{dropAfterFrames: 1, stall: true},
			cfg: func(c *Config) { c.IOTimeout = 2 * time.Second }, lax: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			backends := startWorkers(t, 3)
			proxyAddr, closeProxy := flakyProxy(t, backends[1], []proxyPlan{tc.plan, {}})
			t.Cleanup(closeProxy)

			g := gen.GNP(3000, 20.0/3000, rng.New(11))
			cfg := Config{
				Workers: []string{backends[0], proxyAddr, backends[2]},
				Seed:    11, BatchSize: 64,
				MaxRetries: 2, RetryBackoff: time.Millisecond,
			}
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			var sums []stream.Summary
			var st *Stats
			err := runWithTimeout(t, 30*time.Second, func() error {
				var err error
				sums, st, err = summaries(context.Background(), stream.NewGraphSource(g), cfg, matchingTask, task.Params{})
				return err
			})
			if err != nil {
				t.Fatalf("replay did not recover: %v", err)
			}
			if st.Retries < 1 {
				t.Fatalf("Retries = %d, want >= 1", st.Retries)
			}
			if tc.lax {
				if !containsInt(st.ReplayedMachines, 1) {
					t.Fatalf("ReplayedMachines = %v, want machine 1 replayed", st.ReplayedMachines)
				}
			} else if !reflect.DeepEqual(st.ReplayedMachines, []int{1}) {
				t.Fatalf("ReplayedMachines = %v, want [1]", st.ReplayedMachines)
			}

			// Oracle: the same run against three healthy workers, undisturbed.
			want, wantSt, err := summaries(context.Background(), stream.NewGraphSource(g),
				Config{Workers: backends, Seed: 11, BatchSize: 64}, matchingTask, task.Params{})
			if err != nil {
				t.Fatal(err)
			}
			assertSummariesEqual(t, sums, want)
			if st.EdgesTotal != wantSt.EdgesTotal {
				t.Fatalf("EdgesTotal %d, want %d", st.EdgesTotal, wantSt.EdgesTotal)
			}
			// Accounting honesty: the replayed machine's failed attempt still
			// cost wire bytes, so the disturbed run must report MORE shard
			// traffic than the clean one, never less.
			if st.ShardBytes <= wantSt.ShardBytes {
				t.Fatalf("ShardBytes %d not > undisturbed %d despite a replayed round", st.ShardBytes, wantSt.ShardBytes)
			}
		})
	}
}

// sessionShape is one way of holding the coordinator's conversation: a
// single-round run (round cap 1, the task's single-round HELLO) or a session
// round (the multi-round assignment). Tables over sessionShapes pin that a
// behavior belongs to the one conversation, not to one of its entry points.
type sessionShape struct {
	name string
	// rounds runs the shape over g under cfg and returns every round's
	// summaries and Stats: one round for a single-round run, two for a
	// session (round 1's input is round 0's union, as in internal/rounds).
	rounds func(ctx context.Context, g *graph.Graph, cfg Config) ([][]stream.Summary, []*Stats, error)
}

var sessionShapes = []sessionShape{
	{"single-round", func(ctx context.Context, g *graph.Graph, cfg Config) ([][]stream.Summary, []*Stats, error) {
		sums, st, err := summaries(ctx, stream.NewGraphSource(g), cfg, matchingTask, task.Params{})
		return [][]stream.Summary{sums}, []*Stats{st}, err
	}},
	{"session-round", func(ctx context.Context, g *graph.Graph, cfg Config) ([][]stream.Summary, []*Stats, error) {
		sess, err := Dial(ctx, cfg, edcsTask, task.Params{EDCS: edcs.ParamsForBeta(16)}, 2, g.N)
		if err != nil {
			return nil, nil, err
		}
		defer sess.Close()
		var allSums [][]stream.Summary
		var allSt []*Stats
		input := []graph.Edge(g.Edges)
		for r := 0; r < 2; r++ {
			sums, st, err := sess.Round(ctx, stream.NewSliceSource(g.N, input), len(cfg.Workers), cfg.Seed+uint64(r))
			if err != nil {
				return nil, nil, err
			}
			allSums, allSt = append(allSums, sums), append(allSt, st)
			input = nil
			for _, s := range sums {
				input = append(input, s.Coreset...)
			}
		}
		return allSums, allSt, sess.Close()
	}},
}

// TestReplayDialRefusedUsesSpare: a worker whose process is gone for good
// (its address refuses dials) burns one replay attempt on the original
// address, then recovers on a Config.Spares standby — in a single-round run
// and in a session alike, where the spare then serves the remaining rounds.
// With replay disabled the same dead address fails fast, typed.
func TestReplayDialRefusedUsesSpare(t *testing.T) {
	for _, shape := range sessionShapes {
		t.Run(shape.name, func(t *testing.T) {
			backends := startWorkers(t, 2)
			dead := deadAddr(t)
			g := gen.GNP(2000, 16.0/2000, rng.New(13))
			cfg := Config{
				Workers: []string{backends[0], dead},
				Spares:  []string{backends[1]},
				Seed:    13, BatchSize: 64,
				MaxRetries: 2, RetryBackoff: time.Millisecond,
			}
			var sums [][]stream.Summary
			var sts []*Stats
			err := runWithTimeout(t, 30*time.Second, func() error {
				var err error
				sums, sts, err = shape.rounds(context.Background(), g, cfg)
				return err
			})
			if err != nil {
				t.Fatalf("spare did not recover the run: %v", err)
			}
			if sts[0].Retries != 2 {
				t.Fatalf("Retries = %d, want 2 (one refused re-dial, one spare)", sts[0].Retries)
			}
			if !reflect.DeepEqual(sts[0].ReplayedMachines, []int{1}) {
				t.Fatalf("ReplayedMachines = %v, want [1]", sts[0].ReplayedMachines)
			}
			for r, st := range sts[1:] {
				if st.Retries != 0 {
					t.Fatalf("round %d: Retries = %d, want 0 (the spare's connection is the session's now)", r+1, st.Retries)
				}
			}
			// The result must not depend on which address served machine 1.
			want, _, err := shape.rounds(context.Background(), g, Config{Workers: backends, Seed: 13, BatchSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			for r := range want {
				assertSummariesEqual(t, sums[r], want[r])
			}

			// Fail fast, typed, when replay is off.
			cfg.MaxRetries = 0
			err = runWithTimeout(t, 30*time.Second, func() error {
				_, _, err := shape.rounds(context.Background(), g, cfg)
				return err
			})
			var we *WorkerError
			if !errors.As(err, &we) || we.Addr != dead || we.Kind != KindDial {
				t.Fatalf("err = %v, want a dial *WorkerError for %s", err, dead)
			}
			if errors.Is(err, ErrRetriesExhausted) {
				t.Fatalf("err = %v: replay was attempted with MaxRetries 0", err)
			}
		})
	}
}

// TestRetriesExhausted: when every replay attempt fails, the run must end
// with a typed, terminal error — errors.Is finds ErrRetriesExhausted,
// errors.As finds the machine, and Retryable is false.
func TestRetriesExhausted(t *testing.T) {
	backends := startWorkers(t, 1)
	g := gen.GNP(800, 0.01, rng.New(17))
	cfg := Config{
		Workers: []string{backends[0], deadAddr(t)},
		Seed:    17, BatchSize: 64,
		MaxRetries: 2, RetryBackoff: time.Millisecond,
	}
	err := runWithTimeout(t, 30*time.Second, func() error {
		_, _, err := summaries(context.Background(), stream.NewGraphSource(g), cfg, matchingTask, task.Params{})
		return err
	})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *WorkerError", err)
	}
	if we.Machine != 1 || we.Retryable {
		t.Fatalf("terminal error = machine %d retryable %v, want machine 1, not retryable", we.Machine, we.Retryable)
	}
}

// opaqueSource hides the Restart method of its inner source, making it
// non-restartable.
type opaqueSource struct{ inner stream.EdgeSource }

func (s *opaqueSource) Next(buf []graph.Edge) (int, error) { return s.inner.Next(buf) }
func (s *opaqueSource) NumVertices() int                   { return s.inner.NumVertices() }
func (s *opaqueSource) KnownUpfront() bool                 { return s.inner.KnownUpfront() }

// TestReplayNeedsRestartableSource: MaxRetries without a restartable source
// must keep the pre-replay fail-fast behavior — a typed error, not a hang and
// not a bogus replay.
func TestReplayNeedsRestartableSource(t *testing.T) {
	backends := startWorkers(t, 1)
	crash := crashingWorker(t, 1)
	g := gen.GNP(2000, 0.01, rng.New(19))
	cfg := Config{Workers: []string{backends[0], crash}, Seed: 19, BatchSize: 64,
		MaxRetries: 2, RetryBackoff: time.Millisecond}
	err := runWithTimeout(t, 30*time.Second, func() error {
		_, _, err := summaries(context.Background(), &opaqueSource{inner: stream.NewGraphSource(g)}, cfg, matchingTask, task.Params{})
		return err
	})
	var we *WorkerError
	if !errors.As(err, &we) || we.Machine != 1 {
		t.Fatalf("err = %v, want *WorkerError for machine 1", err)
	}
	if errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v: replay must not have been attempted without a restartable source", err)
	}
}

// TestIOTimeoutStalledWorker: a worker that accepts the run and then wedges
// must surface as a retryable KindDeadline *WorkerError within the IOTimeout
// — never a hang — even with replay disabled.
func TestIOTimeoutStalledWorker(t *testing.T) {
	backends := startWorkers(t, 2)
	proxyAddr, closeProxy := flakyProxy(t, backends[1], []proxyPlan{{dropAfterFrames: 1, stall: true}})
	t.Cleanup(closeProxy)
	g := gen.GNP(500, 0.02, rng.New(23))
	start := time.Now()
	err := runWithTimeout(t, 30*time.Second, func() error {
		_, _, err := Solve(context.Background(), stream.NewGraphSource(g),
			Config{Workers: []string{backends[0], proxyAddr}, Seed: 23, IOTimeout: 2 * time.Second}, matchingTask, task.Params{})
		return err
	})
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *WorkerError", err)
	}
	if we.Kind != KindDeadline || !we.Retryable {
		t.Fatalf("stalled worker classified %s retryable=%v, want deadline retryable", we.Kind, we.Retryable)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("stall took %v to surface; the IOTimeout did not fire", d)
	}
}

// TestJoinFailuresPrimaryFirst: joined concurrent failures must lead with the
// causally-first one and drop teardown-induced secondaries, so errors.Is /
// errors.As classify on the real cause — and never on context.Canceled or
// net.ErrClosed noise from the coordinator's own cleanup.
func TestJoinFailuresPrimaryFirst(t *testing.T) {
	primary := &WorkerError{Machine: 2, Addr: "a", Kind: KindConn, Retryable: true, Err: io.ErrUnexpectedEOF}
	induced := &WorkerError{Machine: 0, Addr: "b", Kind: KindConn, Retryable: true, Err: fmt.Errorf("write: %w", net.ErrClosed)}
	canceled := &WorkerError{Machine: 1, Addr: "c", Kind: KindConn, Retryable: true, Err: context.Canceled}
	genuine := &WorkerError{Machine: 3, Addr: "d", Kind: KindDeadline, Retryable: true, Err: os.ErrDeadlineExceeded}

	err := joinFailures([]*WorkerError{primary, induced, canceled, genuine})
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *WorkerError", err)
	}
	if we.Machine != 2 {
		t.Fatalf("errors.As found machine %d, want the causally-first machine 2", we.Machine)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want Is(io.ErrUnexpectedEOF) via the primary", err)
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v: the genuine secondary failure was dropped", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v: teardown-induced cancellation leaked into the joined error", err)
	}
	if errors.Is(err, net.ErrClosed) {
		t.Fatalf("err = %v: teardown-induced close leaked into the joined error", err)
	}
	// A single failure joins to itself, unadorned.
	if err := joinFailures([]*WorkerError{primary}); err != error(primary) {
		t.Fatalf("single failure joined to %v, want the failure itself", err)
	}
	if err := joinFailures(nil); err != nil {
		t.Fatalf("no failures joined to %v, want nil", err)
	}
}

// TestConcurrentWorkerFailures: two workers crashing in the same run must
// both fail the run with a *WorkerError primary, and the error must not read
// as a cancellation.
func TestConcurrentWorkerFailures(t *testing.T) {
	backends := startWorkers(t, 1)
	crashA := crashingWorker(t, 0)
	crashB := crashingWorker(t, 0)
	g := gen.GNP(2000, 0.01, rng.New(29))
	err := runWithTimeout(t, 30*time.Second, func() error {
		_, _, err := Solve(context.Background(), stream.NewGraphSource(g),
			Config{Workers: []string{backends[0], crashA, crashB}, Seed: 29, BatchSize: 64}, matchingTask, task.Params{})
		return err
	})
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *WorkerError", err)
	}
	if we.Machine == 0 {
		t.Fatalf("primary failure attributed to the healthy machine 0: %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v reads as a cancellation", err)
	}
}

// muteAfterCrash is a worker that fails the first pass and wedges the replay:
// its first connection drops right after the handshake, and every later one
// ACKs, drains SHARD frames through the EOS, reports that on sawEOS, and then
// never answers — holding the connection until the coordinator closes it.
func muteAfterCrash(t *testing.T) (addr string, sawEOS <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	eos := make(chan struct{}, 1)
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(crash bool) {
				defer conn.Close()
				if typ, _, _, err := readFrame(conn); err != nil || typ != frameHello {
					return
				}
				if _, err := writeFrame(conn, frameAck, []byte{protocolVersion}); err != nil || crash {
					return
				}
				for {
					typ, _, _, err := readFrame(conn)
					if err != nil {
						return
					}
					if typ == frameEOS {
						break
					}
				}
				select {
				case eos <- struct{}{}:
				default:
				}
				_, _ = io.Copy(io.Discard, conn) // returns when the coordinator hangs up
			}(i == 0)
		}
	}()
	return ln.Addr().String(), eos
}

// TestCancelDuringReplay: a cancellation that lands while a replay wave is
// awaiting a replayed CORESET — from a worker that will never send it, with
// the frame deadlines off — must end the round with the context error
// promptly and leak nothing. The replay wave is the same conversation as the
// first pass, so the same connection watch covers it.
func TestCancelDuringReplay(t *testing.T) {
	for _, shape := range sessionShapes {
		t.Run(shape.name, func(t *testing.T) {
			healthy := startWorkers(t, 1)
			mute, sawEOS := muteAfterCrash(t)
			baseline := runtime.NumGoroutine()

			g := gen.GNP(2000, 16.0/2000, rng.New(59))
			cfg := Config{
				Workers: []string{healthy[0], mute},
				Seed:    59, BatchSize: 64,
				MaxRetries: 2, RetryBackoff: time.Millisecond,
				IOTimeout: -1,
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var canceledAt time.Time
			go func() {
				select {
				case <-sawEOS: // the replay wave is in flight and will never be answered
					canceledAt = time.Now()
					cancel()
				case <-ctx.Done():
				}
			}()
			err := runWithTimeout(t, 15*time.Second, func() error {
				_, _, err := shape.rounds(ctx, g, cfg)
				return err
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if canceledAt.IsZero() {
				t.Fatal("the run ended before the replay wave was in flight")
			}
			if d := time.Since(canceledAt); d > 2*time.Second {
				t.Fatalf("cancellation took %v to surface", d)
			}
			waitGoroutines(t, baseline)
		})
	}
}

// sessionSeeds are the per-round sharding seeds the session replay tests
// share with their in-process oracle.
var sessionSeeds = []uint64{31, 32, 33}

// TestSessionReplayEveryRound is the tentpole acceptance test: a three-round
// EDCS session that loses its machine-1 connection EVERY round — mid-shard in
// round 0, then a connection that dies after each CORESET — must finish with
// per-round coresets deep-equal to the in-process streaming oracle, with each
// round's Stats recording its replay.
func TestSessionReplayEveryRound(t *testing.T) {
	backends := startWorkers(t, 2)
	// Connection 0 dies on its first SHARD frame; every replacement serves
	// exactly one CORESET and dies, so every round needs a replay.
	proxyAddr, closeProxy := flakyProxy(t, backends[1],
		[]proxyPlan{{dropAfterFrames: 2}, {dropAfterCoreset: 1}})
	t.Cleanup(closeProxy)

	const rounds = 3
	g := gen.GNP(600, 30.0/600, rng.New(37))
	p := edcs.ParamsForBeta(16)
	cfg := Config{
		Workers:      []string{backends[0], proxyAddr},
		BatchSize:    64,
		MaxRetries:   2,
		RetryBackoff: time.Millisecond,
	}
	sess, err := Dial(context.Background(), cfg, edcsTask, task.Params{EDCS: p}, rounds, g.N)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	input := []graph.Edge(g.Edges)
	for r := 0; r < rounds; r++ {
		seed := sessionSeeds[r]
		var sums []stream.Summary
		var st *Stats
		err := runWithTimeout(t, 30*time.Second, func() error {
			var err error
			sums, st, err = sess.Round(context.Background(), stream.NewSliceSource(g.N, input), 2, seed)
			return err
		})
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if st.Retries < 1 {
			t.Fatalf("round %d: Retries = %d, want >= 1 (the worker is lost every round)", r, st.Retries)
		}
		if !reflect.DeepEqual(st.ReplayedMachines, []int{1}) {
			t.Fatalf("round %d: ReplayedMachines = %v, want [1]", r, st.ReplayedMachines)
		}
		// In-process oracle for the same (input, k, seed).
		want, _, err := stream.Summaries(context.Background(),
			stream.NewSliceSource(g.N, input), stream.Config{K: 2, Seed: seed, BatchSize: 64}, edcsTask, task.Params{EDCS: p})
		if err != nil {
			t.Fatal(err)
		}
		assertSummariesEqual(t, sums, want)

		// Next round's input is the union of this round's coresets, in
		// machine order — exactly what internal/rounds feeds back.
		input = nil
		for _, s := range sums {
			input = append(input, s.Coreset...)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("Close after a replayed session: %v", err)
	}
}

// TestSessionCloseIdempotent: Close must be safe to call twice on a healthy
// session, and the session must be unusable afterwards.
func TestSessionCloseIdempotent(t *testing.T) {
	backends := startWorkers(t, 2)
	g := gen.GNP(400, 0.05, rng.New(41))
	sess, err := Dial(context.Background(), Config{Workers: backends}, edcsTask, task.Params{EDCS: edcs.ParamsForBeta(16)}, 2, g.N)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Round(context.Background(), stream.NewGraphSource(g), 2, 41); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("second Close: %v (must be idempotent)", err)
	}
	if _, _, err := sess.Round(context.Background(), stream.NewGraphSource(g), 2, 41); err == nil {
		t.Fatal("Round succeeded on a closed session")
	}
}

// TestSessionCloseAfterFailure: a session poisoned by a mid-round worker
// failure must keep the round's error as the only error — Close returns nil
// (twice), never teardown noise that could mask the cause.
func TestSessionCloseAfterFailure(t *testing.T) {
	backends := startWorkers(t, 2)
	proxyAddr, closeProxy := flakyProxy(t, backends[1], []proxyPlan{{dropAfterFrames: 2}})
	t.Cleanup(closeProxy)
	g := gen.GNP(2000, 16.0/2000, rng.New(43))
	// Replay disabled: the mid-round failure must poison the session.
	sess, err := Dial(context.Background(), Config{Workers: []string{backends[0], proxyAddr}, BatchSize: 64}, edcsTask, task.Params{EDCS: edcs.ParamsForBeta(16)}, 2, g.N)
	if err != nil {
		t.Fatal(err)
	}
	roundErr := runWithTimeout(t, 30*time.Second, func() error {
		_, _, err := sess.Round(context.Background(), stream.NewGraphSource(g), 2, 43)
		return err
	})
	var we *WorkerError
	if !errors.As(roundErr, &we) || we.Machine != 1 {
		t.Fatalf("Round err = %v, want *WorkerError for machine 1", roundErr)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("Close after mid-round failure: %v (must not mask the round error)", err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("double Close after failure: %v", err)
	}
}

// TestNoGoroutineLeaksReplay: every recovery path — successful replay, spare
// rotation, exhausted retries, deadline-detected stall — must return the
// process to its goroutine baseline.
func TestNoGoroutineLeaksReplay(t *testing.T) {
	baseline := runtime.NumGoroutine()
	addrs, shutdown, err := ServeLoopback(3)
	if err != nil {
		t.Fatal(err)
	}
	proxyAddr, closeProxy := flakyProxy(t, addrs[1], []proxyPlan{{dropAfterFrames: 2}, {}})
	stallAddr, closeStall := flakyProxy(t, addrs[2], []proxyPlan{{dropAfterFrames: 1, stall: true}, {}})
	g := gen.GNP(1500, 0.01, rng.New(47))

	// Successful replay after a crash.
	if _, _, err := Solve(context.Background(), stream.NewGraphSource(g),
		Config{Workers: []string{addrs[0], proxyAddr}, Seed: 47, BatchSize: 64,
			MaxRetries: 2, RetryBackoff: time.Millisecond}, matchingTask, task.Params{}); err != nil {
		t.Fatalf("replay run: %v", err)
	}
	// Successful replay after a stall (deadline detection).
	if _, _, err := Solve(context.Background(), stream.NewGraphSource(g),
		Config{Workers: []string{addrs[0], stallAddr}, Seed: 47, BatchSize: 64,
			IOTimeout: 2 * time.Second, MaxRetries: 2, RetryBackoff: time.Millisecond}, matchingTask, task.Params{}); err != nil {
		t.Fatalf("stall replay run: %v", err)
	}
	// Exhausted retries.
	if _, _, err := Solve(context.Background(), stream.NewGraphSource(g),
		Config{Workers: []string{addrs[0], deadAddr(t)}, Seed: 47, BatchSize: 64,
			MaxRetries: 1, RetryBackoff: time.Millisecond}, matchingTask, task.Params{}); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("exhausted run err = %v", err)
	}

	closeProxy()
	closeStall()
	shutdown()

	waitGoroutines(t, baseline)
}

// TestVersionSkewIsTerminal: a CORESET body does not describe its own format,
// so peers of different protocol versions must never get as far as one. Both
// directions of the skew end at the HELLO, typed and at once.
//
// A current worker answers an older coordinator's HELLO with an ERROR naming
// both versions. A current coordinator whose worker answers so — in a
// single-round run and in a session alike — reports a *WorkerError of
// KindHandshake that is not retryable, after exactly one dial of that worker:
// the replay budget is untouched, no backoff is slept, and the refusal
// surfaces well within one IOTimeout.
func TestVersionSkewIsTerminal(t *testing.T) {
	skew := fmt.Sprintf("protocol version %d, want %d", protocolVersion-1, protocolVersion)
	t.Run("worker refuses an older HELLO", func(t *testing.T) {
		conn, err := net.Dial("tcp", startWorkers(t, 1)[0])
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		old := hello{version: protocolVersion - 1, task: taskMatching, k: 1}
		if _, err := writeFrame(conn, frameHello, encodeHello(old)); err != nil {
			t.Fatal(err)
		}
		typ, payload, _, err := readFrameDeadline(conn, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if typ != frameError || !strings.Contains(string(payload), skew) {
			t.Fatalf("got frame 0x%02x %q, want an ERROR saying %q", typ, payload, skew)
		}
	})

	// olderWorker refuses every HELLO the way a worker one version behind
	// does, and counts the connections it was offered.
	olderWorker := func(t *testing.T) (addr string, dials *atomic.Int32) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		dials = new(atomic.Int32)
		refusal := fmt.Sprintf("cluster: protocol version %d, want %d", protocolVersion, protocolVersion-1)
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				dials.Add(1)
				if typ, _, _, err := readFrame(conn); err == nil && typ == frameHello {
					_, _ = writeFrame(conn, frameError, []byte(refusal)) // the test fails on what the coordinator reports
				}
				conn.Close()
			}
		}()
		return ln.Addr().String(), dials
	}
	for _, shape := range sessionShapes {
		t.Run("coordinator/"+shape.name, func(t *testing.T) {
			older, dials := olderWorker(t)
			sink := newMemSink()
			g := gen.GNP(2000, 16.0/2000, rng.New(29))
			const ioTimeout = 5 * time.Second
			cfg := Config{
				Workers: []string{startWorkers(t, 1)[0], older},
				Spares:  startWorkers(t, 1), // a replay would find a healthy standby
				Seed:    29, BatchSize: 64,
				MaxRetries: 3, RetryBackoff: ioTimeout, // one backoff sleep would blow the deadline below
				IOTimeout: ioTimeout, Obs: sink,
			}
			start := time.Now()
			err := runWithTimeout(t, 30*time.Second, func() error {
				_, _, err := shape.rounds(context.Background(), g, cfg)
				return err
			})
			var we *WorkerError
			if !errors.As(err, &we) {
				t.Fatalf("err = %v, want *WorkerError", err)
			}
			if we.Kind != KindHandshake || we.Retryable || we.Machine != 1 || we.Addr != older {
				t.Fatalf("failure %+v, want a terminal KindHandshake on machine 1 (%s)", we, older)
			}
			want := fmt.Sprintf("protocol version %d, want %d", protocolVersion, protocolVersion-1)
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want it to carry the worker's %q", err, want)
			}
			if errors.Is(err, ErrRetriesExhausted) {
				t.Fatalf("err = %v: the replay budget was spent on a refusal", err)
			}
			if got := dials.Load(); got != 1 {
				t.Fatalf("the refusing worker was dialed %d times, want 1", got)
			}
			if got := sink.get(MetricDialAttempts); got != 2 {
				t.Fatalf("%s = %d, want 2 (one per machine)", MetricDialAttempts, got)
			}
			for _, name := range []string{MetricRetries, MetricReplays, MetricBackoffSleeps} {
				if got := sink.get(name); got != 0 {
					t.Fatalf("%s = %d, want 0", name, got)
				}
			}
			if d := time.Since(start); d >= ioTimeout {
				t.Fatalf("the refusal took %v to surface, IOTimeout is %v", d, ioTimeout)
			}
		})
	}
}
