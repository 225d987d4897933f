package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/obs"
	"repro/internal/stream"
)

// Round replay. When a worker fails retryably mid-round, the coordinator
// does not abort: the round's input is either coordinator state (the union,
// rounds >= 1 of the MPC driver) or a restartable source, and sharding is a
// seeded hash — so any machine's shard can be regenerated deterministically
// and replayed against a fresh connection. The replayed machine produces
// bit-identical coresets (partition.HashAssign routes the identical edge
// sequence; batch granularity does not affect machine results), which is
// what keeps a disturbed run deep-equal to an undisturbed one.
//
// A replay wave is not a second conversation: once the round's first pass
// has finished — the healthy machines' results are in hand — Session.Round
// re-enters the same pass for the failed machines only. rearm, below, is
// what happens between two passes: the budget check, the capped exponential
// backoff, the source restart, and the re-dial of every still-failed machine
// (rotating in a spare address after a failed replay attempt). The
// replacement connections belong to the session like any other, so in a
// multi-round run they serve the remaining rounds. Waves repeat until every
// machine has answered or one spends its MaxRetries budget, which fails the
// round with a terminal, non-retryable ErrRetriesExhausted WorkerError.

// ioKind classifies a transport error: deadline expiries are KindDeadline
// (a stalled peer), everything else that broke a live connection is
// KindConn.
func ioKind(err error) FailureKind {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return KindDeadline
	}
	return KindConn
}

// joinFailures folds concurrent worker failures into one error: the
// causally-first failure leads (so errors.As finds the primary), and real
// secondary failures ride along via errors.Join. Secondaries induced by the
// coordinator's own teardown — force-closed connections, canceled dials —
// are dropped: they are consequences of the primary, not causes, and
// keeping them would leak context.Canceled into errors.Is checks.
func joinFailures(fails []*WorkerError) error {
	if len(fails) == 0 {
		return nil
	}
	errs := []error{fails[0]}
	for _, we := range fails[1:] {
		if errors.Is(we.Err, net.ErrClosed) || errors.Is(we.Err, context.Canceled) {
			continue
		}
		errs = append(errs, we)
	}
	if len(errs) == 1 {
		return errs[0]
	}
	return errors.Join(errs...)
}

// notRestartable annotates a joined worker failure with a typed
// *stream.NotRestartableError naming the concrete source kind. It is used on
// fail-fast paths where replay was configured (MaxRetries > 0) and every
// failure was retryable, yet the run could not replay because the source
// cannot rewind — so the error says which input to fix instead of a generic
// failure. The worker failure stays first, so errors.As finds the primary
// *WorkerError exactly as before.
func notRestartable(failErr error, src stream.EdgeSource) error {
	return errors.Join(failErr, &stream.NotRestartableError{Source: fmt.Sprintf("%T", src)})
}

// allRetryable reports whether every recorded failure may be replayed.
func allRetryable(fails []*WorkerError) bool {
	for _, we := range fails {
		if !we.Retryable {
			return false
		}
	}
	return true
}

// rearm readies a replay wave for the round's still-failed machines (in
// ascending order, each down with its failure recorded on its link). The
// lowest machine whose budget is spent turns the round terminal. A machine's
// first replay attempt re-dials its own address (a crashed-and-restarted
// worker is the common case); later attempts consume a spare while one
// remains. Machines whose re-dial fails stay down and fail the coming pass
// with the new error.
func (s *Session) rearm(ctx context.Context, src stream.Restartable, failed, attempts []int, backoff time.Duration) error {
	// terminal leads with primary and lets the other failed machines ride
	// along, as in any joined round error.
	terminal := func(primary *WorkerError) error {
		fails := []*WorkerError{primary}
		for _, m := range failed {
			if m != primary.Machine {
				fails = append(fails, s.links[m].down)
			}
		}
		return joinFailures(fails)
	}
	for _, m := range failed {
		if we := s.links[m].down; attempts[m] >= s.cfg.MaxRetries {
			return terminal(&WorkerError{
				Machine: m, Addr: we.Addr, Kind: we.Kind, Retryable: false,
				Err: fmt.Errorf("%w: %d replay attempts: %w", ErrRetriesExhausted, attempts[m], we.Err),
			})
		}
	}
	obs.Count(s.cfg.Obs, MetricBackoffSleeps, 1)
	if err := sleepCtx(ctx, backoff); err != nil {
		return err
	}
	// One deterministic re-scan of the round input per wave.
	if err := src.Restart(); err != nil {
		we := s.links[failed[0]].down
		return terminal(&WorkerError{
			Machine: we.Machine, Addr: we.Addr, Kind: we.Kind, Retryable: false,
			Err: fmt.Errorf("replay needs a restartable source (%v): %w", err, we.Err),
		})
	}
	for _, m := range failed {
		if attempts[m] > 0 && len(s.spares) > 0 {
			s.links[m].addr, s.spares = s.spares[0], s.spares[1:]
		}
		attempts[m]++
		obs.Count(s.cfg.Obs, MetricRetries, 1)
	}
	s.connect(ctx, failed)
	return nil
}

// sleepCtx waits d or until ctx is canceled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
