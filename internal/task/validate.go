package task

import (
	"fmt"

	"repro/internal/edcs"
)

// MaxRounds is the sanity cap on the multi-round cap that every user-facing
// surface shares (CLI flag, service job field); internal/rounds enforces the
// same bound on its Config. Well under the cluster wire protocol's own cap.
const MaxRounds = 64

// MaxBeta is the EDCS degree-bound cap shared by every surface, so a
// request one surface admits can never be rejected downstream by another
// (the cluster wire protocol enforces the same bound on HELLO).
const MaxBeta = edcs.MaxBeta

// ValidateParams checks the task-scoped parameters — the EDCS degree bound
// and the multi-round cap — against the registry's capability flags. Every
// user-facing surface shares it: coreset run's flags, coreset load's
// flags, the service's job API and engine.Run all call it, so the surfaces
// cannot drift on bounds or message text. Zero means "not set" for both
// parameters; the returned error text is the canonical vocabulary, to which
// each caller adds its own prefix.
//
// Which tasks a parameter applies to comes from the registry (UsesBeta,
// WireRounds), not from hardcoded names, so registering a new
// beta-consuming task automatically widens what these checks admit.
func ValidateParams(task string, beta, rounds int) error {
	if beta != 0 {
		if d, ok := Get(task); !ok || !d.UsesBeta {
			return fmt.Errorf("beta only applies to task %q (got task %q)", betaCapable().Name, task)
		}
		if beta < 2 || beta > MaxBeta {
			return fmt.Errorf("beta must be in [2, %d] (got %d)", MaxBeta, beta)
		}
	}
	if rounds != 0 {
		if d, ok := Get(task); !ok || d.WireRounds == 0 {
			return fmt.Errorf("rounds only applies to task %q (got task %q)", RoundsCapable().Name, task)
		}
		if rounds < 0 || rounds > MaxRounds {
			return fmt.Errorf("rounds must be in [0, %d] (got %d)", MaxRounds, rounds)
		}
	}
	return nil
}
