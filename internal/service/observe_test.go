package service

import (
	"testing"

	"rms/internal/ode"
	"rms/internal/telemetry"
)

// TestObserveSolverPublishesWork checks that the step observer publishes
// the solver's work counters under the estimator's names, with sparse
// factorizations counted only from sparse attempts.
func TestObserveSolverPublishesWork(t *testing.T) {
	reg := telemetry.NewRegistry()
	obs := ObserveSolver(reg)
	obs(ode.StepEvent{H: 1e-3, Order: 2, Accepted: true, NewtonIters: 3, JEvals: 1,
		Factorizations: 2, FactorOps: 100, SolveOps: 40, Sparse: true})
	obs(ode.StepEvent{H: 1e-3, Order: 2, NewtonIters: 2, JEvals: 1,
		Factorizations: 1, FactorOps: 500, SolveOps: 60})
	for name, want := range map[string]int64{
		"ode.steps": 1, "ode.rejected_steps": 1, "ode.newton_iters": 5, "ode.jevals": 2,
		"ode.factorizations": 3, "ode.sparse_factorizations": 2,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for name, want := range map[string]float64{"ode.factor_ops": 600, "ode.solve_ops": 100} {
		if got := reg.FloatCounter(name).Value(); got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}
