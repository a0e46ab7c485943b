package ode

import (
	"math"
	"testing"
)

// TestStepEventsSumToStats checks that the per-attempt work deltas a
// BDF observer receives add up to the solver's cumulative Stats, on the
// dense and on the sparse Newton path. Integer counters match exactly;
// the float op counts are differences of running sums, so their sum may
// differ from the total in the last bits.
func TestStepEventsSumToStats(t *testing.T) {
	const n = 60
	f, denseJac, pattern, sparseJac := tridiagSystem(n, 400, 3)
	for _, sparse := range []bool{false, true} {
		opts := Options{RTol: 1e-8, ATol: 1e-11, Jacobian: denseJac}
		if sparse {
			opts.SparsePattern, opts.SparseJacobian = pattern, sparseJac
		}
		var sum Stats
		opts.Observer = func(ev StepEvent) {
			if ev.Accepted {
				sum.Steps++
			} else {
				sum.Rejected++
			}
			sum.NewtonIters += ev.NewtonIters
			sum.JEvals += ev.JEvals
			sum.Factorizations += ev.Factorizations
			if ev.Sparse {
				sum.SparseFactorizations += ev.Factorizations
			}
			sum.FactorOps += ev.FactorOps
			sum.SolveOps += ev.SolveOps
		}
		y := make([]float64, n)
		for i := range y {
			y[i] = math.Sin(float64(i+1)) + 1.5
		}
		s := NewBDF(f, n, opts)
		if err := s.Integrate(0, 0.5, y); err != nil {
			t.Fatal(err)
		}
		if s.Sparse() != sparse {
			t.Fatalf("sparse=%v: solver took the other path", sparse)
		}
		st := s.Stats()
		if st.JEvals == 0 || st.Factorizations == 0 {
			t.Fatalf("sparse=%v: no Newton work recorded: %+v", sparse, st)
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{{"FactorOps", sum.FactorOps, st.FactorOps}, {"SolveOps", sum.SolveOps, st.SolveOps}} {
			if c.want <= 0 || math.Abs(c.got-c.want) > 1e-12*c.want {
				t.Errorf("sparse=%v: summed %s = %v, Stats %v", sparse, c.name, c.got, c.want)
			}
		}
		// Fields no step event carries, and the float sums checked above.
		sum.FEvals, sum.SparseDemotions, sum.JacNNZ, sum.FillNNZ = st.FEvals, st.SparseDemotions, st.JacNNZ, st.FillNNZ
		sum.FactorOps, sum.SolveOps = st.FactorOps, st.SolveOps
		if sum != st {
			t.Errorf("sparse=%v: summed events %+v, Stats %+v", sparse, sum, st)
		}
	}
}
