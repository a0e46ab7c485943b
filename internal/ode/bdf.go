package ode

import (
	"fmt"
	"math"

	"rms/internal/linalg"
)

// BDF coefficients: y_{n+1} = Σ alpha[q][i]·y_{n-i} + h·beta[q]·f(t_{n+1}, y_{n+1}).
var (
	bdfAlpha = [6][]float64{
		nil,
		{1},
		{4.0 / 3, -1.0 / 3},
		{18.0 / 11, -9.0 / 11, 2.0 / 11},
		{48.0 / 25, -36.0 / 25, 16.0 / 25, -3.0 / 25},
		{300.0 / 137, -300.0 / 137, 200.0 / 137, -75.0 / 137, 12.0 / 137},
	}
	bdfBeta = [6]float64{0, 1, 2.0 / 3, 6.0 / 11, 12.0 / 25, 60.0 / 137}
)

// BDF is the Adams-Gear stiff solver: variable-order (1–5)
// backward-differentiation formulas with quasi-constant step size, a
// modified-Newton corrector with a lazily refreshed finite-difference
// Jacobian, and polynomial history rescaling on step changes.
type BDF struct {
	f    Func
	n    int
	opts Options

	stats Stats

	// integration state
	hist  history // hist.rows[i] = y at t - i*h
	order int
	h     float64

	// continuation state: like IMSL's Adams-Gear state handle, an
	// integration that starts exactly where the previous one ended
	// continues with the accumulated history, order and step instead of
	// restarting at order 1 — the usage pattern of the estimator's
	// record-to-record loop (Fig. 9).
	initialized bool
	tInt        float64   // internal time of hist[0] (may be past tCur)
	tCur        float64   // endpoint reported by the last Integrate
	yOut        []float64 // y reported at tCur (continuation check)

	// Newton workspace
	jac        *linalg.Matrix // cached df/dy (dense path)
	jacFresh   bool
	lu         *linalg.LU
	haveFactor bool    // a usable factorization (dense or sparse) exists
	luH        float64 // h*beta the current factorization was built for
	f0, f1     []float64
	ypred      []float64
	ycorr      []float64
	rhsConst   []float64
	residual   []float64
	delta      []float64
	scratch    []float64
	streak     int // consecutive accepted steps at the current order

	// Sparse Newton path (see Options.SparsePattern): cached sparse df/dy,
	// the iteration matrix with the same layout, its diagonal offsets, and
	// the sparse LU whose symbolic factorization is computed once.
	sparse      bool
	sparseInit  bool
	sparseFails int // consecutive sparse refactorization failures
	jacCSR      *linalg.CSR
	mCSR        *linalg.CSR
	mDiag       []int32
	slu         *linalg.SparseLU
	iterMat     *linalg.Matrix // dense iteration-matrix workspace, reused
}

// sparseFailLimit is how many consecutive sparse refactorization failures
// the solver tolerates before demoting itself to the dense LU path for
// good. Step-size shrinks between attempts give the sparse path real
// chances to recover; persistent failure means the pivot-free sparse
// factorization cannot handle this iteration matrix.
const sparseFailLimit = 3

// NewBDF returns an Adams-Gear solver for an n-dimensional system.
func NewBDF(f Func, n int, opts Options) *BDF {
	return &BDF{
		f: f, n: n, opts: opts,
		hist:     history{width: n},
		f0:       make([]float64, n),
		f1:       make([]float64, n),
		ypred:    make([]float64, n),
		ycorr:    make([]float64, n),
		rhsConst: make([]float64, n),
		residual: make([]float64, n),
		delta:    make([]float64, n),
		scratch:  make([]float64, n),
	}
}

// initSparse decides once whether this integration uses the sparse Newton
// path: a sparse Jacobian must be supplied, the pattern must match the
// dimension and clear the density/size thresholds, and the symbolic
// factorization must succeed. Any failure falls back to dense.
func (s *BDF) initSparse(o Options) {
	if s.sparseInit {
		return
	}
	s.sparseInit = true
	if o.SparseJacobian == nil || o.SparsePattern == nil {
		return
	}
	pat := o.SparsePattern
	if pat.N != s.n || s.n < o.SparseMinDim || o.SparseThreshold < 0 ||
		pat.Density() > o.SparseThreshold {
		return
	}
	var slu *linalg.SparseLU
	if o.SymbolicLU != nil && o.SymbolicLU.N() == s.n {
		slu = o.SymbolicLU.Fork()
	} else {
		var err error
		slu, err = linalg.NewSparseLU(pat)
		if err != nil {
			return // pattern misses a diagonal: unusable without pivoting
		}
	}
	s.jacCSR = pat.Clone()
	s.mCSR = pat.Clone()
	s.mDiag = make([]int32, s.n)
	for i := 0; i < s.n; i++ {
		s.mDiag[i] = int32(s.mCSR.Index(i, i))
	}
	s.slu = slu
	s.sparse = true
	s.stats.JacNNZ = pat.NNZ()
	s.stats.FillNNZ = slu.FillNNZ()
}

// Sparse reports whether the solver runs the sparse Newton path.
func (s *BDF) Sparse() bool { return s.sparse }

// Stats returns cumulative work counters.
func (s *BDF) Stats() Stats { return s.stats }

// Integrate advances y from t0 to t1 in place.
//
// Like the production stiff codes (and IMSL's Adams-Gear state handle),
// the solver free-runs: it steps with its natural step size until the
// internal time covers t1 and reports y(t1) by interpolating the history
// polynomial. A following call that starts exactly at the previous
// endpoint continues with the accumulated history, order and step — the
// estimator's record-to-record loop (Fig. 9) costs interpolations, not
// solver restarts. FixedStep mode (a testing hook) keeps exact-grid
// stepping without continuation.
func (s *BDF) Integrate(t0, t1 float64, y []float64) error {
	if len(y) != s.n {
		return errWrap(errShape(len(y), s.n), t0)
	}
	if t1 == t0 {
		return nil
	}
	o := s.opts.withDefaults(t0, t1)
	s.initSparse(o)
	dir := 1.0
	if t1 < t0 {
		dir = -1
	}
	if o.FixedStep > 0 {
		return s.integrateFixed(t0, t1, dir, o, y)
	}
	if !s.canContinue(t0, t1, y, dir) {
		s.reset(t0, y, o, dir)
	}
	// Step until the internal time covers t1.
	for steps := 0; (s.tInt-t1)*dir < 0 && !reached(s.tInt, t1, dir); steps++ {
		if steps > o.MaxSteps {
			s.initialized = false
			return errWrap(ErrTooManySteps, s.tInt)
		}
		if err := o.Budget.Check(); err != nil {
			// Cooperative cancellation: leave y at the last accepted state
			// so the caller holds a well-formed partial trajectory.
			copy(y, s.hist.rows[0])
			s.initialized = false
			return errWrap(err, s.tInt)
		}
		tStep, hStep, orderStep := s.tInt, s.h, s.order
		pre := s.stats
		accepted, errNorm, err := s.attemptStep(s.tInt, o)
		if err != nil {
			s.initialized = false
			return errWrap(err, s.tInt)
		}
		if o.Observer != nil {
			o.Observer(StepEvent{
				T: tStep, H: hStep, Order: orderStep,
				Accepted: accepted, ErrNorm: errNorm,
				NewtonIters:    s.stats.NewtonIters - pre.NewtonIters,
				Factorizations: s.stats.Factorizations - pre.Factorizations,
				JEvals:         s.stats.JEvals - pre.JEvals,
				FactorOps:      s.stats.FactorOps - pre.FactorOps,
				SolveOps:       s.stats.SolveOps - pre.SolveOps,
				Sparse:         s.sparse,
			})
		}
		if accepted {
			s.tInt += s.h
			s.stats.Steps++
			s.streak++
			s.adaptOrderAndStep(errNorm, o)
		} else {
			s.stats.Rejected++
			s.streak = 0
			// Shrink; drop the order if failures persist at order > 1.
			shrink := math.Max(0.1, math.Min(0.5, 0.9*math.Pow(errNorm, -1.0/float64(s.order+1))))
			if s.order > 1 && errNorm > 100 {
				s.order--
			}
			s.rescaleHistory(shrink)
			s.h *= shrink
			if math.Abs(s.h) < o.MinStep {
				s.initialized = false
				return errWrap(ErrStepTooSmall, s.tInt)
			}
		}
	}
	// Interpolate the solution at t1 (x in units of h behind the newest
	// history point; the last step brackets t1, so x stays within the
	// stored history).
	x := (t1 - s.tInt) / s.h
	s.hist.eval(s.order+1, x, y)
	s.initialized = true
	s.tCur = t1
	s.yOut = append(s.yOut[:0], y...)
	return nil
}

// reset discards all state and starts a fresh integration at (t0, y).
func (s *BDF) reset(t0 float64, y []float64, o Options, dir float64) {
	s.h = o.InitialStep * dir
	if o.MaxStep < math.Abs(s.h) {
		s.h = o.MaxStep * dir
	}
	s.order = 1
	s.hist.reset(y)
	s.tInt = t0
	s.jacFresh = false
	s.lu = nil
	s.haveFactor = false
	s.streak = 0
	s.initialized = false
}

// canContinue reports whether this call resumes exactly where the last
// one ended, so the accumulated history remains valid.
func (s *BDF) canContinue(t0, t1 float64, y []float64, dir float64) bool {
	if !s.initialized || len(s.hist.rows) == 0 {
		return false
	}
	if t0 != s.tCur {
		return false
	}
	// The caller must not have touched the state between calls, and the
	// direction must match the history grid.
	for i := range y {
		if y[i] != s.yOut[i] {
			return false
		}
	}
	return dir == sign(s.h)
}

// integrateFixed is the exact-grid fixed-step path used by the
// convergence-order tests.
func (s *BDF) integrateFixed(t0, t1, dir float64, o Options, y []float64) error {
	s.reset(t0, y, o, dir)
	s.h = o.FixedStep * dir
	t := t0
	if o.FixedOrder > 1 {
		// Populate the startup history with a high-accuracy Runge-Kutta
		// starter so the measured order is the BDF formula's, not the
		// order-1 startup's.
		starter := NewRKV65(s.f, s.n, Options{RTol: 1e-12, ATol: 1e-14})
		ys := append([]float64(nil), y...)
		for i := 1; i < o.FixedOrder; i++ {
			if err := starter.Integrate(t, t+s.h, ys); err != nil {
				return errWrap(err, t)
			}
			t += s.h
			s.hist.push(ys)
		}
		s.order = o.FixedOrder
	}
	for steps := 0; ; steps++ {
		if steps > o.MaxSteps {
			return errWrap(ErrTooManySteps, t)
		}
		if err := o.Budget.Check(); err != nil {
			copy(y, s.hist.rows[0])
			return errWrap(err, t)
		}
		if reached(t, t1, dir) {
			copy(y, s.hist.rows[0])
			return nil
		}
		if (t+s.h-t1)*dir > 0 {
			s.rescaleHistory((t1 - t) / s.h)
			s.h = t1 - t
		}
		accepted, _, err := s.attemptStep(t, o)
		if err != nil {
			return errWrap(err, t)
		}
		if !accepted {
			return errWrap(ErrStepTooSmall, t)
		}
		t += s.h
		s.stats.Steps++
		s.adaptOrderAndStep(0, o)
	}
}

// attemptStep tries one BDF step of the current order and size; on Newton
// convergence it computes the error estimate and, if acceptable, shifts
// the history. It returns (accepted, errNorm).
func (s *BDF) attemptStep(t float64, o Options) (bool, float64, error) {
	q := s.order
	if q > len(s.hist.rows) {
		q = len(s.hist.rows)
	}
	yn := s.hist.rows[0]
	tNew := t + s.h

	// Predictor: extrapolate the interpolating polynomial through the
	// history to the new time (x measured in steps: hist[i] at -i, target +1).
	s.hist.eval(q+1, 1.0, s.ypred)

	// Constant part of the corrector equation.
	for i := range s.rhsConst {
		s.rhsConst[i] = 0
	}
	for i := 0; i < q; i++ {
		linalg.Axpy(bdfAlpha[q][i], s.hist.rows[i], s.rhsConst)
	}
	hb := s.h * bdfBeta[q]

	ok, err := s.newton(tNew, hb, o)
	if err != nil {
		return false, 0, err
	}
	if !ok {
		// Newton failed with a fresh Jacobian: reduce the step sharply.
		s.rescaleHistory(0.25)
		s.h *= 0.25
		s.stats.Rejected++
		if math.Abs(s.h) < o.MinStep {
			return false, 0, ErrStepTooSmall
		}
		return false, math.Inf(1), nil
	}

	// Local error estimate from the corrector-predictor difference.
	for i := range s.scratch {
		s.scratch[i] = (s.ycorr[i] - s.ypred[i]) / float64(q+1)
	}
	errNorm := weightedNorm(s.scratch, yn, s.ycorr, o.ATol, o.RTol)
	if o.FixedStep > 0 {
		errNorm = 0 // fixed-step mode accepts unconditionally
	}
	if errNorm > 1 {
		return false, errNorm, nil
	}
	// Accept: shift history.
	s.hist.push(s.ycorr)
	return true, errNorm, nil
}

// newton runs the modified-Newton corrector for
// y - hb·f(t,y) - rhsConst = 0, starting from the predictor.
func (s *BDF) newton(t, hb float64, o Options) (bool, error) {
	copy(s.ycorr, s.ypred)
	refreshed := false
	for pass := 0; pass < 2; pass++ {
		if !s.haveFactor || s.luH != hb || (pass == 1 && !refreshed) {
			if pass == 1 || !s.jacFresh {
				if err := s.buildJacobian(t); err != nil {
					return false, err
				}
				refreshed = true
			}
			if err := s.factor(hb); err != nil {
				// Singular iteration matrix: treat as Newton failure so the
				// step size shrinks.
				s.haveFactor = false
				return false, nil
			}
		}
		converged := true
		for iter := 0; iter < 6; iter++ {
			s.stats.NewtonIters++
			s.f(t, s.ycorr, s.f1)
			s.stats.FEvals++
			for i := range s.residual {
				s.residual[i] = s.ycorr[i] - hb*s.f1[i] - s.rhsConst[i]
			}
			if err := s.solveNewton(s.delta, s.residual); err != nil {
				s.haveFactor = false
				return false, nil
			}
			delta := s.delta
			for i := range s.ycorr {
				s.ycorr[i] -= delta[i]
			}
			dn := weightedNorm(delta, s.ycorr, s.ycorr, o.ATol, o.RTol)
			if dn < 0.3 {
				return true, nil
			}
			if iter == 5 {
				converged = false
			}
		}
		if converged {
			return true, nil
		}
		// Retry once with a fresh Jacobian.
		copy(s.ycorr, s.ypred)
		if refreshed {
			return false, nil
		}
	}
	return false, nil
}

// solveNewton solves the factored iteration matrix against b into dst,
// in place on whichever path is active.
func (s *BDF) solveNewton(dst, b []float64) error {
	if s.sparse {
		s.stats.SolveOps += float64(s.slu.SolveFlops())
		return s.slu.SolveTo(dst, b)
	}
	n := float64(s.n)
	s.stats.SolveOps += 2 * n * n
	return s.lu.SolveTo(dst, b)
}

// buildJacobian computes df/dy at (t, hist[0]) — into CSR storage on the
// sparse path, analytically when the caller supplied a dense Jacobian, by
// forward differences otherwise.
func (s *BDF) buildJacobian(t float64) error {
	y := s.hist.rows[0]
	if s.sparse {
		s.opts.SparseJacobian(t, y, s.jacCSR)
		s.jacFresh = true
		s.stats.JEvals++
		return nil
	}
	if s.jac == nil {
		s.jac = linalg.NewMatrix(s.n, s.n)
	}
	if s.opts.Jacobian != nil {
		s.opts.Jacobian(t, y, s.jac)
		s.jacFresh = true
		s.stats.JEvals++
		return nil
	}
	s.f(t, y, s.f0)
	s.stats.FEvals++
	copy(s.scratch, y)
	const sqrtEps = 1.4901161193847656e-08
	for j := 0; j < s.n; j++ {
		d := sqrtEps * math.Max(math.Abs(y[j]), 1e-5)
		s.scratch[j] = y[j] + d
		s.f(t, s.scratch, s.f1)
		s.stats.FEvals++
		inv := 1 / d
		for i := 0; i < s.n; i++ {
			s.jac.Set(i, j, (s.f1[i]-s.f0[i])*inv)
		}
		s.scratch[j] = y[j]
	}
	s.jacFresh = true
	s.stats.JEvals++
	return nil
}

// factor builds and factors the iteration matrix M = I - hb·J: a numeric
// refactorization over the one-time symbolic pattern on the sparse path,
// a dense LU with partial pivoting otherwise.
func (s *BDF) factor(hb float64) error {
	nf := float64(s.n)
	if s.sparse {
		md := s.mCSR.Data
		for p, v := range s.jacCSR.Data {
			md[p] = -hb * v
		}
		for _, d := range s.mDiag {
			md[d]++
		}
		if err := s.slu.Refactor(s.mCSR); err != nil {
			// Degradation ladder: the sparse LU has no pivoting, so a
			// persistently troublesome iteration matrix can defeat it where
			// the partial-pivoting dense LU survives. After a few
			// consecutive failures retire the sparse path and continue
			// dense — slower, but the integration completes.
			s.sparseFails++
			s.jacFresh = false // rebuild before the next attempt: the
			// failure may be a transient bad Jacobian, not the pattern
			if s.sparseFails >= sparseFailLimit {
				s.sparse = false
				s.stats.SparseDemotions++
				s.haveFactor = false
				s.opts.Log.Warn("degrade", "sparse LU demoted to dense",
					"consecutive_failures", s.sparseFails)
			}
			return err
		}
		s.sparseFails = 0
		s.luH = hb
		s.haveFactor = true
		s.stats.Factorizations++
		s.stats.SparseFactorizations++
		s.stats.FactorOps += float64(s.slu.RefactorFlops())
		return nil
	}
	if s.iterMat == nil {
		s.iterMat = linalg.NewMatrix(s.n, s.n)
	}
	m := s.iterMat
	for i := 0; i < s.n; i++ {
		for j := 0; j < s.n; j++ {
			v := -hb * s.jac.At(i, j)
			if i == j {
				v += 1
			}
			m.Set(i, j, v)
		}
	}
	lu, err := m.LU()
	if err != nil {
		return err
	}
	s.lu = lu
	s.luH = hb
	s.haveFactor = true
	s.stats.Factorizations++
	s.stats.FactorOps += (2.0 / 3.0) * nf * nf * nf
	return nil
}

// adaptOrderAndStep grows the order up the ladder after a streak of
// successes and rescales the step from the error estimate.
func (s *BDF) adaptOrderAndStep(errNorm float64, o Options) {
	if o.FixedOrder > 0 {
		if s.order < o.FixedOrder && len(s.hist.rows) > s.order {
			s.order++
		}
	} else if s.order < 5 && s.streak > s.order+1 && len(s.hist.rows) > s.order {
		s.order++
		s.streak = 0
	}
	if o.FixedStep > 0 {
		return
	}
	factor := 0.9 * math.Pow(math.Max(errNorm, 1e-10), -1.0/float64(s.order+1))
	factor = math.Min(2.5, math.Max(0.5, factor))
	if factor > 1.1 || factor < 0.9 {
		s.rescaleHistory(factor)
		s.h *= factor
		if math.Abs(s.h) > o.MaxStep {
			s.rescaleHistory(o.MaxStep / math.Abs(s.h))
			s.h = o.MaxStep * sign(s.h)
		}
		// Step changes invalidate the factorization's h·beta.
		s.luH = math.NaN()
		s.jacFresh = false
	}
}

// rescaleHistory re-samples the stored history polynomial onto a grid
// with spacing ratio·h, keeping the current point fixed.
func (s *BDF) rescaleHistory(ratio float64) {
	if s.hist.rescale(ratio) {
		s.luH = math.NaN()
	}
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}

// String summarizes the solver configuration for diagnostics.
func (s *BDF) String() string {
	return fmt.Sprintf("BDF(n=%d, order=%d)", s.n, s.order)
}
