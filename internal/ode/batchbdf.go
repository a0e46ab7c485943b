package ode

import (
	"fmt"
	"math"

	"rms/internal/linalg"
)

// Lockstep batched BDF: one Adams-Gear integration advancing B
// independent copies (lanes) of the same n-dimensional system through a
// shared step sequence. The step size, order and history grid are common
// to the batch — step control max-reduces the per-lane error norms — so
// the right-hand side is evaluated once per corrector iteration for the
// whole batch through a structure-of-arrays BatchFunc
// (codegen.BatchEvaluator.EvalBatch), which is where the batch path's
// throughput comes from. Linear algebra stays per-lane: every lane keeps
// its own Jacobian and LU factors, sharing only the sparsity pattern and
// its one-time symbolic factorization (linalg.SparseLU.Fork).
//
// Lanes mask out independently: a lane drops from the active set when
// its output grid is exhausted (done) or when it alone is responsible
// for driving the common step below MinStep (failed, see LaneErr) —
// either way without stalling the rest of the batch.
//
// The per-lane arithmetic deliberately mirrors BDF's step for step: a
// batch whose lanes all start from the serial solver's state reproduces
// the serial solution bit for bit (the conformance harness's "batch"
// stage checks exactly that).

// BatchFunc evaluates dy = f(t, y) for every lane at once. y and dy are
// slot-major structure-of-arrays: component i of lane l lives at
// [i*B + l], with total length n·B.
type BatchFunc func(t float64, y, dy []float64)

// BatchJac fills each active lane's sparse Jacobian ∂f/∂y at the batched
// state y (SoA as in BatchFunc). dst[l] has the layout of
// BatchOptions.Pattern; lanes with active[l] == false must be left
// untouched. codegen.BatchJacEvaluator.EvalCSR has exactly this shape.
type BatchJac func(t float64, y []float64, active []bool, dst []*linalg.CSR)

// BatchOptions configures a batched solver. The embedded Options provide
// the tolerances and step-control limits; the per-lane callback fields
// (Jacobian, SparseJacobian, SparsePattern, Observer) are ignored — the
// batched analytic-Jacobian path uses BatchJacobian/Pattern instead.
type BatchOptions struct {
	Options
	// BatchJacobian, when non-nil together with Pattern, supplies analytic
	// per-lane Jacobians in one batched tape sweep. When nil the solver
	// falls back to a batched forward-difference Jacobian (column j of
	// every lane perturbed in one BatchFunc call).
	BatchJacobian BatchJac
	// Pattern is the structural pattern of ∂f/∂y including the full
	// diagonal (codegen.JacobianProgram.PatternCSR). Under the same
	// density/size gates as the serial solver it enables the sparse Newton
	// path with the symbolic factorization computed once and forked per
	// lane; otherwise lanes scatter their CSR into dense iteration
	// matrices.
	Pattern *linalg.CSR
}

// BatchBDF is the lockstep batched Adams-Gear solver.
type BatchBDF struct {
	f    BatchFunc
	n, b int
	opts BatchOptions

	// Shared integration state; every history row is n·B SoA.
	hist   history
	order  int
	h      float64
	streak int
	tInt   float64

	// Per-lane masking.
	active  []bool
	laneErr []error
	nextOut []int

	// Batched workspaces, all n·B SoA.
	ypred, ycorr []float64
	rhsConst     []float64
	f0, f1       []float64
	scratch      []float64

	// Per-lane lane-local workspaces (length n); laneHist holds one
	// lane's history rows, gathered for its output interpolation.
	laneB, laneX, laneY, laneE []float64
	laneHist                   [maxHist][]float64

	// Per-lane Newton state.
	settled    []bool // lane's corrector converged this step
	culprits   []bool // lanes responsible for the last rejection
	haveFactor []bool
	jacFresh   bool
	luH        float64

	// Dense per-lane Newton path.
	jac     []*linalg.Matrix
	lu      []*linalg.LU
	iterMat *linalg.Matrix // shared workspace; LU() clones it

	// Sparse per-lane Newton path: one symbolic factorization, forked.
	sparse bool
	jacCSR []*linalg.CSR
	mCSR   []*linalg.CSR
	mDiag  []int32
	slu    []*linalg.SparseLU

	stats     Stats   // shared step/factorization accounting (see Stats)
	laneStats []Stats // per-lane work accounting (see LaneStats)
}

// NewBatchBDF returns a lockstep batched Adams-Gear solver for b lanes of
// an n-dimensional system.
func NewBatchBDF(f BatchFunc, n, b int, opts BatchOptions) *BatchBDF {
	if b <= 0 {
		panic(fmt.Sprintf("ode: batch of %d lanes", b))
	}
	s := &BatchBDF{
		f: f, n: n, b: b, opts: opts,
		hist:       history{width: n * b},
		active:     make([]bool, b),
		laneErr:    make([]error, b),
		nextOut:    make([]int, b),
		ypred:      make([]float64, n*b),
		ycorr:      make([]float64, n*b),
		rhsConst:   make([]float64, n*b),
		f0:         make([]float64, n*b),
		f1:         make([]float64, n*b),
		scratch:    make([]float64, n*b),
		laneB:      make([]float64, n),
		laneX:      make([]float64, n),
		laneY:      make([]float64, n),
		laneE:      make([]float64, n),
		settled:    make([]bool, b),
		culprits:   make([]bool, b),
		haveFactor: make([]bool, b),
		lu:         make([]*linalg.LU, b),
		jac:        make([]*linalg.Matrix, b),
		laneStats:  make([]Stats, b),
	}
	for j := range s.laneHist {
		s.laneHist[j] = make([]float64, n)
	}
	s.initSparse()
	return s
}

// initSparse decides once whether the batch runs the sparse Newton path,
// under the serial solver's gates, and forks the one-time symbolic
// factorization across the lanes.
func (s *BatchBDF) initSparse() {
	o := s.opts
	if o.BatchJacobian == nil || o.Pattern == nil {
		return
	}
	thr := o.SparseThreshold
	if thr == 0 {
		thr = 0.2
	}
	minDim := o.SparseMinDim
	if minDim == 0 {
		minDim = 20
	}
	pat := o.Pattern
	if pat.N != s.n || s.n < minDim || thr < 0 || pat.Density() > thr {
		return
	}
	slu0 := o.SymbolicLU
	if slu0 == nil || slu0.N() != s.n {
		var err error
		slu0, err = linalg.NewSparseLU(pat)
		if err != nil {
			return
		}
	}
	s.sparse = true
	s.jacCSR = make([]*linalg.CSR, s.b)
	s.mCSR = make([]*linalg.CSR, s.b)
	s.slu = make([]*linalg.SparseLU, s.b)
	for l := 0; l < s.b; l++ {
		s.jacCSR[l] = pat.Clone()
		s.mCSR[l] = pat.Clone()
		s.slu[l] = slu0.Fork()
	}
	s.mDiag = make([]int32, s.n)
	for i := 0; i < s.n; i++ {
		s.mDiag[i] = int32(s.mCSR[0].Index(i, i))
	}
	s.stats.JacNNZ = pat.NNZ()
	s.stats.FillNNZ = slu0.FillNNZ()
}

// Sparse reports whether the batch runs the sparse Newton path.
func (s *BatchBDF) Sparse() bool { return s.sparse }

// Lanes returns the batch width B.
func (s *BatchBDF) Lanes() int { return s.b }

// Stats returns the summed per-lane work counters plus the shared sparse
// pattern sizes — the batch's total cost in serial-solver units.
func (s *BatchBDF) Stats() Stats {
	total := Stats{JacNNZ: s.stats.JacNNZ, FillNNZ: s.stats.FillNNZ}
	for l := range s.laneStats {
		st := s.laneStats[l]
		total.Steps += st.Steps
		total.Rejected += st.Rejected
		total.FEvals += st.FEvals
		total.JEvals += st.JEvals
		total.Factorizations += st.Factorizations
		total.SparseFactorizations += st.SparseFactorizations
		total.NewtonIters += st.NewtonIters
		total.FactorOps += st.FactorOps
		total.SolveOps += st.SolveOps
	}
	return total
}

// LaneStats returns one lane's work counters: the steps it was active
// for, its share of the batched RHS evaluations, and its own Jacobian /
// factorization / solve work — the numbers the estimator's deterministic
// cost model consumes per data file.
func (s *BatchBDF) LaneStats(lane int) Stats { return s.laneStats[lane] }

// LaneErr returns the terminal error of a failed lane (nil for lanes
// that completed, or are still pending).
func (s *BatchBDF) LaneErr(lane int) error { return s.laneErr[lane] }

// Integrate advances all lanes from t0 to t1 in place: y is n·B SoA and
// is overwritten with each lane's y(t1). Lanes that fail keep their last
// state; the error is the first failing lane's (nil when every lane
// reached t1). A convenience wrapper over Solve with a one-point output
// grid per lane.
func (s *BatchBDF) Integrate(t0, t1 float64, y []float64) error {
	grid := make([][]float64, s.b)
	for l := range grid {
		grid[l] = []float64{t1}
	}
	err := s.Solve(t0, y, grid, func(lane, _ int, yl []float64) {
		for i := 0; i < s.n; i++ {
			y[i*s.b+lane] = yl[i]
		}
	})
	return err
}

// Solve integrates the batch forward from (t0, y0): y0 is n·B SoA, and
// outT[l] is lane l's ascending output grid (an empty grid masks the
// lane out immediately). emit is called once per (lane, grid index) with
// the interpolated lane state, in nondecreasing time order per lane; the
// slice is reused across calls. Lanes whose grid is exhausted, and lanes
// that individually drive the common step below MinStep, drop out of the
// lockstep without stalling the rest. Solve returns nil when at least
// one lane completes; per-lane failures are reported by LaneErr.
func (s *BatchBDF) Solve(t0 float64, y0 []float64, outT [][]float64, emit func(lane, idx int, y []float64)) error {
	n, b := s.n, s.b
	if len(y0) != n*b {
		return errWrap(errShape(len(y0), n*b), t0)
	}
	if len(outT) != b {
		return errWrap(fmt.Errorf("ode: batch output grids %d, want %d", len(outT), b), t0)
	}
	// Direction and horizon from the union of the grids.
	dir, tEnd, any := 0.0, t0, false
	for l, grid := range outT {
		for i := 1; i < len(grid); i++ {
			if grid[i] < grid[i-1] {
				return errWrap(fmt.Errorf("ode: lane %d output grid not ascending", l), t0)
			}
		}
		if len(grid) == 0 {
			continue
		}
		last := grid[len(grid)-1]
		if last != t0 {
			d := sign(last - t0)
			if dir != 0 && d != dir {
				return errWrap(fmt.Errorf("ode: batch output grids mix directions"), t0)
			}
			dir = d
		}
		if !any || (last-tEnd)*dir > 0 {
			tEnd, any = last, true
		}
	}
	o := s.opts.Options.withDefaults(t0, tEnd)
	s.reset(t0, y0, o, dir)
	for l := range s.active {
		s.active[l] = len(outT[l]) > 0
		s.laneErr[l] = nil
		s.nextOut[l] = 0
	}
	s.emitDue(outT, emit, o)
	if dir == 0 {
		return nil // every requested output was at t0
	}

	for steps := 0; s.anyActive(); steps++ {
		if steps > o.MaxSteps {
			s.failActive(ErrTooManySteps)
			break
		}
		if err := o.Budget.Check(); err != nil {
			// Cooperative cancellation: still-pending lanes fail with the
			// budget error (budget.Exhausted tells them apart from solver
			// failures); lanes already emitted keep their results.
			s.failActive(err)
			break
		}
		accepted, errNorm, err := s.attemptStep(s.tInt, o)
		if err != nil {
			s.failActive(err)
			break
		}
		if accepted {
			s.tInt += s.h
			s.stats.Steps++
			s.streak++
			for l := range s.laneStats {
				if s.active[l] {
					s.laneStats[l].Steps++
				}
			}
			// Adapt before emitting: the serial solver interpolates its
			// output only after the per-step order/step adaptation has run
			// (its step loop re-checks the exit condition post-adaptation),
			// so emitting first would read the pre-rescale history and
			// drift from the serial trajectory by an ulp.
			s.adaptOrderAndStep(errNorm, o)
			s.emitDue(outT, emit, o)
		} else {
			s.stats.Rejected++
			s.streak = 0
			shrink := math.Max(0.1, math.Min(0.5, 0.9*math.Pow(errNorm, -1.0/float64(s.order+1))))
			if s.order > 1 && errNorm > 100 {
				s.order--
			}
			s.rescaleHistory(shrink)
			s.h *= shrink
			for l := range s.laneStats {
				if s.active[l] {
					s.laneStats[l].Rejected++
				}
			}
			if math.Abs(s.h) < o.MinStep {
				// The common step underflowed: retire the lanes that forced
				// the rejection and let the survivors continue — per-lane
				// failure masking instead of the serial solver's global abort.
				if !s.failCulprits(ErrStepTooSmall) {
					break
				}
			}
		}
	}
	for _, e := range s.laneErr {
		if e == nil {
			return nil
		}
	}
	return errWrap(s.laneErr[0], s.tInt)
}

// anyActive reports whether any lane still integrates.
func (s *BatchBDF) anyActive() bool {
	for _, a := range s.active {
		if a {
			return true
		}
	}
	return false
}

// failActive marks every still-active lane failed with err.
func (s *BatchBDF) failActive(err error) {
	for l, a := range s.active {
		if a {
			s.laneErr[l] = errWrap(err, s.tInt)
			s.active[l] = false
		}
	}
}

// failCulprits retires the active lanes flagged as responsible for the
// last rejection (falling back to all active lanes when the flags are
// empty) and reports whether any lane survives to continue.
func (s *BatchBDF) failCulprits(cause error) bool {
	hit := false
	for l, a := range s.active {
		if a && s.culprits[l] {
			s.laneErr[l] = errWrap(cause, s.tInt)
			s.active[l] = false
			hit = true
		}
	}
	if !hit {
		s.failActive(cause)
		return false
	}
	return s.anyActive()
}

// emitDue interpolates and emits every output time the integration has
// covered, masking out lanes whose grid is exhausted.
func (s *BatchBDF) emitDue(outT [][]float64, emit func(int, int, []float64), o Options) {
	dir := sign(s.h)
	for l := range s.active {
		if !s.active[l] {
			continue
		}
		grid := outT[l]
		for s.nextOut[l] < len(grid) {
			t := grid[s.nextOut[l]]
			if (s.tInt-t)*dir < 0 && !reached(s.tInt, t, dir) {
				break
			}
			x := 0.0
			if s.h != 0 {
				x = (t - s.tInt) / s.h
			}
			s.extrapolateLane(s.order, x, l, s.laneY)
			if emit != nil {
				emit(l, s.nextOut[l], s.laneY)
			}
			s.nextOut[l]++
		}
		if s.nextOut[l] == len(grid) {
			s.active[l] = false // done — drop out of the lockstep
		}
	}
}

// reset starts a fresh batched integration at (t0, y0).
func (s *BatchBDF) reset(t0 float64, y0 []float64, o Options, dir float64) {
	if dir == 0 {
		dir = 1
	}
	s.h = o.InitialStep * dir
	if o.MaxStep < math.Abs(s.h) {
		s.h = o.MaxStep * dir
	}
	s.order = 1
	s.hist.reset(y0)
	s.tInt = t0
	s.jacFresh = false
	s.luH = math.NaN()
	s.streak = 0
	for l := range s.haveFactor {
		s.haveFactor[l] = false
	}
}

// attemptStep mirrors BDF.attemptStep lane for lane: predictor, shared
// corrector equation, lockstep Newton, then a max-reduced error norm over
// the active lanes.
func (s *BatchBDF) attemptStep(t float64, o Options) (bool, float64, error) {
	q := s.order
	if q > len(s.hist.rows) {
		q = len(s.hist.rows)
	}
	yn := s.hist.rows[0]
	tNew := t + s.h

	s.hist.eval(q+1, 1.0, s.ypred)
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
		// Newton failed with a fresh Jacobian (culprit lanes already
		// flagged): shrink sharply, as the serial solver does, and let the
		// caller's rejection path handle step underflow with per-lane
		// masking.
		s.rescaleHistory(0.25)
		s.h *= 0.25
		s.stats.Rejected++
		for l := range s.laneStats {
			if s.active[l] {
				s.laneStats[l].Rejected++
			}
		}
		return false, math.Inf(1), nil
	}

	// Per-lane local error estimate, max-reduced for the common step
	// control. A NaN lane norm counts as infinite so the rejection path
	// shrinks deterministically instead of propagating NaN into h.
	nb := s.n * s.b
	for i := 0; i < nb; i++ {
		s.scratch[i] = (s.ycorr[i] - s.ypred[i]) / float64(q+1)
	}
	errNorm := 0.0
	for l := range s.active {
		s.culprits[l] = false
		if !s.active[l] {
			continue
		}
		s.gatherLane(s.scratch, l, s.laneE)
		s.gatherLane(yn, l, s.laneB)
		s.gatherLane(s.ycorr, l, s.laneY)
		en := weightedNorm(s.laneE, s.laneB, s.laneY, o.ATol, o.RTol)
		if math.IsNaN(en) {
			en = math.Inf(1)
		}
		if en > 1 {
			s.culprits[l] = true
		}
		if en > errNorm {
			errNorm = en
		}
	}
	if errNorm > 1 {
		return false, errNorm, nil
	}
	s.hist.push(s.ycorr)
	return true, errNorm, nil
}

// newton runs the lockstep modified-Newton corrector. Each lane settles
// independently (its update stops once its correction norm passes the
// serial solver's 0.3 gate); the batched right-hand side is evaluated
// once per iteration for all lanes. Returns false — with s.culprits
// flagging the culprit lanes — when some active lane fails to converge
// even after a Jacobian refresh, exactly the serial failure contract.
func (s *BatchBDF) newton(t, hb float64, o Options) (bool, error) {
	copy(s.ycorr, s.ypred)
	for l := range s.settled {
		s.settled[l] = false
		s.culprits[l] = false
	}
	refreshed := false
	for pass := 0; pass < 2; pass++ {
		stale := !s.jacFresh || pass == 1
		if s.needFactor(hb) || (pass == 1 && !refreshed) {
			if stale {
				if err := s.buildJacobians(t); err != nil {
					return false, err
				}
				refreshed = true
			}
			if !s.factorLanes(hb) {
				// Some lane's iteration matrix is singular: serial behaviour
				// is a Newton failure so the step shrinks; the culprits are
				// already flagged.
				return false, nil
			}
		}
		for iter := 0; iter < 6; iter++ {
			if s.allSettled() {
				return true, nil
			}
			s.f(t, s.ycorr, s.f1)
			for l := range s.active {
				if !s.active[l] || s.settled[l] {
					continue
				}
				st := &s.laneStats[l]
				st.NewtonIters++
				st.FEvals++
				n, b := s.n, s.b
				for i := 0; i < n; i++ {
					s.laneB[i] = s.ycorr[i*b+l] - hb*s.f1[i*b+l] - s.rhsConst[i*b+l]
				}
				if err := s.solveLane(l, s.laneX, s.laneB); err != nil {
					s.haveFactor[l] = false
					s.culprits[l] = true
					continue
				}
				for i := 0; i < n; i++ {
					s.ycorr[i*b+l] -= s.laneX[i]
				}
				s.gatherLane(s.ycorr, l, s.laneY)
				dn := weightedNorm(s.laneX, s.laneY, s.laneY, o.ATol, o.RTol)
				if dn < 0.3 {
					s.settled[l] = true
				}
			}
		}
		if s.allSettled() {
			return true, nil
		}
		// Unconverged lanes restart from the predictor; with a
		// fresh Jacobian already in hand there is nothing left to try.
		for l := range s.active {
			s.culprits[l] = s.active[l] && !s.settled[l]
			if s.culprits[l] {
				for i := 0; i < s.n; i++ {
					s.ycorr[i*s.b+l] = s.ypred[i*s.b+l]
				}
			}
		}
		if refreshed {
			return false, nil
		}
	}
	return false, nil
}

// allSettled reports whether every active lane's corrector converged.
func (s *BatchBDF) allSettled() bool {
	for l, a := range s.active {
		if a && !s.settled[l] {
			return false
		}
	}
	return true
}

// needFactor reports whether any active lane lacks a factorization for
// the current h·beta.
func (s *BatchBDF) needFactor(hb float64) bool {
	if s.luH != hb {
		return true
	}
	for l, a := range s.active {
		if a && !s.haveFactor[l] {
			return true
		}
	}
	return false
}

// buildJacobians refreshes every active lane's Jacobian at (t, hist[0]):
// one batched tape sweep on the analytic path, n+1 batched RHS
// evaluations on the forward-difference path — never n+1 evaluations per
// lane.
func (s *BatchBDF) buildJacobians(t float64) error {
	y := s.hist.rows[0]
	n, b := s.n, s.b
	if s.sparse {
		s.opts.BatchJacobian(t, y, s.active, s.jacCSR)
		for l := range s.active {
			if s.active[l] {
				s.laneStats[l].JEvals++
			}
		}
		s.jacFresh = true
		return nil
	}
	for l := range s.active {
		if s.active[l] && s.jac[l] == nil {
			s.jac[l] = linalg.NewMatrix(n, n)
		}
	}
	if s.opts.BatchJacobian != nil && s.opts.Pattern != nil {
		// Analytic Jacobian below the sparse gates: evaluate into CSR and
		// scatter each lane to dense.
		if s.jacCSR == nil {
			s.jacCSR = make([]*linalg.CSR, b)
			for l := range s.jacCSR {
				s.jacCSR[l] = s.opts.Pattern.Clone()
			}
		}
		s.opts.BatchJacobian(t, y, s.active, s.jacCSR)
		for l := range s.active {
			if !s.active[l] {
				continue
			}
			m, c := s.jac[l], s.jacCSR[l]
			for i := range m.Data {
				m.Data[i] = 0
			}
			for i := 0; i < n; i++ {
				for p := c.RowPtr[i]; p < c.RowPtr[i+1]; p++ {
					m.Set(i, int(c.ColIdx[p]), c.Data[p])
				}
			}
			s.laneStats[l].JEvals++
		}
		s.jacFresh = true
		return nil
	}
	// Batched forward differences, column by column across all lanes.
	s.f(t, y, s.f0)
	copy(s.scratch, y)
	const sqrtEps = 1.4901161193847656e-08
	for j := 0; j < n; j++ {
		for l := 0; l < b; l++ {
			if s.active[l] {
				d := sqrtEps * math.Max(math.Abs(y[j*b+l]), 1e-5)
				s.scratch[j*b+l] = y[j*b+l] + d
			}
		}
		s.f(t, s.scratch, s.f1)
		for l := 0; l < b; l++ {
			if !s.active[l] {
				continue
			}
			d := sqrtEps * math.Max(math.Abs(y[j*b+l]), 1e-5)
			inv := 1 / d
			for i := 0; i < n; i++ {
				s.jac[l].Set(i, j, (s.f1[i*b+l]-s.f0[i*b+l])*inv)
			}
			s.scratch[j*b+l] = y[j*b+l]
		}
	}
	for l := range s.active {
		if s.active[l] {
			s.laneStats[l].JEvals++
			s.laneStats[l].FEvals += n + 1
		}
	}
	s.jacFresh = true
	return nil
}

// factorLanes builds and factors every active lane's iteration matrix
// M = I − hb·J. Lanes whose matrix is singular are flagged as Newton
// culprits; the call reports whether every active lane factored.
func (s *BatchBDF) factorLanes(hb float64) bool {
	n := s.n
	nf := float64(n)
	ok := true
	for l := range s.active {
		if !s.active[l] {
			continue
		}
		st := &s.laneStats[l]
		if s.sparse {
			md := s.mCSR[l].Data
			for p, v := range s.jacCSR[l].Data {
				md[p] = -hb * v
			}
			for _, d := range s.mDiag {
				md[d]++
			}
			if err := s.slu[l].Refactor(s.mCSR[l]); err != nil {
				s.haveFactor[l] = false
				s.culprits[l] = true
				ok = false
				continue
			}
			s.haveFactor[l] = true
			st.Factorizations++
			st.SparseFactorizations++
			st.FactorOps += float64(s.slu[l].RefactorFlops())
			continue
		}
		if s.iterMat == nil {
			s.iterMat = linalg.NewMatrix(n, n)
		}
		m := s.iterMat
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := -hb * s.jac[l].At(i, j)
				if i == j {
					v += 1
				}
				m.Set(i, j, v)
			}
		}
		lu, err := m.LU()
		if err != nil {
			s.haveFactor[l] = false
			s.culprits[l] = true
			ok = false
			continue
		}
		s.lu[l] = lu
		s.haveFactor[l] = true
		st.Factorizations++
		st.FactorOps += (2.0 / 3.0) * nf * nf * nf
	}
	s.luH = hb
	return ok
}

// solveLane solves lane l's factored iteration matrix against b into dst.
func (s *BatchBDF) solveLane(l int, dst, b []float64) error {
	st := &s.laneStats[l]
	if s.sparse {
		st.SolveOps += float64(s.slu[l].SolveFlops())
		return s.slu[l].SolveTo(dst, b)
	}
	nf := float64(s.n)
	st.SolveOps += 2 * nf * nf
	return s.lu[l].SolveTo(dst, b)
}

// adaptOrderAndStep is BDF.adaptOrderAndStep over the shared state.
func (s *BatchBDF) adaptOrderAndStep(errNorm float64, o Options) {
	if s.order < 5 && s.streak > s.order+1 && len(s.hist.rows) > s.order {
		s.order++
		s.streak = 0
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
		s.luH = math.NaN()
		s.jacFresh = false
	}
}

// rescaleHistory re-samples the shared history polynomial onto a grid
// with spacing ratio·h — BDF.rescaleHistory with every (component, lane)
// pair treated as one scalar history, so each lane's arithmetic is
// exactly the serial solver's.
func (s *BatchBDF) rescaleHistory(ratio float64) {
	if s.hist.rescale(ratio) {
		s.luH = math.NaN()
	}
}

// extrapolateLane evaluates the degree-q history polynomial at x for one
// lane into dst (length n) — the per-lane output interpolation, with the
// serial solver's clamp of q against the stored history. The lane's
// strided history is gathered into contiguous rows first, so the one
// kernel serves every caller.
func (s *BatchBDF) extrapolateLane(q int, x float64, lane int, dst []float64) {
	m := min(q+1, len(s.hist.rows))
	rows := s.laneHist[:m]
	for j, row := range rows {
		s.gatherLane(s.hist.rows[j], lane, row)
	}
	evalHistory(dst, rows, x)
}

// gatherLane copies lane's column of the SoA array src into dst (length n).
func (s *BatchBDF) gatherLane(src []float64, lane int, dst []float64) {
	for i := 0; i < s.n; i++ {
		dst[i] = src[i*s.b+lane]
	}
}
