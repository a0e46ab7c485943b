package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"rms/internal/core"
	"rms/internal/linalg"
	"rms/internal/opt"
	"rms/internal/telemetry"
	"rms/internal/vulcan"
)

// SparseRow is one system size of the dense-vs-sparse Newton comparison:
// the cost of one Jacobian build plus one factorization of the iteration
// matrix M = I − hβ·J, the linear algebra every BDF step refreshes.
type SparseRow struct {
	Variants  int
	Equations int

	// Structure.
	NNZ     int     // structural nonzeros of J (plus diagonal)
	Density float64 // NNZ / n²
	FillNNZ int     // L+U nonzeros including fill-in

	// Measured milliseconds per Jacobian build + factorization.
	DenseMs  float64
	SparseMs float64
	Speedup  float64

	// Counted floating-point work per Newton refresh, reported with the
	// same formulas ode.Stats uses on each path — dense ⅔n³ per
	// factorization and 2n² per solve, the sparse pattern's actual
	// multiply-add counts otherwise — so the two paths' FactorOps/SolveOps
	// columns are directly comparable.
	DenseFactorOps, DenseSolveOps   float64
	SparseFactorOps, SparseSolveOps float64

	// SolveMatch reports whether the sparse and dense factorizations
	// solve the same Newton system to matching results (they must).
	SolveMatch bool
}

// SparseConfig shapes the comparison run.
type SparseConfig struct {
	// Variants lists the vulcanization system sizes (default: the scaled
	// sizes of cases 1–3; case 4+ dense factorizations take minutes).
	Variants []int
	// Reps is the number of timed build+factor repetitions per path
	// (default 3; the minimum is reported).
	Reps int
	// Trace, when non-nil, records each compilation's compiler-phase
	// spans, Jacobian compilation included, on the lane.
	Trace *telemetry.Lane
}

// SparseCompare compiles each vulcanization system with its analytic
// Jacobian and times one dense Jacobian build + dense LU against one CSR
// build + sparse numeric refactorization (the symbolic factorization is
// one-time per integration and excluded, exactly as the solver amortizes
// it).
func SparseCompare(cfg SparseConfig) ([]SparseRow, error) {
	if cfg.Variants == nil {
		cfg.Variants = []int{vulcan.Cases[0].ScaledVariants, vulcan.Cases[1].ScaledVariants, vulcan.Cases[2].ScaledVariants}
	}
	if cfg.Reps == 0 {
		cfg.Reps = 3
	}
	var rows []SparseRow
	for _, v := range cfg.Variants {
		row, err := sparseCase(v, cfg.Reps, cfg.Trace)
		if err != nil {
			return nil, fmt.Errorf("bench: sparse %d variants: %w", v, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func sparseCase(variants, reps int, trace *telemetry.Lane) (SparseRow, error) {
	net, err := vulcan.Network(variants)
	if err != nil {
		return SparseRow{}, err
	}
	res, err := core.CompileNetwork(net, core.Config{
		Optimize: opt.Full(), AnalyticJacobian: true, Trace: trace,
	})
	if err != nil {
		return SparseRow{}, err
	}
	jp := res.Jacobian
	n := jp.N
	y, k := benchInputs(res.Tape)
	const hb = 1e-3

	row := SparseRow{Variants: variants, Equations: n}

	// Sparse path: CSR Jacobian fill + iteration-matrix fill + numeric
	// refactorization over the one-time symbolic pattern.
	jCSR := jp.PatternCSR()
	mCSR := jp.PatternCSR()
	diag := make([]int32, n)
	for i := 0; i < n; i++ {
		diag[i] = int32(mCSR.Index(i, i))
	}
	slu, err := linalg.NewSparseLU(jCSR)
	if err != nil {
		return row, err
	}
	row.NNZ = jCSR.NNZ()
	row.Density = jCSR.Density()
	row.FillNNZ = slu.FillNNZ()
	nf := float64(n)
	row.DenseFactorOps = (2.0 / 3.0) * nf * nf * nf
	row.DenseSolveOps = 2 * nf * nf
	row.SparseFactorOps = float64(slu.RefactorFlops())
	row.SparseSolveOps = float64(slu.SolveFlops())
	jeS := jp.NewEvaluator()
	sparseOnce := func() error {
		jeS.EvalCSR(y, k, jCSR)
		for p, v := range jCSR.Data {
			mCSR.Data[p] = -hb * v
		}
		for _, d := range diag {
			mCSR.Data[d]++
		}
		return slu.Refactor(mCSR)
	}
	row.SparseMs, err = timeMinMs(reps, sparseOnce)
	if err != nil {
		return row, err
	}

	// Dense path: dense Jacobian fill + dense iteration matrix + LU with
	// partial pivoting (the pre-sparse solver hot loop).
	jDense := linalg.NewMatrix(n, n)
	mDense := linalg.NewMatrix(n, n)
	jeD := jp.NewEvaluator()
	var dlu *linalg.LU
	denseOnce := func() error {
		jeD.Eval(y, k, jDense)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := -hb * jDense.At(i, j)
				if i == j {
					v++
				}
				mDense.Set(i, j, v)
			}
		}
		var err error
		dlu, err = mDense.LU()
		return err
	}
	row.DenseMs, err = timeMinMs(reps, denseOnce)
	if err != nil {
		return row, err
	}
	if row.SparseMs > 0 {
		row.Speedup = row.DenseMs / row.SparseMs
	}

	// Cross-check: both factorizations solve the same Newton system.
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Sin(float64(i+1)) + 1.5
	}
	xs := make([]float64, n)
	if err := slu.SolveTo(xs, b); err != nil {
		return row, err
	}
	xd, err := dlu.Solve(b)
	if err != nil {
		return row, err
	}
	row.SolveMatch = true
	for i := range xs {
		if math.Abs(xs[i]-xd[i]) > 1e-8*(1+math.Abs(xd[i])) {
			row.SolveMatch = false
			break
		}
	}
	return row, nil
}

// timeMinMs runs fn reps times and returns the minimum duration in
// milliseconds.
func timeMinMs(reps int, fn func() error) (float64, error) {
	best := math.Inf(1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if ms := float64(time.Since(start).Nanoseconds()) / 1e6; ms < best {
			best = ms
		}
	}
	return best, nil
}

// FormatSparse renders the dense-vs-sparse comparison table.
func FormatSparse(rows []SparseRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-10s %-10s %-9s %-10s %-12s %-12s %-9s %-11s %-11s %-10s %-10s %-7s"+NL,
		"variants", "equations", "nnz", "density", "fill", "dense ms", "sparse ms", "speedup",
		"factorops", "(sparse)", "solveops", "(sparse)", "match")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10d %-10d %-10d %-9.5f %-10d %-12.2f %-12.3f %-9.1f %-11.3g %-11.3g %-10.3g %-10.3g %-7v"+NL,
			r.Variants, r.Equations, r.NNZ, r.Density, r.FillNNZ,
			r.DenseMs, r.SparseMs, r.Speedup,
			r.DenseFactorOps, r.SparseFactorOps, r.DenseSolveOps, r.SparseSolveOps, r.SolveMatch)
	}
	b.WriteString("one Jacobian build + one factorization of M = I - h·beta·J per measurement;" + NL)
	b.WriteString("the sparse path reuses a one-time symbolic factorization (see docs/sparse-jacobian.md)" + NL)
	b.WriteString("factorops/solveops are the counted flops per Newton refresh, the same accounting" + NL)
	b.WriteString("ode.Stats reports on each path (dense 2/3·n^3 and 2·n^2; sparse pattern counts)" + NL)
	return b.String()
}
