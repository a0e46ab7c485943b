package ode_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rms/internal/codegen"
	"rms/internal/conformance"
	"rms/internal/core"
	"rms/internal/linalg"
	"rms/internal/ode"
	"rms/internal/opt"
	"rms/internal/vulcan"
)

var updateBits = flag.Bool("update-bits", false, "rewrite testdata/bdf_bits.golden from the current build")

const bitsGolden = "bdf_bits.golden"

// bitsRun is one pinned solver run: its output rows, hashed over their
// IEEE-754 bit patterns, and the solver's work counters.
type bitsRun struct {
	name string
	h    hashRows
	st   ode.Stats
}

// hashRows is a sha256 over the Float64bits of every value of every
// output row, in emission order.
type hashRows struct {
	d    hash.Hash
	buf  []byte
	rows int
}

func newHashRows() hashRows { return hashRows{d: sha256.New()} }

func (h *hashRows) row(tag int, y []float64) {
	h.buf = binary.LittleEndian.AppendUint64(h.buf[:0], uint64(tag))
	for _, v := range y {
		h.buf = binary.LittleEndian.AppendUint64(h.buf, math.Float64bits(v))
	}
	h.d.Write(h.buf)
	h.rows++
}

func (r bitsRun) line() string {
	st := r.st
	return fmt.Sprintf("%s rows=%d sha256=%s steps=%d rejected=%d fevals=%d jevals=%d factorizations=%d newton_iters=%d sparse_factorizations=%d",
		r.name, r.h.rows, hex.EncodeToString(r.h.d.Sum(nil)), st.Steps, st.Rejected, st.FEvals,
		st.JEvals, st.Factorizations, st.NewtonIters, st.SparseFactorizations)
}

// bitsModel is a compiled model with its evaluation point.
type bitsModel struct {
	tape *codegen.Program
	jac  *codegen.JacobianProgram
	y0   []float64
	k    []float64
}

func vulcanModel(t *testing.T, variants int) bitsModel {
	t.Helper()
	net, err := vulcan.Network(variants)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.CompileNetwork(net, core.Config{Optimize: opt.Full(), AnalyticJacobian: true})
	if err != nil {
		t.Fatal(err)
	}
	k, err := vulcan.RateVector(res.System.Rates, vulcan.TrueRates)
	if err != nil {
		t.Fatal(err)
	}
	return bitsModel{tape: res.Tape, jac: res.Jacobian, y0: res.System.Y0, k: k}
}

func randomModel(t *testing.T, seed int64, species int) bitsModel {
	t.Helper()
	cs, err := conformance.NewCase(conformance.RandomNetwork(rand.New(rand.NewSource(seed)), species), seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	return bitsModel{tape: cs.Tape, jac: cs.Jac, y0: cs.Y, k: cs.K}
}

// jacobian configures opts for one Newton path: "fd" (finite
// differences), "dense" (analytic, dense LU) or "sparse" (analytic,
// sparse LU, gates opened).
func (m bitsModel) jacobian(opts ode.Options, path string) ode.Options {
	je := m.jac.NewEvaluator()
	switch path {
	case "dense":
		opts.Jacobian = func(_ float64, y []float64, dst *linalg.Matrix) { je.Eval(y, m.k, dst) }
	case "sparse":
		opts.SparsePattern = m.jac.PatternCSR()
		opts.SparseJacobian = func(_ float64, y []float64, dst *linalg.CSR) { je.EvalCSR(y, m.k, dst) }
		opts.SparseMinDim = 2
		opts.SparseThreshold = 1
	}
	return opts
}

// serialRun integrates record to record over an even grid of calls from
// 0 to tEnd — the estimator's continuation pattern — and hashes the
// state after every call.
func serialRun(t *testing.T, name string, m bitsModel, opts ode.Options, path string, calls int, tEnd float64) (bitsRun, []ode.StepEvent) {
	t.Helper()
	ev := m.tape.NewEvaluator()
	var events []ode.StepEvent
	opts = m.jacobian(opts, path)
	opts.Observer = func(e ode.StepEvent) { events = append(events, e) }
	s := ode.NewBDF(func(_ float64, y, dy []float64) { ev.Eval(y, m.k, dy) }, len(m.y0), opts)
	y := append([]float64(nil), m.y0...)
	run := bitsRun{name: name, h: newHashRows()}
	for i := 1; i <= calls; i++ {
		if err := s.Integrate(tEnd*float64(i-1)/float64(calls), tEnd*float64(i)/float64(calls), y); err != nil {
			t.Fatalf("%s: call %d: %v", name, i, err)
		}
		run.h.row(i, y)
	}
	if s.Sparse() != (path == "sparse") {
		t.Fatalf("%s: sparse path = %v, configured %q", name, s.Sparse(), path)
	}
	run.st = s.Stats()
	return run, events
}

// batchRun solves B lanes in lockstep, lane l starting from y0 scaled by
// 1 + spread·l, each lane emitting on its own grid of records.
func batchRun(t *testing.T, name string, m bitsModel, opts ode.Options, analytic bool, b int, spread float64, records int, tEnd float64) bitsRun {
	t.Helper()
	n := len(m.y0)
	bev := m.tape.NewBatchEvaluator(b)
	kSoA := make([]float64, len(m.k)*b)
	y0 := make([]float64, n*b)
	lane := make([]float64, n)
	for l := 0; l < b; l++ {
		codegen.ScatterLane(kSoA, b, l, m.k)
		for i, v := range m.y0 {
			lane[i] = v * (1 + spread*float64(l))
		}
		codegen.ScatterLane(y0, b, l, lane)
	}
	bopts := ode.BatchOptions{Options: opts}
	if analytic {
		jev := m.jac.NewBatchEvaluator(b)
		bopts.Pattern = m.jac.PatternCSR()
		bopts.BatchJacobian = func(_ float64, y []float64, active []bool, dst []*linalg.CSR) {
			jev.EvalCSR(y, kSoA, active, dst)
		}
		bopts.SparseMinDim = 2
		bopts.SparseThreshold = 1
	}
	s := ode.NewBatchBDF(func(_ float64, y, dy []float64) { bev.EvalBatch(y, kSoA, dy) }, n, b, bopts)
	grids := make([][]float64, b)
	for l := range grids {
		// Lanes end at different times so they drop out one by one.
		recs := records - 3*l
		for j := 1; j <= recs; j++ {
			grids[l] = append(grids[l], tEnd*float64(j)/float64(records))
		}
	}
	run := bitsRun{name: name, h: newHashRows()}
	if err := s.Solve(0, y0, grids, func(l, idx int, y []float64) { run.h.row(l<<32|idx, y) }); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for l := 0; l < b; l++ {
		if err := s.LaneErr(l); err != nil {
			t.Fatalf("%s: lane %d: %v", name, l, err)
		}
	}
	if s.Sparse() != analytic {
		t.Fatalf("%s: sparse path = %v, want %v", name, s.Sparse(), analytic)
	}
	run.st = s.Stats()
	return run
}

// TestBDFBitsGolden pins the serial and batched Adams-Gear drivers to
// the bit: every output row of a fixed set of runs is hashed over its
// Float64bits together with the solver's work counters, and the result
// must equal testdata/bdf_bits.golden byte for byte. The runs cover the
// three serial Newton paths (finite-difference, dense analytic, sparse
// analytic), a 300-call record-to-record continuation whose step size
// both grows and shrinks, a tight-tolerance run with rejected steps, and
// a lockstep batch of four identical and of four heterogeneous lanes.
// Regenerate with `go test ./internal/ode -run BitsGolden -update-bits`
// only after an intentional numerical change, and justify the diff.
func TestBDFBitsGolden(t *testing.T) {
	v12 := vulcanModel(t, 12)
	rnd := randomModel(t, 4242, 24)
	base := ode.Options{RTol: 1e-6, ATol: 1e-9}

	var runs []bitsRun
	add := func(r bitsRun, _ []ode.StepEvent) { runs = append(runs, r) }
	add(serialRun(t, "vulcan12/fd", v12, base, "fd", 40, 1.5))
	add(serialRun(t, "vulcan12/dense", v12, base, "dense", 40, 1.5))
	add(serialRun(t, "vulcan12/sparse", v12, base, "sparse", 40, 1.5))

	cont, events := serialRun(t, "vulcan12/sparse-continuation-300", v12, base, "sparse", 300, 3)
	grew, shrank := false, false
	for i := 1; i < len(events); i++ {
		if math.Abs(events[i].H) > math.Abs(events[i-1].H) {
			grew = true
		}
		if math.Abs(events[i].H) < math.Abs(events[i-1].H) {
			shrank = true
		}
	}
	if !grew || !shrank {
		t.Errorf("continuation run: step grew=%v shrank=%v, want both", grew, shrank)
	}
	runs = append(runs, cont)

	tight, _ := serialRun(t, "vulcan12/dense-tight", v12, ode.Options{RTol: 1e-11, ATol: 1e-14}, "dense", 20, 1.5)
	if tight.st.Rejected == 0 {
		t.Errorf("tight-tolerance run rejected no steps")
	}
	runs = append(runs, tight)
	add(serialRun(t, "random24/dense", rnd, base, "dense", 30, 1))
	add(serialRun(t, "random24/sparse", rnd, base, "sparse", 30, 1))

	runs = append(runs,
		batchRun(t, "vulcan12/batch4-identical-fd", v12, base, false, 4, 0, 40, 1.5),
		batchRun(t, "vulcan12/batch4-hetero-sparse", v12, base, true, 4, 0.1, 40, 1.5),
		batchRun(t, "random24/batch4-hetero-fd", rnd, base, false, 4, 0.05, 30, 1),
	)

	var sb strings.Builder
	for _, r := range runs {
		sb.WriteString(r.line())
		sb.WriteByte('\n')
	}
	got := sb.String()
	path := filepath.Join("testdata", bitsGolden)
	if *updateBits {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-bits)", err)
	}
	if got != string(want) {
		t.Errorf("solver output drifted from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}
