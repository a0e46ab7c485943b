package ode

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// nevilleRef is the per-component Neville recurrence the history kernel
// replaces, kept verbatim as its reference: w[j] is updated level by
// level in place, dividing by x_j − x_{j+l}.
func nevilleRef(dst []float64, rows [][]float64, x float64) {
	m := len(rows)
	work := make([]float64, m)
	for c := range dst {
		for j := 0; j < m; j++ {
			work[j] = rows[j][c]
		}
		for level := 1; level < m; level++ {
			for j := 0; j < m-level; j++ {
				xj := -float64(j)
				xjl := -float64(j + level)
				work[j] = ((x-xjl)*work[j] - (x-xj)*work[j+1]) / (xj - xjl)
			}
		}
		dst[c] = work[0]
	}
}

// historyValue draws a history entry: mostly magnitudes spread over
// 1e-300..1e300, with subnormals, signed zeros and infinities mixed in.
func historyValue(rng *rand.Rand) float64 {
	switch k := rng.Intn(20); {
	case k == 0:
		return math.Float64frombits(rng.Uint64() & (1<<52 - 1)) // subnormal
	case k == 1:
		return 0
	case k == 2:
		return math.Copysign(0, -1)
	case k == 3:
		return math.Inf(1 - 2*rng.Intn(2))
	case k < 8:
		return 1 + 1e-3*rng.NormFloat64() // a smooth history
	default:
		v := math.Pow(10, -300+600*rng.Float64())
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
}

// historyAbscissae lists every point the drivers evaluate at: the
// predictor (1), output interpolation within the last step ([−1, 0]) and
// the rescale targets −i·ratio.
func historyAbscissae(rng *rand.Rand, m int) []float64 {
	xs := []float64{1, 0, math.Copysign(0, -1), -1, -0.5}
	for i := 0; i < 8; i++ {
		xs = append(xs, -rng.Float64())
	}
	for _, ratio := range []float64{0.1, 0.25, 0.5, 1.3, 2.5} {
		for i := 1; i < max(m, 2); i++ {
			xs = append(xs, -float64(i)*ratio)
		}
	}
	return xs
}

// TestHistoryKernelBitIdentical: evalHistory reproduces the reference
// recurrence in Float64bits for every history length, at every abscissa
// the drivers use, over values spanning the float64 range.
func TestHistoryKernelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const n = 4000
	for m := 1; m <= maxHist; m++ {
		rows := make([][]float64, m)
		for j := range rows {
			rows[j] = make([]float64, n)
			for c := range rows[j] {
				rows[j][c] = historyValue(rng)
			}
		}
		want, got := make([]float64, n), make([]float64, n)
		for _, x := range historyAbscissae(rng, m) {
			nevilleRef(want, rows, x)
			evalHistory(got, rows, x)
			for c := range want {
				if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
					in := make([]float64, m)
					for j := range in {
						in[j] = rows[j][c]
					}
					t.Fatalf("m=%d x=%v rows=%v: kernel %v (%#x), reference %v (%#x)",
						m, x, in, got[c], math.Float64bits(got[c]), want[c], math.Float64bits(want[c]))
				}
			}
		}
	}
}

// historyFixture fills h with m rows and warms its spare pool
// so that a following rescale takes recycled rows only.
func historyFixture(h *history, m int, rng *rand.Rand) {
	y := make([]float64, h.width)
	for i := 0; i < m; i++ {
		for c := range y {
			y[c] = 1 + 0.01*float64(i) + 1e-3*rng.Float64()
		}
		if i == 0 {
			h.reset(y)
		} else {
			h.push(y)
		}
	}
	h.rescale(0.5)
	h.rescale(2)
}

// TestHistoryRescaleMatchesReference: a rescale replaces rows 1..m−1 by
// the reference recurrence at −i·ratio, keeps the newest row, and leaves
// the retired rows in the pool.
func TestHistoryRescaleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := history{width: 50}
	historyFixture(&h, maxHist, rng)
	old := make([][]float64, maxHist)
	for j := range old {
		old[j] = append([]float64(nil), h.rows[j]...)
	}
	newest := &h.rows[0][0]
	const ratio = 0.37
	h.rescale(ratio)
	if &h.rows[0][0] != newest {
		t.Fatal("rescale replaced the newest row")
	}
	want := make([]float64, h.width)
	for i := 1; i < maxHist; i++ {
		nevilleRef(want, old, -float64(i)*ratio)
		for c := range want {
			if math.Float64bits(h.rows[i][c]) != math.Float64bits(want[c]) {
				t.Fatalf("row %d[%d] = %v, reference %v", i, c, h.rows[i][c], want[c])
			}
		}
	}
	if len(h.rows)+len(h.spare) > 2*maxHist-1 {
		t.Fatalf("%d live + %d spare rows exceed the pool bound", len(h.rows), len(h.spare))
	}
}

// TestHistoryAllocationFree: once warm, interpolation and rescaling on
// both drivers, and a record-to-record continuation on the sparse path,
// allocate nothing.
func TestHistoryAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	serial := NewBDF(decay, 40, Options{})
	historyFixture(&serial.hist, maxHist, rng)
	batch := NewBatchBDF(func(_ float64, y, dy []float64) {}, 40, 16, BatchOptions{})
	historyFixture(&batch.hist, maxHist, rng)
	dst, dstB, lane := make([]float64, 40), make([]float64, 40*16), make([]float64, 40)

	ratio := 0.5
	checks := []struct {
		name string
		fn   func()
	}{
		{"BDF predictor", func() { serial.hist.eval(6, 1, dst) }},
		{"BDF.rescaleHistory", func() { serial.rescaleHistory(ratio); ratio = 2.5 / ratio }},
		{"BatchBDF predictor", func() { batch.hist.eval(6, 1, dstB) }},
		{"BatchBDF.extrapolateLane", func() { batch.extrapolateLane(5, -0.5, 3, lane) }},
		{"BatchBDF.rescaleHistory", func() { batch.rescaleHistory(ratio); ratio = 2.5 / ratio }},
	}
	for _, c := range checks {
		if a := testing.AllocsPerRun(100, c.fn); a != 0 {
			t.Errorf("%s: %v allocations per call, want 0", c.name, a)
		}
	}

	const n = 60
	f, _, pattern, sparseJac := tridiagSystem(n, 40, 1)
	s := NewBDF(f, n, Options{RTol: 1e-7, ATol: 1e-10, SparsePattern: pattern, SparseJacobian: sparseJac})
	y := make([]float64, n)
	for i := range y {
		y[i] = math.Sin(float64(i+1)) + 1.5
	}
	t0, dt := 0.0, 1e-3
	step := func() {
		if err := s.Integrate(t0, t0+dt, y); err != nil {
			t.Fatal(err)
		}
		t0 += dt
	}
	for i := 0; i < 50; i++ {
		step()
	}
	if !s.Sparse() {
		t.Fatal("continuation fixture stayed dense")
	}
	before := s.Stats()
	if a := testing.AllocsPerRun(200, step); a != 0 {
		t.Errorf("continuation Integrate: %v allocations per call, want 0", a)
	}
	if st := s.Stats(); st.Steps == before.Steps || st.Factorizations == before.Factorizations {
		t.Errorf("continuation calls took no steps or factorizations: %+v", st)
	}
}

// BenchmarkHistory times the history kernel per call: interpolation at
// the predictor abscissa for m = 2..6 and one full rescale at m = 6, over
// a serial state (n = 40) and a 16-lane SoA batch of it (n·B = 640).
func BenchmarkHistory(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, width := range []int{40, 40 * 16} {
		h := history{width: width}
		historyFixture(&h, maxHist, rng)
		dst := make([]float64, width)
		for m := 2; m <= maxHist; m++ {
			b.Run(fmt.Sprintf("eval/m=%d/n=%d", m, width), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					h.eval(m, 1, dst)
				}
			})
		}
		b.Run(fmt.Sprintf("rescale/m=6/n=%d", width), func(b *testing.B) {
			ratio := 0.5
			for i := 0; i < b.N; i++ {
				h.rescale(ratio)
				ratio = 1 / ratio
			}
		})
	}
}
