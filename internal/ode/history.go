package ode

// maxHist is the deepest history the Adams-Gear drivers keep: order 5
// interpolates through six points.
const maxHist = 6

// history is the BDF solution history shared by the serial and batched
// drivers: rows[i] holds the state at t − i·h (one width-long row per
// point, n for BDF and n·B SoA for BatchBDF). Rows are recycled through a
// spare pool, so once the pool has grown to its bound (maxHist live rows
// plus maxHist−1 being rescaled into) accepted steps, rescales and
// interpolations allocate nothing.
type history struct {
	rows  [][]float64
	spare [][]float64
	width int
}

// take returns a row from the spare pool, allocating one only while the
// pool is still growing.
func (h *history) take() []float64 {
	if k := len(h.spare); k > 0 {
		v := h.spare[k-1]
		h.spare = h.spare[:k-1]
		return v
	}
	return make([]float64, h.width)
}

// reset returns every row to the pool and restarts the history at y.
func (h *history) reset(y []float64) {
	h.spare = append(h.spare, h.rows...)
	h.rows = h.rows[:0]
	h.push(y)
}

// push prepends a copy of y as the newest point, recycling the oldest
// row once maxHist points are held.
func (h *history) push(y []float64) {
	var v []float64
	if k := len(h.rows); k == maxHist {
		v = h.rows[k-1]
		h.rows = h.rows[:k-1]
	} else {
		v = h.take()
	}
	copy(v, y)
	h.rows = append(h.rows, nil)
	copy(h.rows[1:], h.rows)
	h.rows[0] = v
}

// rescale re-samples the history polynomial (degree len(rows)−1) onto a
// grid with spacing ratio·h, keeping the newest point fixed: new row i is
// the polynomial at −i·ratio. It reports whether anything changed.
func (h *history) rescale(ratio float64) bool {
	m := len(h.rows)
	if m <= 1 || ratio == 1 {
		return false
	}
	var fresh [maxHist][]float64
	for i := 1; i < m; i++ {
		fresh[i] = h.take()
		evalHistory(fresh[i], h.rows, -float64(i)*ratio)
	}
	h.spare = append(h.spare, h.rows[1:]...)
	copy(h.rows[1:], fresh[1:m])
	return true
}

// eval evaluates the polynomial through the newest m points at x into dst.
func (h *history) eval(m int, x float64, dst []float64) {
	if m > len(h.rows) {
		m = len(h.rows)
	}
	evalHistory(dst, h.rows[:m], x)
}

// evalHistory is the history-polynomial kernel: for every component c it
// evaluates at x the degree-(m−1) polynomial through rows[j][c] at
// abscissa −j (m = len(rows) ≤ maxHist) into dst[c], for c < len(dst).
//
// It is Neville's recurrence
//
//	w[j] = ((x−x_{j+l})·w[j] − (x−x_j)·w[j+1]) / (x_j − x_{j+l}),  x_j = −j,
//
// with every floating-point operation of the textbook per-component form
// kept in its order, so the result is bit-identical to it. What changes
// is everything around those operations: the differences x − x_j depend
// only on x and are formed once per call instead of once per component
// and level; the divisor x_j − x_{j+l} is exactly the level l, and
// dividing by 1, 2 or 4 rounds the same real number as multiplying by 1,
// ½ or ¼, so only levels 3 and 5 divide; and each component's triangle
// lives in registers, unrolled per m.
func evalHistory(dst []float64, rows [][]float64, x float64) {
	var d [maxHist]float64
	for k := range rows {
		d[k] = x - -float64(k)
	}
	switch len(rows) {
	case 1:
		copy(dst, rows[0])
	case 2:
		evalHistory2(dst, rows, &d)
	case 3:
		evalHistory3(dst, rows, &d)
	case 4:
		evalHistory4(dst, rows, &d)
	case 5:
		evalHistory5(dst, rows, &d)
	case 6:
		evalHistory6(dst, rows, &d)
	default:
		panic("ode: history polynomial of unsupported length")
	}
}

func evalHistory2(dst []float64, rows [][]float64, d *[maxHist]float64) {
	n := len(dst)
	r0, r1 := rows[0][:n], rows[1][:n]
	d0, d1 := d[0], d[1]
	for c := range dst {
		w0, w1 := r0[c], r1[c]
		w0 = d1*w0 - d0*w1
		dst[c] = w0
	}
}

func evalHistory3(dst []float64, rows [][]float64, d *[maxHist]float64) {
	n := len(dst)
	r0, r1, r2 := rows[0][:n], rows[1][:n], rows[2][:n]
	d0, d1, d2 := d[0], d[1], d[2]
	for c := range dst {
		w0, w1, w2 := r0[c], r1[c], r2[c]
		w0 = d1*w0 - d0*w1
		w1 = d2*w1 - d1*w2
		w0 = (d2*w0 - d0*w1) * 0.5
		dst[c] = w0
	}
}

func evalHistory4(dst []float64, rows [][]float64, d *[maxHist]float64) {
	n := len(dst)
	r0, r1, r2, r3 := rows[0][:n], rows[1][:n], rows[2][:n], rows[3][:n]
	d0, d1, d2, d3 := d[0], d[1], d[2], d[3]
	for c := range dst {
		w0, w1, w2, w3 := r0[c], r1[c], r2[c], r3[c]
		w0 = d1*w0 - d0*w1
		w1 = d2*w1 - d1*w2
		w2 = d3*w2 - d2*w3
		w0 = (d2*w0 - d0*w1) * 0.5
		w1 = (d3*w1 - d1*w2) * 0.5
		w0 = (d3*w0 - d0*w1) / 3
		dst[c] = w0
	}
}

func evalHistory5(dst []float64, rows [][]float64, d *[maxHist]float64) {
	n := len(dst)
	r0, r1, r2, r3, r4 := rows[0][:n], rows[1][:n], rows[2][:n], rows[3][:n], rows[4][:n]
	d0, d1, d2, d3, d4 := d[0], d[1], d[2], d[3], d[4]
	for c := range dst {
		w0, w1, w2, w3, w4 := r0[c], r1[c], r2[c], r3[c], r4[c]
		w0 = d1*w0 - d0*w1
		w1 = d2*w1 - d1*w2
		w2 = d3*w2 - d2*w3
		w3 = d4*w3 - d3*w4
		w0 = (d2*w0 - d0*w1) * 0.5
		w1 = (d3*w1 - d1*w2) * 0.5
		w2 = (d4*w2 - d2*w3) * 0.5
		w0 = (d3*w0 - d0*w1) / 3
		w1 = (d4*w1 - d1*w2) / 3
		w0 = (d4*w0 - d0*w1) * 0.25
		dst[c] = w0
	}
}

func evalHistory6(dst []float64, rows [][]float64, d *[maxHist]float64) {
	n := len(dst)
	r0, r1, r2, r3, r4, r5 := rows[0][:n], rows[1][:n], rows[2][:n], rows[3][:n], rows[4][:n], rows[5][:n]
	d0, d1, d2, d3, d4, d5 := d[0], d[1], d[2], d[3], d[4], d[5]
	for c := range dst {
		w0, w1, w2, w3, w4, w5 := r0[c], r1[c], r2[c], r3[c], r4[c], r5[c]
		w0 = d1*w0 - d0*w1
		w1 = d2*w1 - d1*w2
		w2 = d3*w2 - d2*w3
		w3 = d4*w3 - d3*w4
		w4 = d5*w4 - d4*w5
		w0 = (d2*w0 - d0*w1) * 0.5
		w1 = (d3*w1 - d1*w2) * 0.5
		w2 = (d4*w2 - d2*w3) * 0.5
		w3 = (d5*w3 - d3*w4) * 0.5
		w0 = (d3*w0 - d0*w1) / 3
		w1 = (d4*w1 - d1*w2) / 3
		w2 = (d5*w2 - d2*w3) / 3
		w0 = (d4*w0 - d0*w1) * 0.25
		w1 = (d5*w1 - d1*w2) * 0.25
		w0 = (d5*w0 - d0*w1) / 5
		dst[c] = w0
	}
}
