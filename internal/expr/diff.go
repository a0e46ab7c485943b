package expr

// DiffSum returns ∂s/∂wrt as a canonical sum. Mass-action right-hand
// sides are polynomials in the concentrations, so the derivative of each
// product follows the power rule: a product containing the variable with
// multiplicity m contributes m·coef times the product with one occurrence
// removed. Products not containing the variable vanish. Gradient
// computes the same sums for many variables in one pass.
func DiffSum(s *Sum, wrt string) *Sum {
	d := NewSum()
	for _, p := range s.Products() {
		m := multiplicity(p, wrt)
		if m == 0 {
			continue
		}
		q := p.Divide(wrt)
		q.Coef *= float64(m)
		d.Add(q)
	}
	return d
}

// Gradient returns ∂s/∂wrt[i] for every name of wrt (names distinct),
// each the sum DiffSum(s, wrt[i]) returns. It sorts the products once
// and routes each product's power-rule derivative to the sum of every
// listed variable the product contains, so each sum receives the same
// products in the same order as DiffSum gives it and its coefficients
// accumulate bit for bit alike. The analytic Jacobian generator uses it
// to differentiate each equation with respect to all its species in one
// pass instead of one sort per (equation, species).
func Gradient(s *Sum, wrt []string) []*Sum {
	pos := make(map[string]int, len(wrt))
	ds := make([]*Sum, len(wrt))
	for i, name := range wrt {
		pos[name] = i
		ds[i] = NewSum()
	}
	for _, p := range s.Products() {
		for j, name := range p.Factors {
			i, ok := pos[name]
			if !ok || (j > 0 && p.Factors[j-1] == name) {
				continue // not differentiated, or a repeat already routed
			}
			q := p.Divide(name)
			q.Coef *= float64(multiplicity(p, name))
			ds[i].Add(q)
		}
	}
	return ds
}

// multiplicity counts occurrences of the factor in the product.
func multiplicity(p Product, name string) int {
	n := 0
	for _, f := range p.Factors {
		if f == name {
			n++
		}
	}
	return n
}
