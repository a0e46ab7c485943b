package expr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDiffSumBasics(t *testing.T) {
	cases := []struct {
		sum  *Sum
		wrt  string
		want string
	}{
		// d(-K_A*A)/dA = -K_A
		{SumOf(NewProduct(-1, "K_A", "A")), "A", "-K_A"},
		// d(K*C*D)/dC = K*D
		{SumOf(NewProduct(1, "K_CD", "C", "D")), "C", "K_CD*D"},
		// power rule: d(-2*K*A*A)/dA = -4*K*A
		{SumOf(NewProduct(-2, "K_d", "A", "A")), "A", "-4*K_d*A"},
		// sums differentiate termwise
		{SumOf(NewProduct(1, "K_1", "A", "B"), NewProduct(3, "K_2", "A")), "A",
			"K_1*B + 3*K_2"},
		// vanishing derivative
		{SumOf(NewProduct(1, "K_1", "B")), "A", "0"},
		// cubic: d(K*A^3)/dA = 3*K*A^2
		{SumOf(NewProduct(1, "K_1", "A", "A", "A")), "A", "3*K_1*A*A"},
	}
	for _, c := range cases {
		if got := DiffSum(c.sum, c.wrt).String(); got != c.want {
			t.Errorf("d(%s)/d%s = %q, want %q", c.sum, c.wrt, got, c.want)
		}
	}
}

// Property: the symbolic derivative matches a central finite difference.
func TestDiffSumMatchesFiniteDifference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSum(rng, testNames)
		wrt := testNames[rng.Intn(len(testNames))]
		d := DiffSum(s, wrt)
		env := randomEnv(rng, testNames)
		const h = 1e-6
		envP := cloneEnv(env)
		envP[wrt] += h
		envM := cloneEnv(env)
		envM[wrt] -= h
		fd := (s.Eval(envP) - s.Eval(envM)) / (2 * h)
		sym := d.Eval(env)
		return math.Abs(fd-sym) <= 1e-4*(1+math.Abs(sym))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: differentiation is linear.
func TestDiffSumLinear(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSum(rng, testNames)
		b := randomSum(rng, testNames)
		wrt := testNames[rng.Intn(len(testNames))]
		sum := a.Clone()
		sum.AddSum(b)
		lhs := DiffSum(sum, wrt)
		rhs := DiffSum(a, wrt)
		rhs.AddSum(DiffSum(b, wrt))
		env := randomEnv(rng, testNames)
		return approxEqual(lhs.Eval(env), rhs.Eval(env), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func cloneEnv(env map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(env))
	for k, v := range env {
		out[k] = v
	}
	return out
}

// Property: each sum Gradient returns is the one DiffSum returns for its
// variable, product for product and bit for bit, including the order the
// products are stored in (Eval adds in that order).
func TestGradientMatchesDiffSum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSum(rng, testNames)
		s.AddSum(randomSum(rng, testNames))
		wrt := s.Variables()
		rng.Shuffle(len(wrt), func(i, j int) { wrt[i], wrt[j] = wrt[j], wrt[i] })
		wrt = wrt[:rng.Intn(len(wrt)+1)]
		env := randomEnv(rng, testNames)
		for i, g := range Gradient(s, wrt) {
			d := DiffSum(s, wrt[i])
			if g.String() != d.String() || math.Float64bits(g.Eval(env)) != math.Float64bits(d.Eval(env)) {
				t.Logf("d(%s)/d%s: Gradient %s, DiffSum %s", s, wrt[i], g, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}
