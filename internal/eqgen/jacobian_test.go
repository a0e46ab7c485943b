package eqgen_test

import (
	"math"
	"math/rand"
	"testing"

	"rms/internal/codegen"
	"rms/internal/conformance"
	"rms/internal/eqgen"
	"rms/internal/expr"
	"rms/internal/network"
	"rms/internal/opt"
	"rms/internal/vulcan"
)

// diffSumJacobian is the per-entry reference: one expr.DiffSum per
// (equation, referenced species), rows in equation order and columns in
// Variables() order.
func diffSumJacobian(s *eqgen.System) []eqgen.JacEntry {
	index := s.SpeciesIndex()
	var entries []eqgen.JacEntry
	for row, eq := range s.Equations {
		for _, name := range eq.RHS.Variables() {
			col, ok := index[name]
			if !ok {
				continue
			}
			if d := expr.DiffSum(eq.RHS, name); !d.IsZero() {
				entries = append(entries, eqgen.JacEntry{Row: row, Col: col, RHS: d})
			}
		}
	}
	return entries
}

// checkJacobianExact asserts Jacobian() equals the DiffSum reference
// exactly: entry order and positions, product keys, coefficients as
// float64 bits, and each entry's value at a seeded state (Sum.Eval adds
// in the sum's stored order, so this also compares that order).
func checkJacobianExact(t *testing.T, s *eqgen.System) {
	t.Helper()
	got, want := s.Jacobian(), diffSumJacobian(s)
	if len(got) != len(want) {
		t.Fatalf("%d entries, reference has %d", len(got), len(want))
	}
	rng := rand.New(rand.NewSource(int64(len(want))))
	env := make(map[string]float64)
	for _, name := range append(append([]string(nil), s.Species...), s.Rates...) {
		env[name] = 0.1 + rng.Float64()
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Row != w.Row || g.Col != w.Col {
			t.Fatalf("entry %d at (%d,%d), reference (%d,%d)", i, g.Row, g.Col, w.Row, w.Col)
		}
		gp, wp := g.RHS.Products(), w.RHS.Products()
		if len(gp) != len(wp) {
			t.Fatalf("J[%d,%d]: %d products, reference %d", g.Row, g.Col, len(gp), len(wp))
		}
		for j := range wp {
			if gp[j].Key() != wp[j].Key() || math.Float64bits(gp[j].Coef) != math.Float64bits(wp[j].Coef) {
				t.Fatalf("J[%d,%d] product %d: %v, reference %v", g.Row, g.Col, j, gp[j], wp[j])
			}
		}
		if gv, wv := g.RHS.Eval(env), w.RHS.Eval(env); math.Float64bits(gv) != math.Float64bits(wv) {
			t.Fatalf("J[%d,%d] evaluates to %v, reference %v", g.Row, g.Col, gv, wv)
		}
	}
}

func parseNetwork(t *testing.T, text string) *eqgen.System {
	t.Helper()
	net, err := network.ParseText(text)
	if err != nil {
		t.Fatal(err)
	}
	return eqgen.FromNetwork(net)
}

func TestJacobianMatchesDiffSum(t *testing.T) {
	t.Run("fig3", func(t *testing.T) {
		checkJacobianExact(t, parseNetwork(t, `species A 1
species B 0
species C 0.5
species D 0.25
species E 0
reaction r1 K_A : A -> B B
reaction r2 K_CD : C D -> E
`))
	})
	t.Run("dimer", func(t *testing.T) {
		checkJacobianExact(t, parseNetwork(t, `species A 1
species A2 0
reaction dim K_d : A A -> A2
reaction back K_b : A2 -> A A
`))
	})
	t.Run("conformance", func(t *testing.T) {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			net := conformance.RandomNetwork(rng, 2+int(seed%17))
			checkJacobianExact(t, eqgen.FromNetwork(net))
		}
	})
	t.Run("vulcan60", func(t *testing.T) {
		sys, err := vulcan.System(60)
		if err != nil {
			t.Fatal(err)
		}
		checkJacobianExact(t, sys)
	})
}

// TestVulcan400JacobianPinned pins the compiled Jacobian of the
// benchmark's 400-variant vulcanization model to the entry count and
// tape op count it had when entries came from one DiffSum per
// (equation, variable).
func TestVulcan400JacobianPinned(t *testing.T) {
	sys, err := vulcan.System(400)
	if err != nil {
		t.Fatal(err)
	}
	jp, err := codegen.CompileJacobian(sys, opt.Full())
	if err != nil {
		t.Fatal(err)
	}
	muls, adds := jp.Prog.CountOps()
	const wantEntries, wantOps = 15199, 11625
	if jp.NumEntries() != wantEntries || muls+adds != wantOps {
		t.Errorf("entries %d, tape ops %d (%d mul + %d add); want %d entries, %d ops",
			jp.NumEntries(), muls+adds, muls, adds, wantEntries, wantOps)
	}
}
