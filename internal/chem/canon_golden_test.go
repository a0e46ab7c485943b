package chem

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCanonicalGolden holds canonical SMILES byte for byte to the
// forms recorded in testdata/canonical.golden. Species identity in the
// RDL front end is the canonical string, so any change to the ranking
// that reorders atoms — even one that keeps canonicalization a
// permutation invariant — would rename species and reorder networks.
// The inputs are the SMILES fuzz corpus, families of chains, branches
// and rings, and seeded random graphs with every invariant the ranking
// reads (element, hydrogens, charge, class, degree, bond orders).
func TestCanonicalGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "canonical.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := canonicalGolden(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("got %d lines, want %d", len(gl), len(wl))
}

// canonicalGolden renders one "label<TAB>quoted canonical SMILES" line
// per golden input.
func canonicalGolden(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	add := func(label string, m *Molecule) {
		fmt.Fprintf(&b, "%s\t%s\n", label, strconv.Quote(m.Canonical()))
	}
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParseSMILES", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("fuzz corpus: %v (%d files)", err, len(files))
	}
	for _, f := range files {
		src := readFuzzString(t, f)
		m, err := ParseSMILES(src)
		if err != nil {
			fmt.Fprintf(&b, "%s\trejected\n", strconv.Quote(src))
			continue
		}
		add(strconv.Quote(src), m)
	}
	for _, src := range goldenSMILES() {
		m, err := ParseSMILES(src)
		if err != nil {
			t.Fatalf("golden input %q: %v", src, err)
		}
		add(strconv.Quote(src), m)
	}
	rng := rand.New(rand.NewSource(20071))
	for i := 0; i < 120; i++ {
		add("random-"+strconv.Itoa(i), randomGraph(rng))
	}
	return b.String()
}

// readFuzzString returns the single string argument of a go-fuzz corpus
// file ("go test fuzz v1" followed by `string("...")`).
func readFuzzString(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a one-argument corpus file", path)
	}
	arg := strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")")
	s, err := strconv.Unquote(arg)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return s
}

// goldenSMILES lists structure families of the kind the RDL programs
// generate: polysulfide crosslinks and their radical fragments, labeled
// sites, branched accelerator-like heads, rings (with %nn closures),
// charges and disconnected parts.
func goldenSMILES() []string {
	var ss []string
	for n := 1; n <= 40; n++ {
		s := strings.Repeat("S", n)
		ss = append(ss, "C"+s+"C", "C"+s+"[S]", "[CH2]"+s+"C", "C[S:1]"+s+"[S:2]C")
	}
	for n := 1; n <= 8; n++ {
		s := strings.Repeat("S", n)
		ss = append(ss,
			"CC(C)(C)"+s+"C(C)(C)C",
			"CC(=O)"+s+"[CH2]",
			"C(=C)C"+s+"[CH2]",
			"C1"+strings.Repeat("C", n)+"C1",
			"C1"+s+"C1",
			"C1CC(C1)"+s+"C2CCC2",
			"CC(C)"+s+"C(C)C",
		)
	}
	return append(ss,
		"C1CC2CCC1C2", "C12CC1C2", "C%10CCCC%10", "C1CC%12CCC1CC%12",
		"C#C", "CC#N", "C=C=C", "O=C=O", "C(=O)(O)CS",
		"[NH4+]", "[O-]C", "[S-][S+]", "[Zn+2]", "[SH2+2:99]",
		"C.CCS", "CS.SC", "[S].[S]", "C[S:1].[CH3:3]",
		"CC(C)(C)C(=O)O", "C1CC1C(=O)S", "CC(=O)SSS[CH2]",
	)
}

// randomGraph builds a molecule directly (bypassing the parser and its
// valence rules): 1–16 atoms, a random forest plus up to two extra ring
// bonds, random bond orders, hydrogens, charges and classes.
func randomGraph(rng *rand.Rand) *Molecule {
	elements := []Element{"C", "C", "S", "S", "O", "N", "Zn"}
	n := 1 + rng.Intn(16)
	m := New()
	for i := 0; i < n; i++ {
		a := Atom{Element: elements[rng.Intn(len(elements))], Hs: rng.Intn(4)}
		if rng.Intn(5) == 0 {
			a.Charge = rng.Intn(3) - 1
		}
		if rng.Intn(4) == 0 {
			a.Class = 1 + rng.Intn(3)
		}
		m.AddAtom(a)
	}
	for i := 1; i < n; i++ {
		if rng.Intn(8) == 0 {
			continue // leave a disconnected part
		}
		m.Bonds = append(m.Bonds, Bond{A: rng.Intn(i), B: i, Order: 1 + rng.Intn(3)})
	}
	for k := rng.Intn(3); k > 0 && n > 2; k-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if _, dup := m.BondBetween(a, b); a != b && !dup {
			m.Bonds = append(m.Bonds, Bond{A: a, B: b, Order: 1 + rng.Intn(2)})
		}
	}
	return m
}
