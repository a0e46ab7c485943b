package chem

import "testing"

// TestAppendGraphKeyExact checks that changing any single field the key
// encodes, or adding an atom or a bond, changes the key, so a memo
// keyed by it never merges two distinct labeled graphs.
func TestAppendGraphKeyExact(t *testing.T) {
	base := func() *Molecule {
		m, err := ParseSMILES("C[S:2]S[O-]")
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	edits := map[string]func(m *Molecule){
		"element":       func(m *Molecule) { m.Atoms[0].Element = "N" },
		"hydrogens":     func(m *Molecule) { m.Atoms[0].Hs++ },
		"charge":        func(m *Molecule) { m.Atoms[3].Charge = 0 },
		"class":         func(m *Molecule) { m.Atoms[1].Class = 12 },
		"bond endpoint": func(m *Molecule) { m.Bonds[2].B = 0 },
		"bond order":    func(m *Molecule) { m.Bonds[0].Order = 2 },
		"added atom":    func(m *Molecule) { m.AddAtom(Atom{Element: "C"}) },
		"added bond":    func(m *Molecule) { m.Bonds = append(m.Bonds, Bond{A: 0, B: 3, Order: 1}) },
	}
	want := string(base().AppendGraphKey(nil))
	if again := string(base().AppendGraphKey(nil)); again != want {
		t.Fatalf("equal graphs, different keys:\n%s\n%s", want, again)
	}
	seen := map[string]string{want: "base"}
	for name, edit := range edits {
		m := base()
		edit(m)
		k := string(m.AppendGraphKey(nil))
		if prev, ok := seen[k]; ok {
			t.Errorf("%s: key %q equals the key after %s", name, k, prev)
		}
		seen[k] = name
	}
}

// TestAppendGraphKeyRenumbering checks that two atom numberings of one
// fragment get different keys — the key is exact, not an invariant —
// while Canonical, which a memo hit stands in for, agrees.
func TestAppendGraphKeyRenumbering(t *testing.T) {
	a, err := ParseSMILES("CSS[S]")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSMILES("[S]SSC")
	if err != nil {
		t.Fatal(err)
	}
	if ka, kb := string(a.AppendGraphKey(nil)), string(b.AppendGraphKey(nil)); ka == kb {
		t.Errorf("renumbered fragments share key %q", ka)
	}
	if ca, cb := a.Canonical(), b.Canonical(); ca != cb {
		t.Errorf("Canonical %q != %q", ca, cb)
	}
}
