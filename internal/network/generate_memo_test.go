package network

import (
	"os"
	"path/filepath"
	"testing"

	"rms/internal/rdl"
)

// TestGenerateMemoCounts pins how much work one generation of the
// chain-scission program shares: 1540 firings canonicalize 3080 product
// fragments and resolve 3080 chain sites, but the canonical-SMILES memo
// holds one entry per distinct labeled graph and the chain cache one
// chain per reactant that fires (Crosslink_6 .. Crosslink_60). The 173
// graphs are the 118 declared structures and 110 distinct product
// graphs, 55 of which (the methyl-side fragments) equal a declared
// Dangling structure atom for atom. A change that bypasses either cache
// fails here.
func TestGenerateMemoCounts(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "golden", "chain_scission.rdl"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := rdl.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	g := newGenerator()
	if err := g.generate(prog); err != nil {
		t.Fatal(err)
	}
	if got := len(g.net.Reactions); got != 1540 {
		t.Errorf("reactions = %d, want 1540", got)
	}
	if got := len(g.chains); got != 55 {
		t.Errorf("cached chains = %d, want 55", got)
	}
	if got := len(g.canon); got != 173 {
		t.Errorf("canonical memo entries = %d, want 173", got)
	}
}
