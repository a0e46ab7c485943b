package chem

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
)

// Bond is an undirected edge between two atoms with an integer bond order
// (1 = single, 2 = double, 3 = triple).
type Bond struct {
	A, B  int
	Order int
}

// Other returns the endpoint of b that is not atom i.
func (b Bond) Other(i int) int {
	if b.A == i {
		return b.B
	}
	return b.A
}

// Molecule is a connected or disconnected molecular graph. The reaction
// engine treats each connected component as one species; Fragments splits
// them apart after bond-breaking edits.
type Molecule struct {
	Atoms []Atom
	Bonds []Bond
}

// New returns an empty molecule.
func New() *Molecule { return &Molecule{} }

// AddAtom appends an atom and returns its index.
func (m *Molecule) AddAtom(a Atom) int {
	m.Atoms = append(m.Atoms, a)
	return len(m.Atoms) - 1
}

// Clone returns a deep copy of the molecule.
func (m *Molecule) Clone() *Molecule {
	c := &Molecule{
		Atoms: make([]Atom, len(m.Atoms)),
		Bonds: make([]Bond, len(m.Bonds)),
	}
	copy(c.Atoms, m.Atoms)
	copy(c.Bonds, m.Bonds)
	return c
}

// AppendGraphKey appends an exact encoding of the labeled graph to buf
// and returns the extended buffer: the atom count, then each atom's
// element, hydrogens, charge and class, then each bond's endpoints and
// order, all in stored order. Element symbols are letters and numbers
// are signed decimals, so the ',' and ';' separators make the encoding
// injective: two molecules get equal keys exactly when their atoms and
// bonds are equal field by field. Canonical depends on nothing else, so
// it can be memoized by this key.
func (m *Molecule) AppendGraphKey(buf []byte) []byte {
	buf = strconv.AppendInt(buf, int64(len(m.Atoms)), 10)
	buf = append(buf, ';')
	for _, a := range m.Atoms {
		buf = append(buf, a.Element...)
		buf = strconv.AppendInt(append(buf, ','), int64(a.Hs), 10)
		buf = strconv.AppendInt(append(buf, ','), int64(a.Charge), 10)
		buf = strconv.AppendInt(append(buf, ','), int64(a.Class), 10)
		buf = append(buf, ';')
	}
	for _, b := range m.Bonds {
		buf = strconv.AppendInt(buf, int64(b.A), 10)
		buf = strconv.AppendInt(append(buf, ','), int64(b.B), 10)
		buf = strconv.AppendInt(append(buf, ','), int64(b.Order), 10)
		buf = append(buf, ';')
	}
	return buf
}

// bondIndex returns the index of the bond joining atoms i and j, or -1.
func (m *Molecule) bondIndex(i, j int) int {
	for k, b := range m.Bonds {
		if (b.A == i && b.B == j) || (b.A == j && b.B == i) {
			return k
		}
	}
	return -1
}

// BondBetween returns the bond joining atoms i and j.
func (m *Molecule) BondBetween(i, j int) (Bond, bool) {
	if k := m.bondIndex(i, j); k >= 0 {
		return m.Bonds[k], true
	}
	return Bond{}, false
}

// Adjacency returns, for every atom, the indices of the atoms bonded to
// it in ascending order, built in one pass over the bonds.
func (m *Molecule) Adjacency() [][]int {
	deg := make([]int, len(m.Atoms))
	for _, b := range m.Bonds {
		deg[b.A]++
		if b.B != b.A {
			deg[b.B]++
		}
	}
	adj := make([][]int, len(m.Atoms))
	flat := make([]int, 2*len(m.Bonds))
	for i, d := range deg {
		adj[i], flat = flat[:0:d], flat[d:]
	}
	for _, b := range m.Bonds {
		adj[b.A] = append(adj[b.A], b.B)
		if b.B != b.A {
			adj[b.B] = append(adj[b.B], b.A)
		}
	}
	for _, ns := range adj {
		sort.Ints(ns)
	}
	return adj
}

// BondOrderSum returns the total bond order at atom i (excluding implicit
// hydrogens).
func (m *Molecule) BondOrderSum(i int) int {
	s := 0
	for _, b := range m.Bonds {
		if b.A == i || b.B == i {
			s += b.Order
		}
	}
	return s
}

// FreeValence returns the radical electron count at atom i.
func (m *Molecule) FreeValence(i int) int {
	return m.Atoms[i].freeValence(m.BondOrderSum(i))
}

// IsRadical reports whether any atom has free valence.
func (m *Molecule) IsRadical() bool {
	for i := range m.Atoms {
		if m.FreeValence(i) > 0 {
			return true
		}
	}
	return false
}

// checkAtom validates an atom index.
func (m *Molecule) checkAtom(i int) error {
	if i < 0 || i >= len(m.Atoms) {
		return fmt.Errorf("chem: atom index %d out of range [0,%d)", i, len(m.Atoms))
	}
	return nil
}

// ErrWouldExceedValence is returned by edits that would push an atom past
// its maximum standard valence.
var ErrWouldExceedValence = errors.New("chem: edit would exceed maximum valence")

// maxValence returns the largest standard valence for the element,
// or a permissive default for unknown elements.
func maxValence(e Element) int {
	vals, ok := defaultValences[e]
	if !ok {
		return 8
	}
	return vals[len(vals)-1]
}

// Connect adds a bond of the given order between atoms i and j — RDL rule
// "connect two atoms". Each endpoint must have enough free valence; the
// edit consumes radical electrons first and never displaces hydrogens
// implicitly (use RemoveHydrogen for that).
func (m *Molecule) Connect(i, j, order int) error {
	if err := m.checkAtom(i); err != nil {
		return err
	}
	if err := m.checkAtom(j); err != nil {
		return err
	}
	if i == j {
		return fmt.Errorf("chem: cannot bond atom %d to itself", i)
	}
	if m.bondIndex(i, j) >= 0 {
		return fmt.Errorf("chem: atoms %d and %d already bonded (use IncreaseBondOrder)", i, j)
	}
	if order < 1 || order > 3 {
		return fmt.Errorf("chem: invalid bond order %d", order)
	}
	for _, a := range []int{i, j} {
		if m.BondOrderSum(a)+m.Atoms[a].Hs+order > maxValence(m.Atoms[a].Element) {
			return fmt.Errorf("%w: atom %d (%s)", ErrWouldExceedValence, a, m.Atoms[a].Element)
		}
	}
	m.Bonds = append(m.Bonds, Bond{A: i, B: j, Order: order})
	return nil
}

// Disconnect removes the bond between atoms i and j — RDL rule "disconnect
// two atoms". The electrons return to the endpoints as free valence
// (homolytic cleavage, the dominant mode in thermal vulcanization
// chemistry), so both fragments become radicals unless hydrogens are added
// afterwards.
func (m *Molecule) Disconnect(i, j int) error {
	k := m.bondIndex(i, j)
	if k < 0 {
		return fmt.Errorf("chem: no bond between atoms %d and %d", i, j)
	}
	m.Bonds = append(m.Bonds[:k], m.Bonds[k+1:]...)
	return nil
}

// IncreaseBondOrder raises the bond order between i and j by one — RDL rule
// "increase the bond order between two atoms".
func (m *Molecule) IncreaseBondOrder(i, j int) error {
	k := m.bondIndex(i, j)
	if k < 0 {
		return fmt.Errorf("chem: no bond between atoms %d and %d", i, j)
	}
	if m.Bonds[k].Order >= 3 {
		return fmt.Errorf("chem: bond %d-%d already at maximum order", i, j)
	}
	for _, a := range []int{i, j} {
		if m.BondOrderSum(a)+m.Atoms[a].Hs+1 > maxValence(m.Atoms[a].Element) {
			return fmt.Errorf("%w: atom %d (%s)", ErrWouldExceedValence, a, m.Atoms[a].Element)
		}
	}
	m.Bonds[k].Order++
	return nil
}

// DecreaseBondOrder lowers the bond order between i and j by one — RDL rule
// "decrease the bond order between two atoms". Lowering a single bond
// removes it entirely (equivalent to Disconnect).
func (m *Molecule) DecreaseBondOrder(i, j int) error {
	k := m.bondIndex(i, j)
	if k < 0 {
		return fmt.Errorf("chem: no bond between atoms %d and %d", i, j)
	}
	if m.Bonds[k].Order == 1 {
		m.Bonds = append(m.Bonds[:k], m.Bonds[k+1:]...)
		return nil
	}
	m.Bonds[k].Order--
	return nil
}

// RemoveHydrogen abstracts one hydrogen from atom i — RDL rule "remove a
// hydrogen atom" — leaving a radical site.
func (m *Molecule) RemoveHydrogen(i int) error {
	if err := m.checkAtom(i); err != nil {
		return err
	}
	if m.Atoms[i].Hs == 0 {
		return fmt.Errorf("chem: atom %d (%s) has no hydrogens to remove", i, m.Atoms[i].Element)
	}
	m.Atoms[i].Hs--
	return nil
}

// AddHydrogen caps free valence on atom i with one hydrogen — RDL rule
// "add hydrogen atoms".
func (m *Molecule) AddHydrogen(i int) error {
	if err := m.checkAtom(i); err != nil {
		return err
	}
	if m.BondOrderSum(i)+m.Atoms[i].Hs+1 > maxValence(m.Atoms[i].Element) {
		return fmt.Errorf("%w: atom %d (%s)", ErrWouldExceedValence, i, m.Atoms[i].Element)
	}
	m.Atoms[i].Hs++
	return nil
}

// Combine merges other into m as a disconnected part and returns the index
// offset applied to other's atoms (callers use it to address the merged
// atoms, typically to Connect across the former boundary).
func (m *Molecule) Combine(other *Molecule) int {
	off := len(m.Atoms)
	m.Atoms = append(m.Atoms, other.Atoms...)
	for _, b := range other.Bonds {
		m.Bonds = append(m.Bonds, Bond{A: b.A + off, B: b.B + off, Order: b.Order})
	}
	return off
}

// Fragments splits the molecule into its connected components, each a
// standalone molecule. Atom order within each fragment follows the original
// indices, so edits remain deterministic.
func (m *Molecule) Fragments() []*Molecule {
	n := len(m.Atoms)
	if n == 0 {
		return nil
	}
	adj := m.Adjacency()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	nc := 0
	for i := 0; i < n; i++ {
		if comp[i] >= 0 {
			continue
		}
		// BFS
		queue := []int{i}
		comp[i] = nc
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if comp[w] < 0 {
					comp[w] = nc
					queue = append(queue, w)
				}
			}
		}
		nc++
	}
	frags := make([]*Molecule, nc)
	remap := make([]int, n)
	for c := 0; c < nc; c++ {
		frags[c] = New()
	}
	for i := 0; i < n; i++ {
		remap[i] = frags[comp[i]].AddAtom(m.Atoms[i])
	}
	for _, b := range m.Bonds {
		f := frags[comp[b.A]]
		f.Bonds = append(f.Bonds, Bond{A: remap[b.A], B: remap[b.B], Order: b.Order})
	}
	return frags
}

// CountElement returns the number of atoms of element e (implicit
// hydrogens are counted when e is "H").
func (m *Molecule) CountElement(e Element) int {
	n := 0
	for _, a := range m.Atoms {
		if a.Element == e {
			n++
		}
		if e == "H" {
			n += a.Hs
		}
	}
	return n
}

// Formula returns the Hill-order molecular formula (C first, then H, then
// other elements alphabetically), e.g. "C4H8S2".
func (m *Molecule) Formula() string {
	counts := make(map[Element]int)
	h := 0
	for _, a := range m.Atoms {
		counts[a.Element]++
		h += a.Hs
	}
	h += counts["H"]
	delete(counts, "H")
	var keys []string
	for e := range counts {
		if e != "C" {
			keys = append(keys, string(e))
		}
	}
	sort.Strings(keys)
	out := ""
	emit := func(sym string, n int) string {
		if n == 0 {
			return ""
		}
		if n == 1 {
			return sym
		}
		return fmt.Sprintf("%s%d", sym, n)
	}
	out += emit("C", counts["C"])
	out += emit("H", h)
	for _, k := range keys {
		out += emit(k, counts[Element(k)])
	}
	return out
}

// FindClass returns the indices of atoms carrying the given class label,
// ascending. RDL rules use classes to address reaction sites.
func (m *Molecule) FindClass(class int) []int {
	var out []int
	for i, a := range m.Atoms {
		if a.Class == class {
			out = append(out, i)
		}
	}
	return out
}
