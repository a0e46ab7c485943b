package chem

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// canonicalRanks computes a canonical atom ordering with a Morgan-style
// iterative refinement: atoms start with an invariant built from local
// properties, then repeatedly absorb sorted neighbor ranks until the
// partition stabilizes; remaining ties are broken deterministically by
// artificially distinguishing one member of the first tied cell and
// re-refining (the standard canonical-labeling device). The result maps
// each atom to a dense rank; equal molecules (up to graph isomorphism over
// our invariants) receive identical rank structures.
//
// Ranks order atoms by byte strings: the initial invariant
// "element|Hs|charge|class|degree|bond-order sum" and the refinement key
// "rank|order:rank,order:rank,..." (neighbor tokens sorted as strings),
// all numbers in decimal. Keys compare as strings, so rank 10 sorts
// before rank 9; canonical SMILES, and with them species identity, depend
// on exactly this order.
//
// adj, deg and sums are the atoms' bond lists, degrees and bond-order
// sums (see bondLists).
func canonicalRanks(m *Molecule, adj [][]Bond, deg, sums []int) []int {
	n := len(m.Atoms)
	if n == 0 {
		return nil
	}
	keys := rankKeys{buf: make([]byte, 0, 16*n), end: make([]int, 0, n), sorted: make([]rankKey, 0, n)}
	for i, a := range m.Atoms {
		k := append(keys.buf, a.Element...)
		for _, v := range [...]int{a.Hs, a.Charge, a.Class, deg[i], sums[i]} {
			k = strconv.AppendInt(append(k, '|'), int64(v), 10)
		}
		keys.buf = k
		keys.end = append(keys.end, len(k))
	}
	ranks, spare := make([]int, n), make([]int, n)
	d := keys.dense(ranks)

	// refine absorbs neighbor ranks until the number of distinct ranks
	// stops growing; r holds d distinct ranks on entry.
	var tbuf []byte  // one atom's neighbor tokens, back to back
	var tend []int   // token j of tbuf ends at tend[j]
	var tok [][]byte // the tokens, sorted
	refine := func(r []int, d int) ([]int, int) {
		for {
			keys.reset()
			for i := 0; i < n; i++ {
				tbuf, tend, tok = tbuf[:0], tend[:0], tok[:0]
				for _, b := range adj[i] {
					tbuf = strconv.AppendInt(tbuf, int64(b.Order), 10)
					tbuf = strconv.AppendInt(append(tbuf, ':'), int64(r[b.Other(i)]), 10)
					tend = append(tend, len(tbuf))
				}
				lo := 0
				for _, hi := range tend {
					tok = append(tok, tbuf[lo:hi])
					lo = hi
				}
				slices.SortFunc(tok, bytes.Compare)
				k := strconv.AppendInt(keys.buf, int64(r[i]), 10)
				k = append(k, '|')
				for j, t := range tok {
					if j > 0 {
						k = append(k, ',')
					}
					k = append(k, t...)
				}
				keys.buf = k
				keys.end = append(keys.end, len(k))
			}
			nr := spare
			nd := keys.dense(nr)
			spare = r
			if nd == d {
				return nr, nd
			}
			r, d = nr, nd
		}
	}
	ranks, d = refine(ranks, d)

	// Tie-breaking until all ranks distinct. Ranks are dense, 0..d-1.
	count := make([]int, n)
	for d < n {
		// Find the first tied cell (smallest rank value with >1 member),
		// promote its lowest-index member: shift all ranks >= r up by one,
		// give that member rank r, leave the rest of the cell at r+1.
		clear(count)
		for _, r := range ranks {
			count[r]++
		}
		r := 0
		for count[r] < 2 {
			r++
		}
		first := slices.Index(ranks, r)
		for i := range ranks {
			if ranks[i] > r || (ranks[i] == r && i != first) {
				ranks[i]++
			}
		}
		ranks, d = refine(ranks, d+1)
	}
	return ranks
}

// bondLists returns each atom's bonds, its degree (the number of atoms
// bonded to it) and its bond-order sum (BondOrderSum) in one pass over
// the bonds.
func bondLists(m *Molecule) (adj [][]Bond, deg, sums []int) {
	n := len(m.Atoms)
	adj, deg, sums = make([][]Bond, n), make([]int, n), make([]int, n)
	for _, b := range m.Bonds {
		adj[b.A] = append(adj[b.A], b)
		adj[b.B] = append(adj[b.B], b)
		deg[b.A]++
		sums[b.A] += b.Order
		if b.B != b.A {
			deg[b.B]++
			sums[b.B] += b.Order
		}
	}
	return adj, deg, sums
}

// rankKeys holds one byte-string key per atom, back to back in buf;
// key i ends at end[i].
type rankKeys struct {
	buf    []byte
	end    []int
	sorted []rankKey
}

type rankKey struct {
	key  []byte
	atom int
}

func (k *rankKeys) reset() { k.buf, k.end = k.buf[:0], k.end[:0] }

// dense writes each key's dense rank — the number of distinct keys that
// sort before it as strings — into out and returns the number of
// distinct keys.
func (k *rankKeys) dense(out []int) int {
	k.sorted = k.sorted[:0]
	lo := 0
	for i, hi := range k.end {
		k.sorted = append(k.sorted, rankKey{k.buf[lo:hi], i})
		lo = hi
	}
	slices.SortFunc(k.sorted, func(a, b rankKey) int { return bytes.Compare(a.key, b.key) })
	d := 0
	for j, s := range k.sorted {
		if j > 0 && !bytes.Equal(s.key, k.sorted[j-1].key) {
			d++
		}
		out[s.atom] = d
	}
	return d + 1
}

// Canonical returns the canonical SMILES of the molecule. Two molecules
// that are the same chemical species (same graph, hydrogens, charges,
// classes) produce the same string, which the reaction-network generator
// uses as species identity. Disconnected parts are each canonicalized and
// joined with '.' in sorted order.
func (m *Molecule) Canonical() string {
	frags := m.Fragments()
	if len(frags) == 0 {
		return ""
	}
	if len(frags) == 1 {
		return writeCanonicalFragment(frags[0])
	}
	parts := make([]string, len(frags))
	for i, f := range frags {
		parts[i] = writeCanonicalFragment(f)
	}
	sort.Strings(parts)
	return strings.Join(parts, ".")
}

// SMILES is an alias of Canonical; the writer always emits canonical form.
func (m *Molecule) SMILES() string { return m.Canonical() }

// writeCanonicalFragment emits one connected component as canonical SMILES.
func writeCanonicalFragment(m *Molecule) string {
	n := len(m.Atoms)
	if n == 0 {
		return ""
	}
	adj, deg, sums := bondLists(m)
	ranks := canonicalRanks(m, adj, deg, sums)

	// Root: the atom with the smallest canonical rank.
	root := 0
	for i := 1; i < n; i++ {
		if ranks[i] < ranks[root] {
			root = i
		}
	}

	for i := range adj {
		bs := adj[i]
		sort.Slice(bs, func(x, y int) bool { return ranks[bs[x].Other(i)] < ranks[bs[y].Other(i)] })
	}

	// DFS assigning ring-closure numbers to back edges.
	visited := make([]bool, n)
	inSpanning := make(map[[2]int]bool) // edges used by the DFS tree
	type ringUse struct {
		num   int
		order int
	}
	ringAt := make(map[int][]ringUse) // atom -> ring closures to print
	nextRing := 1

	// First pass: walk the DFS to discover back edges.
	var discover func(v, parent int)
	discover = func(v, parent int) {
		visited[v] = true
		for _, b := range adj[v] {
			w := b.Other(v)
			if w == parent {
				continue
			}
			if visited[w] {
				key := edgeKey(v, w)
				if !inSpanning[key] {
					inSpanning[key] = true // mark back edge handled
					num := nextRing
					nextRing++
					ringAt[v] = append(ringAt[v], ringUse{num: num, order: b.Order})
					ringAt[w] = append(ringAt[w], ringUse{num: num, order: b.Order})
				}
				continue
			}
			inSpanning[edgeKey(v, w)] = true
			discover(w, v)
		}
	}
	discover(root, -1)

	// Second pass: emit.
	for i := range visited {
		visited[i] = false
	}
	var emit func(v, parent int, viaOrder int, sb *strings.Builder)
	emit = func(v, parent, viaOrder int, sb *strings.Builder) {
		visited[v] = true
		if viaOrder == 2 {
			sb.WriteByte('=')
		} else if viaOrder == 3 {
			sb.WriteByte('#')
		}
		sb.WriteString(atomSMILES(m.Atoms[v], sums[v]))
		for _, r := range ringAt[v] {
			if r.order == 2 {
				sb.WriteByte('=')
			} else if r.order == 3 {
				sb.WriteByte('#')
			}
			if r.num > 9 {
				fmt.Fprintf(sb, "%%%02d", r.num)
			} else {
				fmt.Fprintf(sb, "%d", r.num)
			}
		}
		var kids []Bond
		for _, b := range adj[v] {
			w := b.Other(v)
			if w != parent && !visited[w] {
				kids = append(kids, b)
			}
		}
		for i, b := range kids {
			w := b.Other(v)
			if visited[w] {
				continue // reached via an earlier child subtree (ring)
			}
			last := true
			for _, b2 := range kids[i+1:] {
				if !visited[b2.Other(v)] {
					last = false
					break
				}
			}
			if !last {
				sb.WriteByte('(')
				emit(w, v, b.Order, sb)
				sb.WriteByte(')')
			} else {
				emit(w, v, b.Order, sb)
			}
		}
	}
	var sb strings.Builder
	emit(root, -1, 0, &sb)
	return sb.String()
}

func edgeKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// atomSMILES writes one atom, using the bare organic-subset form whenever
// the implicit-hydrogen rule would reconstruct the stored hydrogen count,
// and a bracket atom otherwise.
func atomSMILES(a Atom, bondSum int) string {
	bare := organicSubset[a.Element] &&
		a.Charge == 0 && a.Class == 0 &&
		a.Hs == implicitHs(a.Element, bondSum)
	if bare {
		return string(a.Element)
	}
	var sb strings.Builder
	sb.WriteByte('[')
	sb.WriteString(string(a.Element))
	if a.Hs == 1 {
		sb.WriteByte('H')
	} else if a.Hs > 1 {
		fmt.Fprintf(&sb, "H%d", a.Hs)
	}
	if a.Charge > 0 {
		sb.WriteByte('+')
		if a.Charge > 1 {
			fmt.Fprintf(&sb, "%d", a.Charge)
		}
	} else if a.Charge < 0 {
		sb.WriteByte('-')
		if a.Charge < -1 {
			fmt.Fprintf(&sb, "%d", -a.Charge)
		}
	}
	if a.Class != 0 {
		fmt.Fprintf(&sb, ":%d", a.Class)
	}
	sb.WriteByte(']')
	return sb.String()
}
