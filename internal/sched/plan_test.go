package sched

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// wholeFileCost schedules items on their planned cost.
func wholeFileCost(it Item) float64 { return it.Cost }

func TestBlock(t *testing.T) {
	recs := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = 10 + i
		}
		return out
	}
	for r, items := range Block(recs(16), 4) {
		if len(items) != 4 {
			t.Errorf("rank %d got %d files", r, len(items))
		}
	}
	// 5 files over 2 ranks: 3 + 2, contiguous, whole files, Seq = file.
	b := Block(recs(5), 2)
	if got := filesOf(b); !reflect.DeepEqual(got, [][]int{{0, 1, 2}, {3, 4}}) {
		t.Errorf("Block(5 files, 2 ranks) = %v", got)
	}
	for _, items := range b {
		for _, it := range items {
			if it.Lo != 0 || it.Hi != 10+it.File || it.Cost != float64(it.Hi) || it.Seq != it.File {
				t.Errorf("item %+v is not a whole-file block item", it)
			}
		}
	}
	// More ranks than files: some ranks idle, every file placed once.
	total := 0
	for _, items := range Block(recs(2), 4) {
		total += len(items)
	}
	if total != 2 {
		t.Errorf("Block(2 files, 4 ranks) placed %d files", total)
	}
}

func TestLPTKnown(t *testing.T) {
	// Times 5,4,3,3,2,1 over 2 ranks: LPT gives makespan 9 (optimal).
	times := []float64{5, 4, 3, 3, 2, 1}
	plans, _ := Plan(times, []int{1, 1, 1, 1, 1, 1}, 2, Config{Policy: PolicyLPT})
	if ms := MakespanItems(plans, wholeFileCost); ms != 9 {
		t.Errorf("LPT makespan = %v, want 9", ms)
	}
	if got, want := filesOf(plans), LPT(times, 2); !reflect.DeepEqual(got, want) {
		t.Errorf("Plan %v, LPT %v", got, want)
	}
	seen := make(map[int]bool)
	for _, files := range LPT(times, 2) {
		for _, f := range files {
			if seen[f] {
				t.Errorf("file %d assigned twice", f)
			}
			seen[f] = true
		}
	}
	if len(seen) != len(times) {
		t.Errorf("assigned %d of %d files", len(seen), len(times))
	}
}

// Properties of LPT: within the greedy list-scheduling guarantee
// sum/m + (1-1/m)·max, never below the lower bounds max(t_i) and sum/m,
// and every file assigned exactly once. (LPT is a heuristic: a specific
// static block layout can occasionally beat it, so no pairwise dominance
// is asserted.)
func TestLPTProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nf := 1 + rng.Intn(20)
		ranks := 1 + rng.Intn(8)
		times := make([]float64, nf)
		recs := make([]int, nf)
		sum, maxT := 0.0, 0.0
		for i := range times {
			times[i] = rng.Float64()*10 + 0.1
			recs[i] = 1
			sum += times[i]
			if times[i] > maxT {
				maxT = times[i]
			}
		}
		plans, _ := Plan(times, recs, ranks, Config{Policy: PolicyLPT})
		lpt := MakespanItems(plans, wholeFileCost)
		lower := math.Max(maxT, sum/float64(ranks))
		bound := sum/float64(ranks) + (1-1/float64(ranks))*maxT
		if lpt < lower-1e-9 || lpt > bound+maxT*1e-9 {
			t.Logf("LPT %v outside [%v, %v]", lpt, lower, bound)
			return false
		}
		seen := make(map[int]bool)
		for _, items := range plans {
			for _, it := range items {
				if seen[it.File] {
					return false
				}
				seen[it.File] = true
			}
		}
		return len(seen) == nf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Regression: LPT must be fully deterministic when solve times tie. With
// all-equal times the index tie-break makes the sorted order exactly
// 0..n-1 and the least-loaded-rank rule (ties to the lower rank) deals
// files round-robin, so the assignment is known in closed form — and
// repeated calls must reproduce it.
func TestLPTDeterministicUnderTies(t *testing.T) {
	times := make([]float64, 11)
	for i := range times {
		times[i] = 3.5
	}
	const ranks = 4
	want := LPT(times, ranks)
	for r := range want {
		for j, fi := range want[r] {
			if fi != j*ranks+r {
				t.Fatalf("rank %d file %d = %d, want round-robin %d", r, j, fi, j*ranks+r)
			}
		}
	}
	for trial := 0; trial < 50; trial++ {
		if got := LPT(times, ranks); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: assignment not deterministic: got %v want %v", trial, got, want)
		}
	}
	// Partial ties among distinct values stay deterministic too.
	mixed := []float64{2, 7, 2, 7, 5, 2, 5}
	first := LPT(mixed, 3)
	for trial := 0; trial < 50; trial++ {
		if got := LPT(mixed, 3); !reflect.DeepEqual(got, first) {
			t.Fatalf("mixed ties: trial %d got %v want %v", trial, got, first)
		}
	}
}
