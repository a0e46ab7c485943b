package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"rms/internal/core"
	"rms/internal/estimator"
	"rms/internal/ode"
	"rms/internal/opt"
	"rms/internal/parallel"
	"rms/internal/telemetry"
	"rms/internal/vulcan"
)

func TestTable1SmallRun(t *testing.T) {
	rows, err := Table1(Table1Config{
		MinEvalTime: 10 * time.Millisecond,
		Cases:       vulcan.Cases[:2],
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Equations == 0 || r.RawMuls == 0 || r.OptMuls == 0 {
			t.Errorf("%s: empty row %+v", r.Case.Name, r)
		}
		if r.OptMuls+r.OptAdds >= r.RawMuls+r.RawAdds {
			t.Errorf("%s: no op reduction", r.Case.Name)
		}
		if r.Speedup <= 1 {
			t.Errorf("%s: speedup %v", r.Case.Name, r.Speedup)
		}
		if r.PaperRawLevel < 0 || r.PaperOptLevel < 0 {
			t.Errorf("%s: cases 1-2 compile at paper scale in Table 1", r.Case.Name)
		}
	}
	out := FormatTable1(rows)
	for _, want := range []string{"case1", "case2", "capacity at -O0", "(paper, full scale)"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatTable1 missing %q:\n%s", want, out)
		}
	}
}

// TestCompileSpansTraced checks that a traced Table 1 case and a traced
// sparse case record their compilations' phase spans on the lane they
// are given, as read back from the Chrome trace rmsbench -trace writes.
func TestCompileSpansTraced(t *testing.T) {
	spans := func(tr *telemetry.Tracer) map[string]int {
		t.Helper()
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct{ Name, Ph string }
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		n := make(map[string]int)
		for _, e := range doc.TraceEvents {
			if e.Ph == "X" {
				n[e.Name]++
			}
		}
		return n
	}

	tr := telemetry.NewTracer()
	if _, err := Table1(Table1Config{MinEvalTime: time.Millisecond, Cases: vulcan.Cases[:1],
		Trace: tr.Lane("compile")}); err != nil {
		t.Fatal(err)
	}
	got := spans(tr)
	for _, name := range []string{"equation generation", "optimize", "codegen"} {
		if got[name] != 2 { // the raw and the optimized compilation
			t.Errorf("Table 1: %d %q spans, want 2 (spans %v)", got[name], name, got)
		}
	}

	tr = telemetry.NewTracer()
	if _, err := SparseCompare(SparseConfig{Variants: []int{24}, Reps: 1, Trace: tr.Lane("compile")}); err != nil {
		t.Fatal(err)
	}
	got = spans(tr)
	for _, name := range []string{"equation generation", "optimize", "codegen", "jacobian compilation"} {
		if got[name] != 1 {
			t.Errorf("sparse: %d %q spans, want 1 (spans %v)", got[name], name, got)
		}
	}
}

func TestTable2SmallRun(t *testing.T) {
	rows, err := Table2(Table2Config{
		Variants:   9,
		Files:      8,
		Records:    60,
		Calls:      2,
		RankCounts: []int{1, 2, 4, 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].SpeedupLB != 1 || rows[0].SpeedupStatic != 1 {
		t.Errorf("1-rank speedups = %+v", rows[0])
	}
	// Modeled time decreases with ranks (work accounting is
	// deterministic).
	for i := 1; i < len(rows); i++ {
		if rows[i].TimeLB >= rows[i-1].TimeLB {
			t.Errorf("LB time not decreasing: %v then %v", rows[i-1].TimeLB, rows[i].TimeLB)
		}
	}
	// At 8 ranks with 8 files, static and LB coincide (one file per rank).
	last := rows[len(rows)-1]
	if last.TimeLB != last.TimeStatic {
		t.Errorf("8 ranks / 8 files: LB %v vs static %v, want identical",
			last.TimeLB, last.TimeStatic)
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "paper (IBM SP, 16 files)") {
		t.Errorf("FormatTable2 missing paper block:\n%s", out)
	}
}

// TestTable2ModeledOpsPinned pins Table 2's deterministic modeled work —
// the static (Fig. 9 blocks) and load-balanced (LPT) rows at 1/2/4/16
// ranks over 3 objective calls — to the values the estimator produced
// before both rows ran on the scheduler path. The figures are exact
// float64 op counts: any change to the initial plan, the re-plan order
// or the per-rank sum order moves them.
func TestTable2ModeledOpsPinned(t *testing.T) {
	want := map[bool]map[int]float64{
		false: {1: 2.123454120000001e+08, 2: 1.1059566800000003e+08, 4: 5.5400552000000015e+07, 16: 1.4709708e+07},
		true:  {1: 2.1234541200000012e+08, 2: 1.0777909866666672e+08, 4: 5.399170133333336e+07, 16: 1.4709708e+07},
	}
	net, err := vulcan.Network(9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.CompileNetwork(net, core.Config{Optimize: opt.Full()})
	if err != nil {
		t.Fatal(err)
	}
	k, err := vulcan.RateVector(res.System.Rates, vulcan.TrueRates)
	if err != nil {
		t.Fatal(err)
	}
	model := res.Model(vulcan.CrosslinkProperty(res.System), ode.Options{RTol: 1e-7, ATol: 1e-10})
	files := syntheticFiles(16, 60)
	for _, lb := range []bool{false, true} {
		for _, ranks := range []int{1, 2, 4, 16} {
			est, err := estimator.New(model, files, estimator.Config{Ranks: ranks, LoadBalance: lb})
			if err != nil {
				t.Fatal(err)
			}
			r := make([]float64, est.ResidualDim())
			for call := 0; call < 3; call++ {
				if err := est.Objective(k, r); err != nil {
					t.Fatal(err)
				}
			}
			if got := est.ModeledOps(); got != want[lb][ranks] {
				t.Errorf("lb=%v ranks=%d: modeled ops %v, pinned %v", lb, ranks, got, want[lb][ranks])
			}
		}
	}
}

func TestParallelEvalSmallRun(t *testing.T) {
	rows, err := ParallelEval(ParallelConfig{
		Variants:    200,
		Workers:     []int{2, 8},
		MinEvalTime: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // {raw, optimized} × {2, 8}
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.BitIdentical {
			t.Errorf("%s tape, %d workers: parallel output differs from serial", r.Tape, r.Workers)
		}
		if r.TapeInstrs == 0 || r.SerialNs <= 0 || r.ParallelNs <= 0 {
			t.Errorf("empty row %+v", r)
		}
		if r.Levels == 0 || r.MaxWidth == 0 {
			t.Errorf("%s tape, %d workers: schedule shape not reported: %+v", r.Tape, r.Workers, r)
		}
		if r.Utilization <= 0 || r.Utilization > 1.0001 {
			t.Errorf("%s tape, %d workers: utilization %v", r.Tape, r.Workers, r.Utilization)
		}
	}
	// The raw tape's schedule admits at least 2x modeled speedup with 8
	// workers — the wide mass-action levels dominate the critical path.
	seen := false
	for _, r := range rows {
		if r.Tape == "raw" && r.Workers == 8 {
			seen = true
			if r.ModeledSpeedup < 2 {
				t.Errorf("raw tape modeled speedup %v at 8 workers, want >= 2", r.ModeledSpeedup)
			}
		}
	}
	if !seen {
		t.Fatal("raw/8 row missing")
	}
	out := FormatParallel(rows)
	for _, want := range []string{"raw", "optimized", "modeled x", "identical"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatParallel missing %q:\n%s", want, out)
		}
	}
}

// The estimator path with per-rank pools stays available through the
// Table 2 harness.
func TestTable2WithWorkers(t *testing.T) {
	rows, err := Table2(Table2Config{
		Variants: 9, Files: 4, Records: 40, Calls: 1,
		RankCounts: []int{1, 2}, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
}

// BenchmarkRHSEval compares the serial interpreter against the levelized
// parallel engine on the raw 200-variant tape:
//
//	go test -bench RHSEval -benchtime 2s ./internal/bench/
func BenchmarkRHSEval(b *testing.B) {
	net, err := vulcan.Network(200)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.CompileNetwork(net, core.Config{Optimize: opt.Options{}})
	if err != nil {
		b.Fatal(err)
	}
	prog := res.Tape
	y, k := benchInputs(prog)
	dy := make([]float64, prog.NumY)
	b.Run("serial", func(b *testing.B) {
		ev := prog.NewEvaluator()
		ev.Eval(y, k, dy)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.Eval(y, k, dy)
		}
	})
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			pool := parallel.NewPool(w)
			defer pool.Close()
			ev := prog.NewEvaluator()
			ev.SetParallel(pool)
			ev.Eval(y, k, dy)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev.Eval(y, k, dy)
			}
		})
	}
}

func TestBestLevel(t *testing.T) {
	if got := bestLevel(100); got != 4 {
		t.Errorf("tiny program level = %d, want 4", got)
	}
	if got := bestLevel(1 << 40); got != -1 {
		t.Errorf("huge program level = %d, want -1", got)
	}
	// The paper's case 5 raw count fails everywhere; its optimized count
	// compiles at -O0.
	if got := bestLevel(2400000 + 974000); got != -1 {
		t.Errorf("case5 raw level = %d, want -1", got)
	}
	if got := bestLevel(32400 + 201000); got < 0 {
		t.Errorf("case5 optimized level = %d, want >= 0", got)
	}
}

func TestRedundancySweep(t *testing.T) {
	rows, err := RedundancySweep(16, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Raw ops scale with redundancy; optimized ops stay (nearly) flat; the
	// kept fraction falls monotonically.
	for i := 1; i < len(rows); i++ {
		if rows[i].RawMuls <= rows[i-1].RawMuls {
			t.Errorf("raw muls not increasing: %v then %v", rows[i-1].RawMuls, rows[i].RawMuls)
		}
		if rows[i].Kept >= rows[i-1].Kept {
			t.Errorf("kept fraction not falling: %v then %v", rows[i-1].Kept, rows[i].Kept)
		}
		drift := float64(rows[i].OptMuls+rows[i].OptAdds) / float64(rows[0].OptMuls+rows[0].OptAdds)
		if drift > 1.1 || drift < 0.9 {
			t.Errorf("optimized ops drifted %vx under pure redundancy", drift)
		}
	}
	out := FormatSweep(rows)
	if !strings.Contains(out, "kept") || !strings.Contains(out, "0.069") {
		t.Errorf("FormatSweep output:\n%s", out)
	}
}
