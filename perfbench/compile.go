package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rms/internal/conformance"
	"rms/internal/eqgen"
	"rms/internal/expr"
	"rms/internal/opt"
	"rms/internal/service"
	"rms/internal/telemetry"
)

const (
	// chainLen is the longest crosslink of the RDL chain-scission
	// program. Network generation grows about as n^3.7, so the length is
	// fixed rather than drawn from the seed: a draw of ±1 would move
	// compile time by ±6%, more than the metric's bound.
	chainLen = 60
	// corpusVariants is the vulcanization model size of the compile
	// corpus, the scaled size of the paper's case 3, where Jacobian
	// compilation dominates.
	corpusVariants = 400
	// minPasses is the fewest timed corpus compilations a run makes.
	minPasses = 3
	// refPoints is how many seeded states each compiled tape is checked
	// at against the reference interpreter.
	refPoints = 3
)

// chainRDL renders the chain-scission program: one crosslink family
// C-S_n-C whose S-S bonds at least three sulfurs from either end break
// into two dangling fragments. The seed draws the initial
// concentrations; the structure, and so the work, is the same for
// every seed.
func chainRDL(rng *rand.Rand) string {
	return fmt.Sprintf(`# Chain scission over one polysulfide crosslink family.
species Crosslink{n=2..%d} = "C" + "S"*n + "C"         init %.4f
species Dangling{m=1..%d}  = "C" + "S"*(m-1) + "[S]"   init %.4f

reaction Scission {
    reactants Crosslink{n}
    forall    i = 3 .. n-3
    disconnect 1:S[i] 1:S[i+1]
    rate K_sc(n)
}
`, chainLen, 0.05+0.2*rng.Float64(), chainLen-1, 0.01*rng.Float64())
}

// compileCorpus is the fixed compile corpus: the RDL program through
// the RDL front door and the vulcanization model through KindVulcan.
func compileCorpus(seed int64) []service.ModelSpec {
	rng := rand.New(rand.NewSource(seed))
	return []service.ModelSpec{
		{Kind: service.KindRDL, Source: chainRDL(rng)},
		{Kind: service.KindVulcan, Variants: corpusVariants},
	}
}

func runCompile(r *run) error {
	// Set-up: make the inputs and warm the compiler on a small model, so
	// the first timed pass does not pay for heap growth.
	var corpus []service.ModelSpec
	err := r.timeSetup(nil, func() error {
		corpus = compileCorpus(r.seed)
		_, _, err := service.NewEngine(nil, nil).Compile(service.ModelSpec{Kind: service.KindVulcan, Variants: 60}, nil)
		return err
	})
	if err != nil {
		return err
	}

	// A traced run follows every untraced pass with a traced one, so
	// both kinds see the same host; the traced pass hands Engine.Compile
	// a tracer lane, and its time over the untraced pass's is the
	// tracing overhead.
	kinds := []bool{false}
	if r.traced {
		kinds = append(kinds, true)
	}
	var passMs, tracedMs []float64
	var layers []map[string]float64
	var models []*service.CompiledModel
	var first shape
	start := time.Now()
	for len(passMs) < minPasses || since(start) < r.seconds {
		for _, traced := range kinds {
			var tracer *telemetry.Tracer
			if traced {
				tracer = telemetry.NewTracer()
			}
			// Every pass starts from a collected heap holding no earlier
			// pass's models, so each pays the same garbage-collection work.
			models = nil
			runtime.GC()
			t := time.Now()
			ms, sh, err := compilePass(corpus, tracer)
			d := since(t) * 1e3
			r.attempted += len(corpus)
			if err != nil {
				r.failed += len(corpus)
				return err
			}
			if len(passMs) == 0 {
				first = sh
			}
			r.check(sh == first, "pass %d (traced %v) differs from the first: tape ops %d vs %d, jacobian nnz %d vs %d",
				len(passMs)+len(tracedMs), traced, sh.tapeOps, first.tapeOps, sh.jacNNZ, first.jacNNZ)
			models = ms
			if !traced {
				passMs = append(passMs, d)
				continue
			}
			tracedMs = append(tracedMs, d)
			lt, err := layerTimes(tracer, ms)
			if err != nil {
				return err
			}
			layers = append(layers, lt)
		}
	}

	p50 := median(passMs)
	total := 0.0
	for _, ms := range passMs {
		total += ms / 1e3
	}
	r.set("op_p50_ms", p50)
	r.set("goodput_per_s", float64(len(passMs))/total)
	r.set("tape_ops", float64(first.tapeOps))
	r.set("retained_mb", retainedMiB())
	runtime.KeepAlive(models)
	show("compile_s", p50/1e3, "s", fmt.Sprintf("median of %d corpus passes %.0f ms", len(passMs), passMs))
	show("tape_ops", float64(first.tapeOps), "ops", "mul+add of the corpus tapes, equal across passes")
	for i, cm := range models {
		show("  "+corpus[i].Kind+" model", float64(len(cm.Res.System.Species)), "eqs", cm.Res.Report().String())
	}

	checkAgainstReference(r, models, r.seed)

	if r.traced {
		for name := range layers[0] {
			xs := make([]float64, len(layers))
			for i, lt := range layers {
				xs[i] = lt[name]
			}
			r.set(name, median(xs))
		}
		r.setCompileCounts(models)
		r.setEvalTime(models)
		overhead := median(tracedMs)/p50 - 1
		r.set("trace.overhead_frac", overhead)
		show("traced compile_s", median(tracedMs)/1e3, "s", fmt.Sprintf("median of %d traced passes; overhead vs untraced %.2f%%", len(tracedMs), 100*overhead))
	}
	return nil
}

// checkAgainstReference evaluates every compiled tape at seeded states
// and rate vectors and compares it with the conformance harness's
// reference semantics: the raw, duplicates-intact right-hand sides
// interpreted as expression trees.
func checkAgainstReference(r *run, models []*service.CompiledModel, seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, cm := range models {
		sys := cm.Res.System
		ref := rawReference(sys)
		ev := cm.Res.Tape.NewEvaluator()
		y := make([]float64, len(sys.Y0))
		k := make([]float64, len(sys.Rates))
		kmap := make(map[string]float64, len(k))
		dy := make([]float64, len(y))
		var rec conformance.Recorder
		for pt := 0; pt < refPoints; pt++ {
			for i, v := range sys.Y0 {
				y[i] = v + 0.5*rng.Float64()
			}
			for i, name := range sys.Rates {
				k[i] = 0.1 + 2*rng.Float64()
				kmap[name] = k[i]
			}
			ev.Eval(y, k, dy)
			rec.CheckVec(fmt.Sprintf("%s tape vs reference (point %d)", cm.Spec.Kind, pt),
				ref.Eval(y, kmap), dy, conformance.DefaultTol)
		}
		for _, f := range rec.Failures() {
			r.check(false, "%s", f)
		}
		show("  "+cm.Spec.Kind+" reference check", rec.MaxRel, "rel", fmt.Sprintf("largest mixed abs/rel difference over %d comparisons (tolerance %g)", rec.Checks, conformance.DefaultTol))
	}
}

// rawReference is the conformance reference interpreter for sys: the
// unoptimized right-hand sides with duplicate terms intact.
func rawReference(sys *eqgen.System) *opt.Optimized {
	z := &opt.Optimized{Species: sys.Species, Rates: sys.Rates, Y0: sys.Y0,
		RHS: make([]expr.Node, len(sys.Equations))}
	for i, eq := range sys.Equations {
		z.RHS[i] = eqgen.RawNode(eq.Raw)
	}
	return z
}

// setEvalTime records tape.eval_ns: one right-hand-side evaluation of
// every model, at seeded states and rate vectors.
func (r *run) setEvalTime(models []*service.CompiledModel) {
	var evalNs float64
	rng := rand.New(rand.NewSource(r.seed))
	for _, cm := range models {
		y := append([]float64(nil), cm.Res.System.Y0...)
		for i := range y {
			y[i] += rng.Float64()
		}
		k := make([]float64, len(cm.Res.System.Rates))
		for i := range k {
			k[i] = 0.1 + 2*rng.Float64()
		}
		evalNs += timeEval(cm.Res.Tape, y, k)
	}
	r.set("tape.eval_ns", evalNs)
}
