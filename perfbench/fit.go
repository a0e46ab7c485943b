package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"rms/internal/dataset"
	"rms/internal/ode"
	"rms/internal/service"
	"rms/internal/telemetry"
	"rms/internal/vulcan"
)

// The fit workload: a Table-2-style estimation of the vulcanization
// model's rate constants from synthetic crosslink-density data, with
// rmsrun's solver and optimizer tolerances (the FitRequest defaults).
// At 24 variants one fit takes about 35 s on a 2-CPU host, too long to
// repeat within a run, so the model is at 12 variants (about 12 s).
const (
	fitVariants = 12
	fitFiles    = 16
	// fitRecords sizes the data files; counts ramp from half to twice
	// this across files so per-file solve costs differ, the imbalance
	// the load balancer works on.
	fitRecords = 400
	fitFree    = 2
	fitRanks   = 2
	fitNoise   = 1e-4
	fitTEnd    = 2.0
	fitMaxIter = 30
	minFits    = 2
	// rateTol is how far a fitted free rate may sit from vulcan.TrueRates.
	rateTol = 0.01
)

// fitSetup is everything the fit workload prepares before timing.
type fitSetup struct {
	cm  *service.CompiledModel
	req service.FitRequest
}

// newFitSetup compiles the model with a fresh engine and synthesizes the
// data files from the ground-truth rates with seeded noise, as rmsgen
// does.
func newFitSetup(seed int64) (*fitSetup, error) {
	cm, _, err := service.NewEngine(nil, nil).Compile(service.ModelSpec{Kind: service.KindVulcan, Variants: fitVariants}, nil)
	if err != nil {
		return nil, err
	}
	res := cm.Res
	k, err := vulcan.RateVector(res.System.Rates, vulcan.TrueRates)
	if err != nil {
		return nil, err
	}
	curve, err := groundTruth(cm, k, vulcan.CrosslinkProperty(res.System))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	files := make([]*dataset.File, fitFiles)
	for i := range files {
		files[i] = dataset.Synthesize(curve, dataset.SynthesizeOptions{
			Name:    fmt.Sprintf("exp%02d.dat", i+1),
			Records: fitRecords/2 + (3*fitRecords*i)/(2*(fitFiles-1)),
			T0:      0, T1: fitTEnd,
			Noise: fitNoise,
			Seed:  rng.Int63(),
		})
	}
	// The first fitFree constants (sorted order) float within a decade of
	// the truth from a start at a third of it; the rest stay pinned, as
	// rmsrun does.
	n := len(res.System.Rates)
	req := service.FitRequest{
		Data:     service.FromDataset(files),
		Property: "crosslink",
		Ranks:    fitRanks, LoadBalance: true,
		MaxIter: fitMaxIter, RelStep: 1e-4,
		Start: make([]float64, n), Lower: make([]float64, n), Upper: make([]float64, n),
	}
	for i, name := range res.System.Rates {
		truth := vulcan.TrueRates[name]
		req.Start[i], req.Lower[i], req.Upper[i] = truth, truth, truth
		if i < fitFree {
			req.Start[i], req.Lower[i], req.Upper[i] = truth/3, truth/10, truth*10
		}
	}
	return &fitSetup{cm: cm, req: req}, nil
}

// groundTruth integrates the model once at the true rates and returns
// the property curve, linearly interpolated on a fine grid.
func groundTruth(cm *service.CompiledModel, k []float64, prop func([]float64) float64) (dataset.PropertyFunc, error) {
	const samples = 512
	ev := cm.Res.Tape.NewEvaluator()
	y0 := cm.Res.System.Y0
	solver := ode.NewBDF(func(_ float64, y, dy []float64) { ev.Eval(y, k, dy) }, len(y0),
		ode.Options{RTol: 1e-9, ATol: 1e-12})
	y := append([]float64(nil), y0...)
	vs := make([]float64, samples+1)
	vs[0] = prop(y)
	for i := 1; i <= samples; i++ {
		if err := solver.Integrate(fitTEnd*float64(i-1)/samples, fitTEnd*float64(i)/samples, y); err != nil {
			return nil, err
		}
		vs[i] = prop(y)
	}
	return func(t float64) float64 {
		x := math.Max(0, math.Min(t/fitTEnd, 1)) * samples
		i := int(x)
		if i >= samples {
			return vs[samples]
		}
		f := x - float64(i)
		return vs[i]*(1-f) + vs[i+1]*f
	}, nil
}

// fitRun is one timed fit.
type fitRun struct {
	wall              float64
	iterations, calls int
	x                 []float64
}

// oneFit runs service.RunFit once and checks the outcome.
func oneFit(r *run, s *fitSetup, fo service.FitOpts) (fitRun, bool) {
	r.attempted++
	t := time.Now()
	out, err := service.RunFit(s.cm, s.req, fo)
	wall := since(t)
	if out != nil {
		defer out.Est.Close()
	}
	if err != nil {
		r.failed++
		r.check(false, "fit: %v", err)
		return fitRun{}, false
	}
	fr := fitRun{wall: wall, iterations: out.Fit.Iterations, calls: out.Est.Calls(), x: out.Fit.X}
	ok := out.Fit.Converged
	r.check(out.Fit.Converged, "fit did not converge in %d iterations", out.Fit.Iterations)
	for i := 0; i < fitFree; i++ {
		name := s.cm.Res.System.Rates[i]
		rel := math.Abs(fr.x[i]/vulcan.TrueRates[name] - 1)
		r.check(rel <= rateTol, "fitted %s = %g is %.3g%% from the true %g", name, fr.x[i], 100*rel, vulcan.TrueRates[name])
		ok = ok && rel <= rateTol
	}
	if !ok {
		r.failed++
	}
	return fr, true
}

func runFit(r *run) error {
	var s *fitSetup
	err := r.timeSetup(nil, func() (err error) {
		s, err = newFitSetup(r.seed)
		return err
	})
	if err != nil {
		return err
	}
	r.set("tape_ops", float64(tapeOps(s.cm.Res.Tape)))

	// A traced run follows every untraced fit with one that has the
	// program's own registry, tracer and LM observer attached, so both
	// kinds see the same host; the traced fits' counters become the
	// per-layer metrics.
	var reg *telemetry.Registry
	var tracer *telemetry.Tracer
	if r.traced {
		if err := traceFitModel(r, s); err != nil {
			return err
		}
		reg, tracer = telemetry.NewRegistry(), telemetry.NewTracer()
	}
	var fits, traced []fitRun
	start := time.Now()
	for len(fits) < minFits || since(start) < r.seconds {
		fr, ok := oneFit(r, s, service.FitOpts{})
		if !ok {
			break
		}
		fits = append(fits, fr)
		if r.traced {
			fr, ok := oneFit(r, s, service.FitOpts{Registry: reg, Tracer: tracer, Observer: service.ObserveLM(reg, nil)})
			if !ok {
				break
			}
			traced = append(traced, fr)
		}
	}
	if len(fits) == 0 || (r.traced && len(traced) == 0) {
		return fmt.Errorf("no fit completed")
	}
	all := append(append([]fitRun(nil), fits...), traced...)
	for _, f := range all[1:] {
		r.check(f.iterations == all[0].iterations && f.calls == all[0].calls,
			"fits differ: %d iterations / %d calls vs %d / %d", f.iterations, f.calls, all[0].iterations, all[0].calls)
	}

	perCall := make([]float64, len(fits))
	walls := make([]float64, len(fits))
	calls, total := 0, 0.0
	for i, f := range fits {
		perCall[i] = 1e3 * f.wall / float64(f.calls)
		walls[i] = f.wall
		calls += f.calls
		total += f.wall
	}
	p50 := median(perCall)
	r.set("op_p50_ms", p50)
	r.set("goodput_per_s", float64(calls)/total)
	r.set("retained_mb", retainedMiB())
	runtime.KeepAlive(s)

	show("fit_s", median(walls), "s", fmt.Sprintf("median of %d fits: %d LM iterations, %d objective calls, %d ranks",
		len(fits), fits[0].iterations, fits[0].calls, fitRanks))
	show("objective call", p50, "ms", "fit wall time / objective calls, median over fits")
	for i := 0; i < fitFree; i++ {
		name := s.cm.Res.System.Rates[i]
		show("  fitted "+name, fits[0].x[i], "", fmt.Sprintf("true %g", vulcan.TrueRates[name]))
	}
	if r.traced {
		tr := make([]float64, len(traced))
		for i, f := range traced {
			tr[i] = 1e3 * f.wall / float64(f.calls)
		}
		overhead := median(tr)/p50 - 1
		r.set("trace.overhead_frac", overhead)
		if err := setFitCounters(r, reg, tracer, len(traced)); err != nil {
			return err
		}
		show("traced objective call", median(tr), "ms", fmt.Sprintf("overhead vs untraced %.2f%%", 100*overhead))
	}
	return nil
}

// traceFitModel compiles the fit model once more with a tracer and
// times its right-hand side, for the compiler and tape layer metrics.
func traceFitModel(r *run, s *fitSetup) error {
	models := []*service.CompiledModel{s.cm}
	if err := r.traceCompileLayers([]service.ModelSpec{s.cm.Spec}, shapeOf(models)); err != nil {
		return err
	}
	k, err := vulcan.RateVector(s.cm.Res.System.Rates, vulcan.TrueRates)
	if err != nil {
		return err
	}
	y := append([]float64(nil), s.cm.Res.System.Y0...)
	rng := rand.New(rand.NewSource(r.seed))
	for i := range y {
		y[i] += 0.1 * rng.Float64()
	}
	r.set("tape.eval_ns", timeEval(s.cm.Res.Tape, y, k))
	return nil
}

// setFitCounters records the solver, optimizer and estimator layer
// metrics, per fit, from the registry and tracer n traced fits shared.
func setFitCounters(r *run, reg *telemetry.Registry, tracer *telemetry.Tracer, n int) error {
	vals := snapshot(reg)
	for name, src := range map[string]string{
		"tape.evals": "tape.evals", "ode.steps": "ode.steps", "ode.rejected_steps": "ode.rejected_steps",
		"ode.newton_iters": "ode.newton_iters", "ode.jevals": "ode.jevals",
		"ode.factorizations": "ode.factorizations", "ode.sparse_factorizations": "ode.sparse_factorizations",
		"ode.factor_ops": "ode.factor_ops", "ode.solve_ops": "ode.solve_ops",
		"nlopt.iterations": "lm.iterations", "estimator.objective_calls": "estimator.objective_calls",
		"estimator.file_solves": "estimator.file_solves", "mpi.wait_s": "mpi.wait_seconds",
	} {
		r.set(name, vals[src]/float64(n))
	}
	r.set("estimator.imbalance", vals["estimator.imbalance"])
	spans, err := spanTotals(tracer)
	if err != nil {
		return err
	}
	solveS := 0.0
	for name, sec := range spans {
		if strings.HasPrefix(name, "solve ") {
			solveS += sec
		}
	}
	r.set("estimator.solve_s", solveS/float64(n))
	return nil
}

// snapshot reads a registry into a name → value map.
func snapshot(reg *telemetry.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, m := range reg.Snapshot() {
		out[m.Name] = m.Value
	}
	return out
}
