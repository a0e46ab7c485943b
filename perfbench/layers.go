package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"rms/internal/codegen"
	"rms/internal/linalg"
	"rms/internal/service"
	"rms/internal/telemetry"
	"rms/internal/vulcan"
)

// compilerSpans maps compiler layer metrics to the phase spans that
// core.Config.Trace records on the lane passed to Engine.Compile.
var compilerSpans = []struct{ metric, span string }{
	{"rdl.parse_s", "parse"},
	{"network.generate_s", "network generation"},
	{"eqgen.build_s", "equation generation"},
	{"opt.optimize_s", "optimize"},
	{"codegen.compile_s", "codegen"},
	{"codegen.emit_c_s", "emit C"},
	{"codegen.jacobian_s", "jacobian compilation"},
}

// shape is what two compilations must share to count as the same
// program: the generated tape size and the Jacobian's nonzero count.
type shape struct{ tapeOps, jacNNZ int }

// compilePass compiles specs with a fresh engine (no cache hits). With a
// tracer, each spec's compilation records its phase spans on a lane of
// its own; with none, the lane is nil and the engine records nothing.
func compilePass(specs []service.ModelSpec, tracer *telemetry.Tracer) ([]*service.CompiledModel, shape, error) {
	eng := service.NewEngine(nil, nil)
	models := make([]*service.CompiledModel, len(specs))
	for i, spec := range specs {
		cm, cached, err := eng.Compile(spec, tracer.Lane(fmt.Sprintf("compile %d", i)))
		if err != nil {
			return nil, shape{}, fmt.Errorf("compile %s: %w", spec.Kind, err)
		}
		if cached {
			return nil, shape{}, fmt.Errorf("compile %s: unexpected cache hit", spec.Kind)
		}
		models[i] = cm
	}
	return models, shapeOf(models), nil
}

// shapeOf sums the shapes of a set of compiled models.
func shapeOf(models []*service.CompiledModel) shape {
	var s shape
	for _, cm := range models {
		s.tapeOps += tapeOps(cm.Res.Tape)
		if cm.Res.Jacobian != nil {
			s.jacNNZ += cm.Res.Jacobian.NumEntries()
		}
	}
	return s
}

// tapeOps is the generated-code size of a right-hand-side tape: its
// multiplications and additions, per-evaluation code plus prelude.
func tapeOps(p *codegen.Program) int {
	m, a := p.CountOps()
	pm, pa := p.PreludeOps()
	return m + a + pm + pa
}

// layerTimes reads the compiler layer times of a traced compilePass from
// its tracer. The engine runs two steps outside core's spans —
// vulcan.Network for vulcan specs and linalg.NewSparseLU on the Jacobian
// pattern — and those are timed by calling them once more here.
func layerTimes(tracer *telemetry.Tracer, models []*service.CompiledModel) (map[string]float64, error) {
	spans, err := spanTotals(tracer)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{"linalg.symbolic_lu_s": 0}
	for _, p := range compilerSpans {
		out[p.metric] = spans[p.span]
	}
	for _, cm := range models {
		if cm.Spec.Kind == service.KindVulcan {
			t := time.Now()
			if _, err := vulcan.Network(cm.Spec.Variants); err != nil {
				return nil, err
			}
			out["network.generate_s"] += since(t)
		}
		if cm.Pattern != nil {
			// A pattern that needs pivoting fails here as it does in
			// the engine, which then leaves the model on dense LU.
			t := time.Now()
			_, _ = linalg.NewSparseLU(cm.Pattern)
			out["linalg.symbolic_lu_s"] += since(t)
		}
	}
	return out, nil
}

// setCompileCounts records the size counts of a set of compiled models,
// read from the results the compiler returns.
func (r *run) setCompileCounts(models []*service.CompiledModel) {
	var species, reactions, raw, kept int
	for _, cm := range models {
		species += len(cm.Res.Network.Species)
		reactions += len(cm.Res.Network.Reactions)
		m, a := cm.Res.System.TotalOps()
		raw += m + a
		m, a = cm.Res.Optimized.CountOps()
		kept += m + a
	}
	r.set("network.species", float64(species))
	r.set("network.reactions", float64(reactions))
	r.set("eqgen.raw_ops", float64(raw))
	if raw > 0 {
		r.set("opt.kept_ops_frac", float64(kept)/float64(raw))
	}
	r.set("codegen.jacobian_nnz", float64(shapeOf(models).jacNNZ))
}

// traceCompileLayers compiles specs once more with a fresh engine and a
// tracer, checks that the result is the program the untraced engine
// made (want), and records the compiler layer metrics.
func (r *run) traceCompileLayers(specs []service.ModelSpec, want shape) error {
	tracer := telemetry.NewTracer()
	models, got, err := compilePass(specs, tracer)
	if err != nil {
		return err
	}
	r.check(got == want, "traced compile differs from the untraced engine: tape ops %d vs %d, jacobian nnz %d vs %d",
		got.tapeOps, want.tapeOps, got.jacNNZ, want.jacNNZ)
	lt, err := layerTimes(tracer, models)
	if err != nil {
		return err
	}
	for name, v := range lt {
		r.set(name, v)
	}
	r.setCompileCounts(models)
	return nil
}

// spanTotals sums the durations of the tracer's spans by name, in
// seconds, read back from its Chrome trace export.
func spanTotals(tracer *telemetry.Tracer) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Dur  *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("read trace: %w", err)
	}
	out := map[string]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Dur != nil {
			out[ev.Name] += *ev.Dur / 1e6
		}
	}
	return out, nil
}

// timeEval returns the median wall time of one Evaluator.Eval call on
// prog at the state y and rates k, over batches of evaluations.
func timeEval(prog *codegen.Program, y, k []float64) float64 {
	ev := prog.NewEvaluator()
	dy := make([]float64, len(y))
	ev.Eval(y, k, dy) // runs the prelude once, as a solver's first call does
	const batches, perBatch = 15, 200
	xs := make([]float64, batches)
	for b := range xs {
		t := time.Now()
		for i := 0; i < perBatch; i++ {
			ev.Eval(y, k, dy)
		}
		xs[b] = float64(time.Since(t).Nanoseconds()) / perBatch
	}
	return median(xs)
}
