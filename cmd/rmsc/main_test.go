package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rms/internal/telemetry"
)

const testModel = `
species A = "[CH3:1][CH3:2]" init 1.0
reaction Decompose {
    reactants A
    disconnect 1:1 1:2
    rate K_d
}
`

func TestRunCompilesToFile(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "model.rdl")
	out := filepath.Join(dir, "model.c")
	if err := os.WriteFile(src, []byte(testModel), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(compileOpts{outPath: out, optLevel: "full", funcName: "ode_fcn", dumpNetwork: true, dumpDOT: true, dumpODEs: true, report: true, args: []string{src}}); err != nil {
		t.Fatal(err)
	}
	c, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(c), "void ode_fcn(") {
		t.Errorf("output:\n%s", c)
	}
}

func TestRunOptLevels(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "model.rdl")
	if err := os.WriteFile(src, []byte(testModel), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, level := range []string{"none", "simplify", "paper", "full"} {
		out := filepath.Join(dir, level+".c")
		if err := run(compileOpts{outPath: out, optLevel: level, funcName: "f", args: []string{src}}); err != nil {
			t.Errorf("-opt %s: %v", level, err)
		}
	}
	if err := run(compileOpts{optLevel: "bogus", funcName: "f", args: []string{src}}); err == nil {
		t.Error("unknown opt level accepted")
	}
}

func TestRunWithRCIP(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "model.rdl")
	rcip := filepath.Join(dir, "rates.rcip")
	out := filepath.Join(dir, "model.c")
	os.WriteFile(src, []byte(testModel), 0o644)
	os.WriteFile(rcip, []byte("K_d = 3"), 0o644)
	if err := run(compileOpts{outPath: out, optLevel: "full", rcipPath: rcip, funcName: "f", args: []string{src}}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(compileOpts{optLevel: "full", funcName: "f", args: []string{"/nonexistent.rdl"}}); err == nil {
		t.Error("missing source accepted")
	}
	if err := run(compileOpts{optLevel: "full", funcName: "f", args: []string{"a", "b"}}); err == nil {
		t.Error("two sources accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.rdl")
	os.WriteFile(bad, []byte("species ="), 0o644)
	if err := run(compileOpts{optLevel: "full", funcName: "f", args: []string{bad}}); err == nil {
		t.Error("bad source accepted")
	}
	src := filepath.Join(dir, "ok.rdl")
	os.WriteFile(src, []byte(testModel), 0o644)
	if err := run(compileOpts{optLevel: "full", rcipPath: "/nonexistent.rcip", funcName: "f", args: []string{src}}); err == nil {
		t.Error("missing rcip accepted")
	}
}

// TestRunTraceRecordsCompileSpans checks that -trace writes the
// compiler-phase spans to the trace file and the span summary to the
// observability writer, leaving the C output where -o sends it.
func TestRunTraceRecordsCompileSpans(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "model.rdl")
	out := filepath.Join(dir, "model.c")
	trace := filepath.Join(dir, "trace.json")
	if err := os.WriteFile(src, []byte(testModel), 0o644); err != nil {
		t.Fatal(err)
	}
	var summary bytes.Buffer
	o := compileOpts{outPath: out, optLevel: "full", funcName: "f", args: []string{src},
		obs: telemetry.CLI{TracePath: trace, Out: &summary, NoSignalDump: true}}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, span := range []string{"parse", "network generation", "optimize", "emit C"} {
		if !strings.Contains(string(data), `"name":"`+span+`","ph":"X"`) {
			t.Errorf("trace has no %q span:\n%s", span, data)
		}
		if !strings.Contains(summary.String(), span) {
			t.Errorf("summary has no %q span:\n%s", span, summary.String())
		}
	}
	if c, err := os.ReadFile(out); err != nil || !strings.Contains(string(c), "void f(") {
		t.Errorf("C output: %v\n%s", err, c)
	}
}
