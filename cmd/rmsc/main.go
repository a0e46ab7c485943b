// Command rmsc is the chemical compiler: it reads a Reaction Description
// Language source file, expands the reaction network, generates the
// system of ODEs, runs the algebraic + CSE optimizer, and emits C code.
//
// Usage:
//
//	rmsc [flags] model.rdl
//
//	-o file        write the generated C here (default stdout)
//	-opt level     none | simplify | paper | full (default full)
//	-rcip file     rate-constant information input
//	-func name     emitted C function name (default ode_fcn)
//	-dump-network  print the reaction network (Fig. 3 form) to stderr
//	-dump-dot      print the network as Graphviz DOT to stderr
//	-dump-odes     print the ODE system (Fig. 5 form) to stderr
//	-report        print the op-count report to stderr
//	-trace file    write the compiler-phase spans as a Chrome trace-event
//	               file; span summary on stderr
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"rms/internal/core"
	"rms/internal/opt"
	"rms/internal/telemetry"
)

// compileOpts carries one rmsc invocation's flags and arguments.
type compileOpts struct {
	outPath, optLevel, rcipPath, funcName  string
	dumpNetwork, dumpDOT, dumpODEs, report bool
	obs                                    telemetry.CLI
	args                                   []string
}

func main() {
	var (
		outPath     = flag.String("o", "", "output C file (default stdout)")
		optLevel    = flag.String("opt", "full", "optimization level: none|simplify|paper|full")
		rcipPath    = flag.String("rcip", "", "rate-constant information file")
		funcName    = flag.String("func", "ode_fcn", "emitted C function name")
		dumpNetwork = flag.Bool("dump-network", false, "print the reaction network to stderr")
		dumpDOT     = flag.Bool("dump-dot", false, "print the reaction network as Graphviz DOT to stderr")
		dumpODEs    = flag.Bool("dump-odes", false, "print the ODE system to stderr")
		report      = flag.Bool("report", false, "print the op-count report to stderr")
		trace       = flag.String("trace", "", "write a Chrome trace-event file; summary on stderr")
	)
	flag.Parse()
	o := compileOpts{
		outPath: *outPath, optLevel: *optLevel, rcipPath: *rcipPath, funcName: *funcName,
		dumpNetwork: *dumpNetwork, dumpDOT: *dumpDOT, dumpODEs: *dumpODEs, report: *report,
		obs:  telemetry.CLI{TracePath: *trace, Out: os.Stderr},
		args: flag.Args(),
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "rmsc:", err)
		os.Exit(1)
	}
}

// run compiles one RDL source. The C output goes to o.outPath, or
// stdout; everything else (dumps, report, span summary) to stderr.
func run(o compileOpts) (err error) {
	var src []byte
	switch len(o.args) {
	case 0:
		src, err = io.ReadAll(os.Stdin)
	case 1:
		src, err = os.ReadFile(o.args[0])
	default:
		return fmt.Errorf("expected one source file, got %d", len(o.args))
	}
	if err != nil {
		return err
	}

	var opts opt.Options
	switch o.optLevel {
	case "none":
		opts = opt.Options{}
	case "simplify":
		opts = opt.Options{Simplify: true}
	case "paper":
		opts = opt.Paper()
	case "full":
		opts = opt.Full()
	default:
		return fmt.Errorf("unknown -opt level %q", o.optLevel)
	}

	ins, finish, err := o.obs.Setup()
	if err != nil {
		return err
	}
	defer func() {
		if ferr := finish(); err == nil {
			err = ferr
		}
	}()

	cfg := core.Config{Optimize: opts, FuncName: o.funcName, Trace: ins.Tracer.Lane("compile")}
	if o.rcipPath != "" {
		b, err := os.ReadFile(o.rcipPath)
		if err != nil {
			return err
		}
		cfg.RCIP = string(b)
	}

	res, err := core.CompileRDL(string(src), cfg)
	if err != nil {
		return err
	}

	if o.dumpNetwork {
		fmt.Fprint(os.Stderr, res.Network.Dump())
	}
	if o.dumpDOT {
		fmt.Fprint(os.Stderr, res.Network.DOT())
	}
	if o.dumpODEs {
		fmt.Fprint(os.Stderr, res.System.String())
	}
	if o.report {
		fmt.Fprintln(os.Stderr, res.Report())
	}

	out := os.Stdout
	if o.outPath != "" {
		f, err := os.Create(o.outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	_, err = io.WriteString(out, res.C)
	return err
}
