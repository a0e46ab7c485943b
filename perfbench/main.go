// Command perfbench is the repository benchmark: three seeded workloads
// (compile, fit, serve) driven through the production entry points, with
// correctness checks, end-to-end metrics and — in a separate traced run —
// per-layer metrics measured from outside the program. README.md in this
// directory documents the workloads and how the metrics interact.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload compile --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The process exits non-zero if
// any correctness check fails.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times each workload repeats its set-up; setup_s
// is the median, so one slow repetition does not move it.
const setupReps = 15

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run collects what one workload run measured and checked.
type run struct {
	seed    int64
	seconds float64
	traced  bool

	attempted, failed int
	failures          []string
	values            map[string]float64
}

// check records a failed correctness check when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// set records a metric value; its unit comes from BENCHMARK.json.
func (r *run) set(name string, v float64) { r.values[name] = v }

// timeSetup runs a workload's set-up setupReps times, each from a
// collected heap, and records the median as setup_s. reset, when not
// nil, runs untimed before each repetition after the first, to release
// what the previous one made.
func (r *run) timeSetup(reset func(), setup func() error) error {
	xs := make([]float64, setupReps)
	for i := range xs {
		if i > 0 && reset != nil {
			reset()
		}
		runtime.GC()
		t := time.Now()
		if err := setup(); err != nil {
			return err
		}
		xs[i] = since(t)
	}
	r.set("setup_s", median(xs))
	sort.Float64s(xs)
	show("setup_s", median(xs), "s", fmt.Sprintf("median of %d set-ups, %.4g s", setupReps, xs))
	return nil
}

// spec is the part of BENCHMARK.json the result line follows: the
// metric names, their units and their order.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// readSpec loads BENCHMARK.json from the repository root.
func readSpec() (*spec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &sp, nil
}

var workloads = map[string]func(*run) error{
	"compile": runCompile,
	"fit":     runFit,
	"serve":   runServe,
}

func main() {
	var (
		workload = flag.String("workload", "", "compile | fit | serve")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 20, "how long the run measures")
		trace    = flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload compile|fit|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	sp, err := readSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &run{
		seed: *seed, seconds: *seconds, traced: *trace == 1,
		values: map[string]float64{},
	}
	printHost(*workload, *seed, r.traced)
	if err := fn(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.set("peak_rss_mb", peakRSSMiB())
	if r.attempted > 0 {
		r.set("ok_frac", float64(r.attempted-r.failed)/float64(r.attempted))
	}

	declared := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), sp.EndToEnd...), sp.PerLayer...) {
		declared[m.Name] = true
	}
	for name := range r.values {
		if !declared[name] {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is not declared in BENCHMARK.json\n", name)
			os.Exit(1)
		}
	}
	// A workload that bypasses a layer leaves its metrics unset; they
	// are reported as 0.
	list := sp.EndToEnd
	if r.traced {
		list = sp.PerLayer
	}
	res := result{Correct: len(r.failures) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metric, len(list))}
	for _, sm := range list {
		m := metric{Value: r.values[sm.Name], Unit: sm.Unit}
		res.Metrics[sm.Name] = m
		fmt.Printf("metric %-28s %16.6g %s\n", sm.Name, m.Value, m.Unit)
	}
	for _, f := range r.failures {
		fmt.Println("CHECK FAILED:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// printHost writes the host stamp every result carries.
func printHost(workload string, seed int64, traced bool) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	stamp := map[string]any{
		"workload": workload, "seed": seed, "traced": traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit, "source_sha256": sourceDigest(),
	}
	b, _ := json.Marshal(stamp) // a map of plain values always marshals
	fmt.Println("host", string(b))
}

// sourceDigest hashes the Go sources the benchmark measures, so a result
// identifies its code even in a checkout that is not a git repository.
func sourceDigest() string {
	h := sha256.New()
	var paths []string
	for _, root := range []string{"internal", "perfbench", "go.mod"} {
		filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && (strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "go.mod")) {
				paths = append(paths, p)
			}
			return nil
		})
	}
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMiB reads the process high-water resident set size.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// retainedMiB is the live heap after a full collection.
func retainedMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile at most p99 that leaves at least
// ten samples above it, with the percentile used. With fewer than 20
// samples no percentile above the median qualifies, and the median is
// returned (pct 50).
func tail(xs []float64) (v float64, pct int) {
	if len(xs) < 20 {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for pct = 99; pct > 50; pct-- {
		idx := int(math.Ceil(float64(pct)/100*float64(n))) - 1
		if n-1-idx >= 10 {
			return s[idx], pct
		}
	}
	return median(xs), 50
}

// seconds since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

// show prints one figure under the name it was specified with, next to
// the generic metric it feeds.
func show(name string, v float64, unit, note string) {
	fmt.Printf("%-28s %16.6g %-6s %s\n", name, v, unit, note)
}
