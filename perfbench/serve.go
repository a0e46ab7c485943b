package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"rms/internal/service"
	"rms/internal/telemetry"
	"rms/internal/vulcan"
)

// The serve workload: an open-loop Poisson stream of jobs against an
// in-process rmsd (service.New + Start) over loopback HTTP.
const (
	// serveRate is the offered load in jobs per second, set for light
	// utilisation (about a tenth) of the two default workers on a 2-CPU
	// host. At 10 jobs/s, queue waits and CPU contention between
	// concurrent jobs moved the median by 30% from run to run.
	serveRate = 4.0
	// sparseShare and compileShare split the jobs; the rest are dense
	// (default) simulates.
	sparseShare  = 0.15
	compileShare = 0.10
	// serveLimit is the latency limit of goodput.
	serveLimit = 2 * time.Second
	simTEnd    = 2.0
	simPoints  = 41
)

// popular is the set of models simulate jobs draw from, most popular
// first; job counts follow a clipped Zipf law (weight 1/rank) over it.
// Every one is compiled in set-up. Ranks are not in size order: they
// are placed so that about as many simulate jobs are faster than the
// most popular model's as are slower, and so that the slowest model has
// more than twice the ten jobs the tail percentile leaves above it. The
// median and the tail then each sit inside one model's latencies rather
// than on the step between two, where a few queue waits would move them.
var popular = []service.ModelSpec{
	{Kind: service.KindVulcan, Variants: 24, Optimize: "full"},
	{Kind: service.KindVulcan, Variants: 32, Optimize: "full"},
	{Kind: service.KindVulcan, Variants: 28, Optimize: "full"},
	{Kind: service.KindVulcan, Variants: 12, Optimize: "full"},
	{Kind: service.KindVulcan, Variants: 28, Optimize: "paper"},
	{Kind: service.KindVulcan, Variants: 16, Optimize: "full"},
	{Kind: service.KindVulcan, Variants: 20, Optimize: "paper"},
	{Kind: service.KindVulcan, Variants: 12, Optimize: "paper"},
}

// freshSpecs lists specs no simulate job uses, in a fixed order; compile
// jobs take the first ones, so each compile is a cache miss and the set
// of compiled sizes is the same for every seed.
func freshSpecs(n int) []service.ModelSpec {
	used := map[service.ModelSpec]bool{}
	for _, s := range popular {
		used[s] = true
	}
	var out []service.ModelSpec
	for v := 13; len(out) < n && v <= 60; v++ {
		for _, o := range []string{"full", "paper"} {
			s := service.ModelSpec{Kind: service.KindVulcan, Variants: v, Optimize: o}
			if !used[s] && len(out) < n {
				out = append(out, s)
			}
		}
	}
	return out
}

// serveJob is one scheduled request and what happened to it.
type serveJob struct {
	due    time.Duration
	kind   string // "dense", "sparse" or "compile"
	spec   service.ModelSpec
	sparse bool

	ok, refused            bool
	latency, late          float64 // ms
	submit, fetch          float64 // ms
	bytes                  int
	queueWait, runMs       float64 // ms, traced runs only
	rowsHash, report, errs string
}

// schedule draws the job list: N = rate × seconds jobs whose arrival
// times are N sorted uniform draws over the window (a Poisson process
// conditioned on its count). Kind counts and per-model simulate counts
// are fixed shares; the seed decides the order and the arrival times.
func schedule(seed int64, seconds float64) []*serveJob {
	rng := rand.New(rand.NewSource(seed))
	n := int(math.Round(serveRate * seconds))
	nCompile := int(math.Round(compileShare * float64(n)))
	nSparse := int(math.Round(sparseShare * float64(n)))
	nDense := n - nCompile - nSparse

	var jobs []*serveJob
	for _, s := range freshSpecs(nCompile) {
		jobs = append(jobs, &serveJob{kind: "compile", spec: s})
	}
	for _, part := range []struct {
		kind  string
		count int
	}{{"dense", nDense}, {"sparse", nSparse}} {
		for i, c := range zipfCounts(part.count, len(popular)) {
			for ; c > 0; c-- {
				jobs = append(jobs, &serveJob{kind: part.kind, spec: popular[i], sparse: part.kind == "sparse"})
			}
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	due := make([]float64, len(jobs))
	for i := range due {
		due[i] = rng.Float64() * seconds
	}
	sort.Float64s(due)
	for i, j := range jobs {
		j.due = time.Duration(due[i] * float64(time.Second))
	}
	return jobs
}

// zipfCounts splits n jobs over m ranks in proportion to 1/rank, by
// largest remainder so the counts sum to n.
func zipfCounts(n, m int) []int {
	w, sum := make([]float64, m), 0.0
	for i := range w {
		w[i] = 1 / float64(i+1)
		sum += w[i]
	}
	counts, rem := make([]int, m), make([]float64, m)
	left := n
	for i := range w {
		x := float64(n) * w[i] / sum
		counts[i] = int(x)
		rem[i] = x - float64(counts[i])
		left -= counts[i]
	}
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return rem[order[a]] > rem[order[b]] })
	for i := 0; i < left; i++ {
		counts[order[i]]++
	}
	return counts
}

// server is one in-process rmsd with its client.
type server struct {
	srv    *service.Server
	reg    *telemetry.Registry
	base   string
	client *http.Client
}

// startServer starts rmsd on a loopback port with the default queue and
// workers, compiles the popular models, and opens a client limited to
// nproc keep-alive connections.
func startServer() (*server, error) {
	reg := telemetry.NewRegistry()
	srv := service.New(service.Config{Registry: reg})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, reg: reg, base: "http://" + addr}
	for _, spec := range popular {
		if _, _, err := srv.Engine().Compile(spec, nil); err != nil {
			s.stop()
			return nil, err
		}
	}
	nproc := runtime.NumCPU()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, DisableCompression: true,
	}}
	resp, err := s.client.Get(s.base + "/healthz")
	if err != nil {
		s.stop()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return s, nil
}

// popularModels returns the server's cached compilations of the popular
// specs, in order.
func (s *server) popularModels() ([]*service.CompiledModel, error) {
	models := make([]*service.CompiledModel, len(popular))
	for i, spec := range popular {
		cm, _, err := s.srv.Engine().Compile(spec, nil)
		if err != nil {
			return nil, err
		}
		models[i] = cm
	}
	return models, nil
}

func (s *server) stop() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	s.srv.Shutdown(time.Second)
}

// simRequest is the simulate body every simulate job sends.
func simRequest(spec service.ModelSpec, sparse bool) service.SimulateRequest {
	return service.SimulateRequest{Spec: &spec, TEnd: simTEnd, Points: simPoints,
		Rates: vulcan.TrueRates, Sparse: sparse}
}

// fire sends one job at its due time, waits for completion on the job
// queue, fetches the result and records what the client saw.
func (s *server) fire(j *serveJob, start time.Time, traced bool) {
	sent := time.Now()
	j.late = float64(sent.Sub(start.Add(j.due)).Microseconds()) / 1e3
	var body any = simRequest(j.spec, j.sparse)
	path := "/v1/simulate"
	if j.kind == "compile" {
		body, path = j.spec, "/v1/models"
	}
	buf, err := json.Marshal(body)
	if err != nil {
		j.errs = err.Error()
		return
	}
	submitNs := telemetry.Now()
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		j.errs = err.Error()
		return
	}
	var view struct {
		ID string `json:"id"`
	}
	status := resp.StatusCode
	derr := json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	j.submit = ms(time.Since(sent))
	if status != http.StatusAccepted || derr != nil {
		j.refused = status == http.StatusTooManyRequests
		j.errs = fmt.Sprintf("submit: HTTP %d", status)
		return
	}
	job, ok := s.srv.Queue().Job(view.ID)
	if !ok {
		j.errs = "submitted job not in the queue"
		return
	}
	<-job.Done()

	fetched := time.Now()
	resp, err = s.client.Get(s.base + "/v1/jobs/" + view.ID)
	if err != nil {
		j.errs = err.Error()
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	if err != nil {
		j.errs = err.Error()
		return
	}
	j.fetch, j.bytes = ms(done.Sub(fetched)), len(raw)
	j.latency = ms(done.Sub(start.Add(j.due)))

	// The rows stay JSON: the encoder writes each float64 in its
	// shortest round-trip form, so equal bytes mean equal bits, and the
	// benchmark does not spend the server's CPUs decoding them.
	var out struct {
		Status string `json:"status"`
		Error  string `json:"error"`
		Result struct {
			Rows   json.RawMessage `json:"rows"`
			Report string          `json:"report"`
		} `json:"result"`
	}
	if err := json.Unmarshal(raw, &out); err != nil || out.Status != service.JobDone {
		j.errs = fmt.Sprintf("job %s: %s %s", view.ID, out.Status, out.Error)
		return
	}
	j.report = out.Result.Report
	if j.kind != "compile" {
		j.rowsHash = fmt.Sprintf("%x", sha256.Sum256(out.Result.Rows))
	}
	j.ok = true
	if traced {
		var started, finished int64
		for _, ev := range job.Recorder().Events() {
			switch ev.Msg {
			case "job started":
				started = ev.TimeNs
			case "job finished":
				finished = ev.TimeNs
			}
		}
		j.queueWait = float64(started-submitNs) / 1e6
		j.runMs = float64(finished-started) / 1e6
	}
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// hashRows digests a trajectory as the server encodes it.
func hashRows(rows [][]float64) (string, error) {
	b, err := json.Marshal(rows)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(b)), nil
}

// drive plays the schedule open-loop against s, waits for every job and
// returns the seconds from the schedule's start to the last completion.
func (s *server) drive(jobs []*serveJob, traced bool) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for _, j := range jobs {
		time.Sleep(time.Until(start.Add(j.due)))
		wg.Add(1)
		go func(j *serveJob) {
			defer wg.Done()
			s.fire(j, start, traced)
		}(j)
	}
	wg.Wait()
	return since(start)
}

// serveStats summarises one played schedule.
type serveStats struct {
	sims, compiles, late []float64
	good, failed         int
	refused              int
}

// summarise collects the latencies of one played schedule and prints the
// first few failures.
func summarise(jobs []*serveJob) serveStats {
	var st serveStats
	for _, j := range jobs {
		st.late = append(st.late, j.late)
		if !j.ok {
			if st.failed < 3 {
				fmt.Printf("job failed: %s %+v: %s\n", j.kind, j.spec, j.errs)
			}
			st.failed++
			if j.refused {
				st.refused++
			}
			continue
		}
		if j.latency <= ms(serveLimit) {
			st.good++
		}
		if j.kind == "compile" {
			st.compiles = append(st.compiles, j.latency)
		} else {
			st.sims = append(st.sims, j.latency)
		}
	}
	return st
}

// checkServed compares every served result with a direct call: simulate
// rows must be bit-identical to service.RunSimulate on the same spec
// (compared as JSON, see fire), and a compile's report must match a
// direct compilation.
func checkServed(r *run, jobs []*serveJob) {
	eng := service.NewEngine(nil, nil)
	refs := map[string]string{}
	mismatches := 0
	for _, j := range jobs {
		if !j.ok {
			continue
		}
		cm, _, err := eng.Compile(j.spec, nil)
		if err != nil {
			r.check(false, "direct compile %+v: %v", j.spec, err)
			return
		}
		if j.kind == "compile" {
			want := cm.Info(false).Report
			r.check(j.report == want, "served compile report of %+v = %q, direct %q", j.spec, j.report, want)
			continue
		}
		key := fmt.Sprintf("%s/%v", cm.ID, j.sparse)
		want, ok := refs[key]
		if !ok {
			res, err := service.RunSimulate(cm, simRequest(j.spec, j.sparse), service.SimOpts{})
			if err == nil {
				want, err = hashRows(res.Rows)
			}
			if err != nil {
				r.check(false, "direct simulate %+v: %v", j.spec, err)
				return
			}
			refs[key] = want
		}
		if j.rowsHash != want {
			mismatches++
		}
	}
	r.check(mismatches == 0, "%d served trajectories differ from direct RunSimulate", mismatches)
	show("  served vs direct", float64(len(refs)), "refs", fmt.Sprintf("%d trajectory mismatches", mismatches))
}

func runServe(r *run) error {
	var s *server
	err := r.timeSetup(func() { s.stop() }, func() (err error) {
		s, err = startServer()
		return err
	})
	if err != nil {
		if s != nil {
			s.stop()
		}
		return err
	}
	models, err := s.popularModels()
	if err != nil {
		s.stop()
		return err
	}
	r.set("tape_ops", float64(shapeOf(models).tapeOps))

	window := r.seconds
	if r.traced {
		window /= 2
	}
	jobs := schedule(r.seed, window)
	elapsed := s.drive(jobs, false)
	st := summarise(jobs)
	r.attempted += len(jobs)
	r.failed += st.failed
	p50 := median(st.sims)
	tl, pct := tail(st.sims)
	r.set("op_p50_ms", p50)
	r.set("goodput_per_s", float64(st.good)/elapsed)
	r.set("retained_mb", retainedMiB())
	s.stop()
	checkServed(r, jobs)

	lateTail, latePct := tail(st.late)
	show("serve_sim_p50_ms", p50, "ms", fmt.Sprintf("%d simulate jobs at %.3g jobs/s", len(st.sims), serveRate))
	show("serve_sim_tail_ms", tl, "ms", fmt.Sprintf("p%d, %d samples", pct, len(st.sims)))
	show("serve_compile_p50_ms", median(st.compiles), "ms", fmt.Sprintf("%d cache-miss compile jobs", len(st.compiles)))
	show("serve_goodput_rps", float64(st.good)/elapsed, "jobs/s", fmt.Sprintf("within %v over %.2fs; %d refused, %d failed", serveLimit, elapsed, st.refused, st.failed))
	show("loadgen late", lateTail, "ms", fmt.Sprintf("p%d of send time - due time", latePct))
	if r.traced {
		return traceServe(r, models, p50)
	}
	return nil
}

// traceServe is the traced half of a serve run: a fresh server plays
// the same kind of schedule while the benchmark reads each job's flight
// recorder and the server's registry.
func traceServe(r *run, models []*service.CompiledModel, untracedP50 float64) error {
	if err := r.traceCompileLayers(popular, shapeOf(models)); err != nil {
		return err
	}
	cm := models[0]
	y := append([]float64(nil), cm.Res.System.Y0...)
	for i := range y {
		y[i] += 0.1
	}
	k, err := vulcan.RateVector(cm.Res.System.Rates, vulcan.TrueRates)
	if err != nil {
		return err
	}
	r.set("tape.eval_ns", timeEval(cm.Res.Tape, y, k))

	s, err := startServer()
	if err != nil {
		return err
	}

	before := snapshot(s.reg)
	jobs := schedule(r.seed, r.seconds/2)
	s.drive(jobs, true)
	after := snapshot(s.reg)
	s.stop()
	st := summarise(jobs)
	r.attempted += len(jobs)
	r.failed += st.failed
	checkServed(r, jobs)

	var wait, runMs, submit, fetch, size []float64
	for _, j := range jobs {
		if j.ok && j.kind != "compile" {
			wait = append(wait, j.queueWait)
			runMs = append(runMs, j.runMs)
			submit = append(submit, j.submit)
			fetch = append(fetch, j.fetch)
			size = append(size, float64(j.bytes))
		}
	}
	nSims := math.Max(1, float64(len(st.sims)))
	delta := func(name string) float64 { return after[name] - before[name] }
	for _, name := range []string{"tape.evals", "ode.steps", "ode.rejected_steps", "ode.newton_iters", "ode.factorizations"} {
		r.set(name, delta(name)/nSims)
	}
	r.set("service.queue_wait_ms", median(wait))
	r.set("service.run_ms", median(runMs))
	r.set("service.submit_ms", median(submit))
	r.set("service.fetch_ms", median(fetch))
	r.set("service.result_bytes", median(size))
	r.set("service.compile_job_ms", median(st.compiles))
	simTail, _ := tail(st.sims)
	r.set("service.sim_tail_ms", simTail)
	hits, misses := delta("service.cache_hits"), delta("service.cache_misses")
	r.set("service.cache_hits", hits)
	r.set("service.cache_misses", misses)
	if hits+misses > 0 {
		r.set("service.cache_hit_ratio", hits/(hits+misses))
	}
	r.set("service.refused", float64(st.refused))
	lateTail, _ := tail(st.late)
	r.set("loadgen.late_ms", lateTail)
	tracedP50 := median(st.sims)
	overhead := tracedP50/untracedP50 - 1
	r.set("trace.overhead_frac", overhead)
	show("traced serve_sim_p50_ms", tracedP50, "ms", fmt.Sprintf("overhead vs untraced %.2f%%", 100*overhead))
	return nil
}
