// The parallel objective's executor (package sched,
// docs/load-balancing.md): plans are per-rank lists of items — record
// sub-ranges of data files — drained by work-stealing lanes (or, under
// Config.Batch, by one lockstep batched solve per rank), measured per
// item, and re-planned between objective calls by the configured policy.
//
// Numerical invariant: residual accumulation is order-independent. Each
// rank writes every item's contribution into a per-(file, record)
// buffer — one writer per entry, across all ranks, lanes and steals —
// the buffers are AllReduce-summed exactly, and the caller folds them
// in ascending file order: precisely the addition sequence of the
// serial single-rank path. Fits are therefore bit-identical to serial
// for ANY schedule the planner or the thieves produce; the conformance
// stage "sched" holds the whole path to exact equality.

package estimator

import (
	"fmt"
	"math"
	"sync"

	"rms/internal/codegen"
	"rms/internal/mpi"
	"rms/internal/ode"
	"rms/internal/parallel"
	"rms/internal/sched"
)

// SchedStats counts the scheduler's decisions, accumulated across
// objective calls. Steals are the deterministic virtual-clock replay's
// count (the modeled schedule — reproducible across runs), not the
// OS-timing-dependent count of the concurrent executor.
type SchedStats struct {
	// Steals counts items taken from another lane's deque.
	Steals int
	// Splits counts files split into record sub-ranges at plan time.
	Splits int
	// Replans counts re-planning decisions between calls.
	Replans int
}

// The ewma→lpt demotion fires after schedMispredictLimit consecutive
// calls whose mean relative cost-model error exceeds schedMispredictRel.
const (
	schedMispredictRel   = 0.5
	schedMispredictLimit = 3
)

// SchedStats returns the accumulated scheduler decision counts.
func (e *Estimator) SchedStats() SchedStats { return e.schedStats }

// Plans returns a copy of the current per-rank item plans.
func (e *Estimator) Plans() [][]sched.Item { return copyPlanItems(e.plans) }

// CostPredictions returns the cost model's current per-file predictions
// in op units.
func (e *Estimator) CostPredictions() []float64 { return e.cost.Predictions() }

// planCosts returns the per-file costs the current policy plans on: the
// EWMA model's predictions, or the raw last-measured costs for the
// paper's balancers (static re-plans only to recover lost ranks).
func (e *Estimator) planCosts() []float64 {
	if e.schedCfg.Policy == sched.PolicyEWMA {
		return e.cost.Predictions()
	}
	return e.lastTimes
}

// account adds one finished call's modeled parallel time: the executed
// plan replayed under the virtual clock with the measured per-item
// costs. Deterministic under CPU oversubscription, faithful to the
// greedy steal discipline, and the source of the steal counters (see
// SchedStats).
func (e *Estimator) account(plans [][]sched.Item, itemOps []float64) {
	costOf := func(it sched.Item) float64 { return itemOps[it.Seq] }
	worst, total := 0.0, 0.0
	steals := 0
	for _, plan := range plans {
		res := sched.Simulate(sched.LaneSplit(plan, e.schedCfg.Lanes), e.schedCfg.Steal, costOf)
		if res.Makespan > worst {
			worst = res.Makespan
		}
		steals += res.Steals
		for _, it := range plan {
			total += itemOps[it.Seq]
		}
	}
	e.modelOps += worst
	if mean := total / float64(len(plans)); mean > 0 {
		e.met.imbalance.Set(worst / mean)
	}
	e.schedStats.Steals += steals
	e.met.schedSteals.Add(int64(steals))
}

// replan feeds the cost model from successful-attempt work only (a
// penalized file reports zero, which Observe ignores), then computes the
// next call's plans per policy.
func (e *Estimator) replan(successOps []float64) {
	relSum, relN := 0.0, 0
	for fi, w := range successOps {
		rel, first := e.cost.Observe(fi, w)
		if !first && !math.IsNaN(rel) {
			e.met.costErr.Observe(rel)
			relSum += rel
			relN++
		}
	}
	// The ewma→lpt rung: when the EWMA's predictions stay badly wrong for
	// several consecutive calls (injected slow-lane jitter, or genuinely
	// erratic per-call costs), smoothing is hurting the plan — demote to
	// plain LPT over raw last-measured costs, permanently.
	if e.schedCfg.Policy == sched.PolicyEWMA && relN > 0 {
		if relSum/float64(relN) > schedMispredictRel {
			e.mispredicts++
		} else {
			e.mispredicts = 0
		}
		if e.mispredicts >= schedMispredictLimit {
			e.schedCfg.Policy = sched.PolicyLPT
			e.schedCfg.SplitShare = 0 // LPT is a file-granularity policy
			e.met.degradeSched.Inc()
			e.recMu.Lock()
			e.degrade.SchedStatic++
			e.recMu.Unlock()
			e.lane.Instant("degrade: sched ewma → lpt")
			e.log.Warn("degrade", "sched cost model demoted: ewma → lpt",
				"call", e.calls, "mispredicts", e.mispredicts)
		}
	}
	if e.schedCfg.Policy == sched.PolicyStatic {
		return // the initial plan runs every call
	}
	var splits int
	e.plans, splits = sched.Plan(e.planCosts(), e.nrecs, e.cfg.Ranks, e.schedCfg)
	e.schedStats.Splits += splits
	e.schedStats.Replans++
	e.met.schedSplits.Add(int64(splits))
	e.met.schedReplans.Inc()
	e.lane.Instant("rebalance (sched " + e.schedCfg.Policy.String() + ")")
	e.log.Debug("replan", "schedule recomputed",
		"call", e.calls, "policy", e.schedCfg.Policy.String(), "splits", splits)
}

// callResult is one objective call's exactly-reduced measurements.
type callResult struct {
	contrib    []float64 // per-(file, record) contributions, nf×m
	fileOps    []float64 // per-file work, failed attempts included
	successOps []float64 // per-file successful-attempt work (the cost model's food)
	itemOps    []float64 // per-item work indexed by Item.Seq (the virtual-clock replay's input)
}

// runCall executes one parallel objective evaluation over per-rank item
// plans. It returns the reduced measurements, the mpi report, and the
// first solver error (non-nil only without FaultTolerant).
func (e *Estimator) runCall(k []float64, plans [][]sched.Item, ranks, m int) (callResult, *mpi.RunReport, error) {
	nf := len(e.files)
	nItems := 0
	for _, p := range plans {
		nItems += len(p)
	}
	// Each rank reduces one buffer laid out as [contrib nf×m | file ops
	// nf | success ops nf | item ops]. Every contribution and item entry
	// is written by exactly one item on exactly one rank, so the
	// AllReduce sum is exact (0 + x = x in floating point).
	offFile, offSucc, offItem := nf*m, nf*m+nf, nf*m+2*nf
	var global []float64
	var errMu sync.Mutex
	var firstErr error
	noteErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	call := e.calls
	sc := e.schedCfg
	cfg := mpi.RunConfig{Watchdog: e.cfg.Watchdog, Hook: e.cfg.Hook, Trace: e.cfg.Trace,
		Budget: e.cfg.Budget, Log: e.mpiLog}
	rep := mpi.RunErr(ranks, cfg, func(c *mpi.Comm) error {
		rank := c.Rank()
		buf := make([]float64, offItem+nItems)
		contrib, itemOps := buf[:offFile], buf[offItem:]
		succOps := make([]float64, nItems)
		lanes := sc.Lanes
		// Per-lane evaluators; worker pools exist only with a single lane
		// (New rejects Workers with several — lanes ARE the intra-rank
		// parallelism then).
		var pool *parallel.Pool
		if e.pools != nil && !e.poolsOff {
			pool = e.pools[rank]
		}
		evs := make([]*codegen.Evaluator, lanes)
		for l := range evs {
			evs[l] = e.model.Prog.NewEvaluator()
			evs[l].Observe(e.cfg.Metrics)
			if pool != nil {
				evs[l].SetParallel(pool)
			}
		}
		var scratch [][]float64
		if e.cfg.FaultTolerant {
			scratch = make([][]float64, lanes)
			for l := range scratch {
				scratch[l] = make([]float64, m)
			}
		}
		lane := c.Lane()
		useLane := lane != nil && lanes == 1 // spans can't interleave across lanes

		items := plans[rank]
		// attempt0 is the injector attempt index of the per-item solves:
		// 0 normally, 1 after a batch→serial degrade (the batched solve
		// consumed attempt 0, so one-attempt schedules don't re-fire on
		// the fallback while persistent ones still surface).
		attempt0 := 0
		if e.useBatch() && len(items) > 0 {
			var degraded bool
			var err error
			items, degraded, err = e.solveRankBatch(items, k, pool, contrib, m, itemOps, succOps, call, rank, lane)
			if degraded {
				attempt0 = 1
			}
			if err != nil {
				noteErr(err)
			}
		}
		set := sched.NewStealSet(sched.LaneSplit(items, lanes), sc.Steal).
			WithBudget(e.cfg.Budget)
		set.Run(func(laneIdx int, it sched.Item, _ int) {
			f := e.files[it.File]
			block := contrib[it.File*m : (it.File+1)*m]
			ev := evs[laneIdx]
			// Injected slowdowns inflate the cost an item *reports* —
			// exactly how a chronically slow worker looks to the cost
			// model and the virtual-clock replay.
			slow := e.laneSlowdown(call, rank, laneIdx, it)
			e.log.Debug("solve", "file solve",
				"call", call, "rank", rank, "file", f.Name,
				"lo", it.Lo, "hi", it.Hi)
			if useLane {
				lane.Begin("solve " + f.Name)
				defer lane.End()
			}
			if e.cfg.FaultTolerant {
				// FT plans are whole-file items (splits forced off), so
				// the retry/penalty fold covers exactly this block.
				st, succ, retries, penalized := e.solveFileFT(ev, pool, f, k, scratch[laneIdx], block, call, rank, it.File)
				itemOps[it.Seq] = e.workOps(st) * slow
				succOps[it.Seq] = e.workOps(succ) * slow
				e.met.fileSolves.Inc()
				e.publishSolveStats(st)
				e.met.retries.Add(int64(retries))
				if retries > 0 || penalized {
					e.recMu.Lock()
					e.recovery.Retries += retries
					if penalized {
						e.recovery.PenalizedFiles++
						e.met.penalized.Inc()
					}
					e.recMu.Unlock()
				}
				return
			}
			var st ode.Stats
			err := error(nil)
			if e.cfg.Faults != nil {
				err = e.cfg.Faults.FileSolve(call, rank, it.File, attempt0)
			}
			if err == nil {
				st, err = e.solveFileRange(ev, pool, f, k, block, e.model.SolverOpts, it.Lo, it.Hi)
			}
			if err != nil {
				noteErr(fmt.Errorf("estimator: file %s: %w", f.Name, err))
			}
			w := e.workOps(st) * slow
			itemOps[it.Seq] = w
			succOps[it.Seq] = w
			e.publishSolve(st)
		})

		// Per-item measurements fold into per-file entries single-threaded
		// (items steal only between a rank's own lanes, never across
		// ranks, so this rank executed exactly its plan).
		for _, it := range plans[rank] {
			buf[offFile+it.File] += itemOps[it.Seq]
			buf[offSucc+it.File] += succOps[it.Seq]
		}
		g := c.AllReduce(buf, mpi.SumOp)
		if rank == 0 {
			global = g
		}
		return nil
	})
	var res callResult
	if global != nil {
		res = callResult{
			contrib:    global[:offFile],
			fileOps:    global[offFile:offSucc],
			successOps: global[offSucc:offItem],
			itemOps:    global[offItem:],
		}
	}
	return res, rep, firstErr
}
