package sched

// The virtual-clock simulator replays scripted per-item costs through
// the REAL scheduler code (the same StealSet the concurrent runner
// drains), so steal decisions can be asserted exactly, independent of
// wall-clock noise. It is also how the estimator computes its modeled
// parallel time: feeding the measured per-item costs of a finished call
// back through the schedule yields a deterministic makespan even when
// the host machine oversubscribes CPUs.
//
// Discipline: the lane with the minimum virtual clock (ties → lowest
// lane index) requests its next item via StealSet.Next and advances its
// clock by the item's simulated cost. This is exactly the greedy
// behavior of the concurrent runner when execution times equal the
// simulated costs: a lane asks for work at the moment it goes idle.

// SimEvent records one executed item in a simulation.
type SimEvent struct {
	Item   Item
	Lane   int     // lane that executed the item
	Victim int     // lane stolen from, -1 for an own-queue pop
	Start  float64 // virtual start time on Lane
	End    float64 // Start + simulated cost
}

// SimResult is the outcome of one simulated drain.
type SimResult struct {
	Events   []SimEvent
	Finish   []float64 // final virtual clock per lane
	Makespan float64   // max over Finish
	Steals   int
}

// Simulate drains per-lane queues under a virtual clock. cost gives each
// item's simulated execution cost (use Item.Cost to simulate on the
// plan's own predictions, or script "true" costs to test how the
// schedule reacts to misprediction). steal mirrors Config.Steal.
func Simulate(queues [][]Item, steal bool, cost func(Item) float64) SimResult {
	set := NewStealSet(queues, steal)
	lanes := set.Lanes()
	clock := make([]float64, lanes)
	done := make([]bool, lanes)
	var events []SimEvent
	for {
		// Next lane to go idle: min clock among live lanes, tie → lowest.
		lane := -1
		for l := 0; l < lanes; l++ {
			if done[l] {
				continue
			}
			if lane == -1 || clock[l] < clock[lane] {
				lane = l
			}
		}
		if lane == -1 {
			break
		}
		it, victim, ok := set.Next(lane)
		if !ok {
			done[lane] = true
			continue
		}
		c := cost(it)
		events = append(events, SimEvent{
			Item: it, Lane: lane, Victim: victim,
			Start: clock[lane], End: clock[lane] + c,
		})
		clock[lane] += c
	}
	worst := 0.0
	for _, c := range clock {
		if c > worst {
			worst = c
		}
	}
	return SimResult{Events: events, Finish: clock, Makespan: worst, Steals: set.Steals()}
}

// Round is one simulated objective call in a Replay: the plan the
// scheduler produced from its cost model going in, the per-rank
// simulation outcomes, and the model state after observing the scripted
// costs.
type Round struct {
	Plans       [][]Item    // per-rank item plans for this call
	Splits      int         // files split by this call's plan
	Sims        []SimResult // one simulated drain per rank
	Makespan    float64     // max rank makespan under the scripted costs
	Steals      int         // total steals across ranks
	Predictions []float64   // cost-model predictions after the update
	RelErrs     []float64   // per-file relative prediction error this call
}

// Replay drives the full scheduling loop — plan, simulate, observe, re-plan —
// over a scripted cost trace, entirely under the virtual clock. recs[i]
// is file i's record count (also the model seed, as in the estimator);
// trace[r][i] is file i's "true" whole-file cost during round r, with
// sub-range items costing the record-prorated share. This is the
// deterministic harness sim_test.go asserts exact decisions against.
func Replay(cfg Config, recs []int, ranks int, trace [][]float64) []Round {
	cfg = cfg.WithDefaults()
	nf := len(recs)
	model := NewCostModel(nf, cfg.Alpha)
	seed := make([]float64, nf)
	for i, n := range recs {
		seed[i] = float64(n)
	}
	model.Seed(seed)

	itemCost := func(round int) func(Item) float64 {
		truth := trace[round]
		return func(it Item) float64 {
			n := recs[it.File]
			if n == 0 || it.Hi == it.Lo {
				return 0
			}
			return truth[it.File] * float64(it.Hi-it.Lo) / float64(n)
		}
	}

	var rounds []Round
	var static [][]Item
	for r := range trace {
		var plans [][]Item
		var splits int
		switch {
		case cfg.Policy == PolicyStatic && static != nil:
			plans = static
		case cfg.Policy == PolicyLPT && r > 0:
			// Raw last-measured costs, no smoothing, no splits.
			plans, splits = Plan(trace[r-1], recs, ranks, Config{Policy: PolicyLPT, Lanes: cfg.Lanes})
		default:
			plans, splits = Plan(model.Predictions(), recs, ranks, cfg)
		}
		if cfg.Policy == PolicyStatic && static == nil {
			static = plans
		}

		cost := itemCost(r)
		sims := make([]SimResult, len(plans))
		steals := 0
		worst := 0.0
		measured := make([]float64, nf)
		for rank, plan := range plans {
			sims[rank] = Simulate(LaneSplit(plan, cfg.Lanes), cfg.Steal, cost)
			steals += sims[rank].Steals
			if sims[rank].Makespan > worst {
				worst = sims[rank].Makespan
			}
			for _, ev := range sims[rank].Events {
				measured[ev.Item.File] += cost(ev.Item)
			}
		}
		relErrs := make([]float64, nf)
		for i := 0; i < nf; i++ {
			relErrs[i], _ = model.Observe(i, measured[i])
		}
		rounds = append(rounds, Round{
			Plans: plans, Splits: splits, Sims: sims,
			Makespan: worst, Steals: steals,
			Predictions: model.Predictions(), RelErrs: relErrs,
		})
	}
	return rounds
}
