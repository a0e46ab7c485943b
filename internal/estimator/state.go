// Checkpoint state for the estimator: everything the next objective
// call's behavior depends on beyond the optimizer's own {x, lambda,
// iteration} (which nlopt.CheckState carries). Restoring a State into a
// freshly-constructed estimator over the same model, files and config
// makes the resumed fit's remaining objective calls bit-identical to the
// uninterrupted run's — the contract the conformance "resume" stage
// holds across the serial, load-balanced, sched and batched paths.

package estimator

import (
	"fmt"

	"rms/internal/sched"
)

// State is the JSON-serializable snapshot of an Estimator's mutable
// state. Slice fields are deep copies; the encoding is canonical for a
// given state (fixed field order, no maps), so checkpoint files hash
// stably.
type State struct {
	// Calls is the objective-call counter — the key every deterministic
	// fault schedule and the planner's call indexing hang off.
	Calls int `json:"calls"`
	// WallSeconds and ModelOps carry the accumulated accounting so a
	// resumed run's totals match the uninterrupted run's.
	WallSeconds float64 `json:"wall_seconds"`
	ModelOps    float64 `json:"model_ops"`
	// LastTimes are the most recent per-file solve costs (op units) —
	// what the lpt and static policies plan on.
	LastTimes []float64 `json:"last_times"`
	// Cost, Plans and SchedPolicy capture the scheduler: the cost model,
	// the per-rank item plans for the next call, and the *current*
	// policy, which the ewma→lpt demotion may have changed from the
	// configured one.
	Cost        sched.CostState `json:"cost"`
	Plans       [][]sched.Item  `json:"plans"`
	SchedPolicy string          `json:"sched_policy"`
	SchedStats  SchedStats      `json:"sched_stats"`
	// Mispredicts and PoolsOff are the degradation-ladder latches.
	Mispredicts int  `json:"mispredicts,omitempty"`
	PoolsOff    bool `json:"pools_off,omitempty"`
	// Recovery and Degrade carry the cumulative intervention ledgers.
	Recovery RecoveryStats `json:"recovery"`
	Degrade  DegradeStats  `json:"degrade"`
}

// Snapshot captures the estimator's complete mutable state. Call it only
// between objective calls (iteration boundaries) — never while a call is
// in flight.
func (e *Estimator) Snapshot() State {
	e.recMu.Lock()
	recovery, degrade := e.recovery, e.degrade
	e.recMu.Unlock()
	return State{
		Calls:       e.calls,
		WallSeconds: e.wallSeconds,
		ModelOps:    e.modelOps,
		LastTimes:   append([]float64(nil), e.lastTimes...),
		Cost:        e.cost.State(),
		Plans:       copyPlanItems(e.plans),
		SchedPolicy: e.schedCfg.Policy.String(),
		SchedStats:  e.schedStats,
		Mispredicts: e.mispredicts,
		PoolsOff:    e.poolsOff,
		Recovery:    recovery,
		Degrade:     degrade,
	}
}

// Restore overwrites the estimator's mutable state from a snapshot taken
// by a compatible estimator: same files and ranks, and the same policy —
// or lpt where this estimator is configured for ewma, the demotion's
// target. It validates shapes and rejects incompatible snapshots; on
// error the estimator is unchanged.
func (e *Estimator) Restore(st State) error {
	nf := len(e.files)
	if len(st.LastTimes) != nf {
		return fmt.Errorf("estimator: snapshot has %d file times, estimator has %d files",
			len(st.LastTimes), nf)
	}
	if len(st.Cost.Pred) != nf || len(st.Cost.Hits) != nf {
		return fmt.Errorf("estimator: snapshot cost model covers %d files, estimator has %d",
			len(st.Cost.Pred), nf)
	}
	if len(st.Plans) != e.cfg.Ranks {
		return fmt.Errorf("estimator: snapshot plans %d ranks, estimator has %d",
			len(st.Plans), e.cfg.Ranks)
	}
	for _, plan := range st.Plans {
		for _, it := range plan {
			if it.File < 0 || it.File >= nf {
				return fmt.Errorf("estimator: snapshot plans unknown file %d", it.File)
			}
		}
	}
	pol, err := sched.ParsePolicy(st.SchedPolicy)
	if err != nil {
		return err
	}
	if cur := e.schedCfg.Policy; pol != cur && !(cur == sched.PolicyEWMA && pol == sched.PolicyLPT) {
		return fmt.Errorf("estimator: snapshot policy %s, estimator policy %s", pol, cur)
	}
	e.calls = st.Calls
	e.wallSeconds = st.WallSeconds
	e.modelOps = st.ModelOps
	e.lastTimes = append([]float64(nil), st.LastTimes...)
	e.cost = sched.CostModelFromState(st.Cost)
	e.plans = copyPlanItems(st.Plans)
	e.schedCfg.Policy = pol
	if pol != sched.PolicyEWMA {
		e.schedCfg.SplitShare = 0
	}
	e.schedStats = st.SchedStats
	e.mispredicts = st.Mispredicts
	e.poolsOff = st.PoolsOff
	e.recMu.Lock()
	e.recovery = st.Recovery
	e.degrade = st.Degrade
	e.recMu.Unlock()
	return nil
}

func copyPlanItems(in [][]sched.Item) [][]sched.Item {
	out := make([][]sched.Item, len(in))
	for i := range in {
		out[i] = append([]sched.Item(nil), in[i]...)
	}
	return out
}
