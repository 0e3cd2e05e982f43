package allocator

import (
	"fmt"
	"math"
	"time"

	"powerstruggle/internal/mcknap"
	"powerstruggle/internal/workload"
)

// Objective describes one application's term in a weighted allocation
// objective — the generalization of the paper's evenly-weighed objective
// (1) that its footnote on latency-critical applications calls for.
type Objective struct {
	// Weight scales the application's normalized performance in the
	// objective; the paper's objective (1) uses 1 for everyone.
	Weight float64
	// FloorPerf is a minimum normalized performance (an SLO): the
	// allocation is infeasible unless every floor is met. 0 means
	// best-effort.
	FloorPerf float64
}

// ApportionWeighted splits budget watts across applications maximizing
// the weighted sum of normalized performances subject to per-application
// performance floors. Floors turn latency-critical co-location into the
// paper's framework: the latency-critical application states the
// normalized throughput its SLO needs, and only the leftover watts are
// up for utility-maximizing grabs. nil objs weighs every application
// evenly with no floor, the paper's objective (1).
//
// It returns ErrInfeasible (wrapped) when the floors cannot all be met
// within the budget.
func ApportionWeighted(curves []*workload.Curve, objs []Objective, budget, stepW float64) (plan Plan, err error) {
	if len(curves) == 0 {
		return Plan{}, fmt.Errorf("allocator: no applications to apportion across")
	}
	if objs != nil && len(objs) != len(curves) {
		return Plan{}, fmt.Errorf("allocator: %d objectives for %d applications", len(objs), len(curves))
	}
	for i, o := range objs {
		if !(o.Weight >= 0) || math.IsInf(o.Weight, 1) {
			return Plan{}, fmt.Errorf("allocator: application %d has weight %g, want a finite non-negative one", i, o.Weight)
		}
		if !(o.FloorPerf >= 0 && o.FloorPerf <= 1) {
			return Plan{}, fmt.Errorf("allocator: application %d has floor %g outside [0, 1]", i, o.FloorPerf)
		}
	}
	if h := tel.Load(); h != nil {
		start := time.Now()
		defer func() { h.observeSolve("dp", start, budget, plan) }()
	}
	if stepW <= 0 {
		stepW = DefaultStepW
	}
	if budget < 0 {
		budget = 0
	}
	levels := int(budget/stepW) + 1

	// Row i offers application i every budget level l at a cost of l
	// levels, scored at its weighted perf there (-Inf below its floor).
	var t mcknap.Table
	t.Grow(levels)
	for i, c := range curves {
		o := Objective{Weight: 1}
		if objs != nil {
			o = objs[i]
		}
		row := make([]mcknap.Option, levels)
		reachable := false
		for l := range row {
			row[l] = mcknap.Option{Cost: l, Value: math.Inf(-1)}
			if perf := c.PerfAt(float64(l) * stepW); perf+1e-12 >= o.FloorPerf {
				row[l].Value, reachable = o.Weight*perf, true
			}
		}
		if !reachable {
			return Plan{}, fmt.Errorf("allocator: %w: application %d cannot reach floor %.2f under %.1f W",
				ErrInfeasible, i, o.FloorPerf, budget)
		}
		t.Push(row)
	}
	ks := make([]int, len(curves))
	if math.IsInf(t.Choose(levels-1, ks), -1) {
		return Plan{}, fmt.Errorf("allocator: %w: floors need more than %.1f W", ErrInfeasible, budget)
	}

	plan = Plan{Allocs: make([]Allocation, len(curves))}
	for i := len(curves) - 1; i >= 0; i-- {
		share := float64(ks[i]) * stepW
		pt, ok := curves[i].At(share)
		plan.Allocs[i] = Allocation{BudgetW: share, Point: pt, Runnable: ok}
		if ok {
			plan.TotalPerf += pt.Perf
			plan.SpentW += pt.PowerW
		}
	}
	return plan, nil
}

// ErrInfeasible marks allocations whose performance floors cannot be met
// within the budget; callers test with errors.Is.
var ErrInfeasible = fmt.Errorf("allocation infeasible")
