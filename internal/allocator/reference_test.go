package allocator

import (
	"fmt"
	"math"

	"powerstruggle/internal/workload"
)

// This file keeps the allocator's two hand-written DP loops, verbatim
// from before they became thin callers of the shared mcknap kernel
// (telemetry hooks aside), as the bitwise references the parity suite
// holds Apportion and ApportionWeighted to.

// referenceApportion is the pre-kernel Apportion loop.
func referenceApportion(curves []*workload.Curve, budget, stepW float64) (plan Plan, err error) {
	if len(curves) == 0 {
		return Plan{}, fmt.Errorf("allocator: no applications to apportion across")
	}
	if stepW <= 0 {
		stepW = DefaultStepW
	}
	if budget < 0 {
		budget = 0
	}
	levels := int(budget/stepW) + 1

	// perfAt[i][l] is application i's best perf with budget l*stepW.
	perfAt := make([][]float64, len(curves))
	for i, c := range curves {
		row := make([]float64, levels)
		for l := 0; l < levels; l++ {
			row[l] = c.PerfAt(float64(l) * stepW)
		}
		perfAt[i] = row
	}

	// DP over applications: best[l] is the max total perf using budget
	// l*stepW over the first i applications; choice[i][l] records how
	// much the i-th application took.
	best := make([]float64, levels)
	choice := make([][]int, len(curves))
	for i := range curves {
		choice[i] = make([]int, levels)
		next := make([]float64, levels)
		for l := 0; l < levels; l++ {
			bestV, bestK := math.Inf(-1), 0
			for k := 0; k <= l; k++ {
				v := best[l-k] + perfAt[i][k]
				if v > bestV {
					bestV, bestK = v, k
				}
			}
			next[l] = bestV
			choice[i][l] = bestK
		}
		best = next
	}

	// Walk the choices back from the full budget.
	plan = Plan{Allocs: make([]Allocation, len(curves))}
	l := levels - 1
	for i := len(curves) - 1; i >= 0; i-- {
		k := choice[i][l]
		share := float64(k) * stepW
		pt, ok := curves[i].At(share)
		plan.Allocs[i] = Allocation{BudgetW: share, Point: pt, Runnable: ok}
		if ok {
			plan.TotalPerf += pt.Perf
			plan.SpentW += pt.PowerW
		}
		l -= k
	}
	return plan, nil
}

// referenceApportionWeighted is the pre-kernel ApportionWeighted loop.
func referenceApportionWeighted(curves []*workload.Curve, objs []Objective, budget, stepW float64) (Plan, error) {
	if len(curves) == 0 {
		return Plan{}, fmt.Errorf("allocator: no applications to apportion across")
	}
	if len(objs) != len(curves) {
		return Plan{}, fmt.Errorf("allocator: %d objectives for %d applications", len(objs), len(curves))
	}
	for i, o := range objs {
		if o.Weight < 0 {
			return Plan{}, fmt.Errorf("allocator: application %d has negative weight %g", i, o.Weight)
		}
		if o.FloorPerf < 0 || o.FloorPerf > 1 {
			return Plan{}, fmt.Errorf("allocator: application %d has floor %g outside [0, 1]", i, o.FloorPerf)
		}
	}
	if stepW <= 0 {
		stepW = DefaultStepW
	}
	if budget < 0 {
		budget = 0
	}
	levels := int(budget/stepW) + 1

	// minLevels[i] is the cheapest budget level meeting application i's
	// floor; scoreAt[i][l] is its weighted objective at level l (or
	// -Inf below the floor).
	minLevels := make([]int, len(curves))
	scoreAt := make([][]float64, len(curves))
	for i, c := range curves {
		minLevels[i] = -1
		row := make([]float64, levels)
		for l := 0; l < levels; l++ {
			perf := c.PerfAt(float64(l) * stepW)
			if perf+1e-12 < objs[i].FloorPerf {
				row[l] = math.Inf(-1)
				continue
			}
			if minLevels[i] == -1 {
				minLevels[i] = l
			}
			row[l] = objs[i].Weight * perf
		}
		if minLevels[i] == -1 {
			return Plan{}, fmt.Errorf("allocator: %w: application %d cannot reach floor %.2f under %.1f W",
				ErrInfeasible, i, objs[i].FloorPerf, budget)
		}
		scoreAt[i] = row
	}

	best := make([]float64, levels)
	choice := make([][]int, len(curves))
	for i := range curves {
		choice[i] = make([]int, levels)
		next := make([]float64, levels)
		for l := 0; l < levels; l++ {
			bestV, bestK := math.Inf(-1), -1
			for k := minLevels[i]; k <= l; k++ {
				prev := best[l-k]
				if math.IsInf(prev, -1) || math.IsInf(scoreAt[i][k], -1) {
					continue
				}
				if v := prev + scoreAt[i][k]; v > bestV {
					bestV, bestK = v, k
				}
			}
			next[l] = bestV
			choice[i][l] = bestK
		}
		best = next
	}
	if math.IsInf(best[levels-1], -1) {
		return Plan{}, fmt.Errorf("allocator: %w: floors need more than %.1f W", ErrInfeasible, budget)
	}

	plan := Plan{Allocs: make([]Allocation, len(curves))}
	l := levels - 1
	for i := len(curves) - 1; i >= 0; i-- {
		k := choice[i][l]
		share := float64(k) * stepW
		pt, ok := curves[i].At(share)
		plan.Allocs[i] = Allocation{BudgetW: share, Point: pt, Runnable: ok}
		if ok {
			plan.TotalPerf += pt.Perf
			plan.SpentW += pt.PowerW
		}
		l -= k
	}
	return plan, nil
}
