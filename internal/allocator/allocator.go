// Package allocator implements the paper's PowerAllocator: apportioning a
// server's dynamic power budget across co-located applications (R1) by
// the relative utility of each watt, where each application's utility
// curve already encodes the best intra-application split across its
// direct resources (R2) — or deliberately does not, for the baselines.
//
// The apportioning itself is solved exactly by dynamic programming over a
// discretized budget: per-application utility curves are arbitrary
// monotone step functions (they need not be concave — P_cm and the core
// ladder make them lumpy), so marginal-utility greedy can be suboptimal;
// at the paper's scale (a few applications, tens of watts) the DP is
// exact and cheap.
package allocator

import (
	"fmt"
	"time"

	"powerstruggle/internal/simhw"
	"powerstruggle/internal/workload"
)

// DefaultStepW is the budget discretization of the DP, half of the
// paper's finest knob granularity (1 W DRAM steps).
const DefaultStepW = 0.5

// Allocation is one application's share of the server budget.
type Allocation struct {
	// BudgetW is the power apportioned to the application.
	BudgetW float64
	// Point is the operating point its curve affords under BudgetW;
	// Point.PowerW <= BudgetW. Zero-valued (with Runnable false) when
	// the share cannot run the application at all.
	Point workload.Point
	// Runnable reports whether the share admits any operating point.
	Runnable bool
}

// Perf returns the allocation's normalized performance (0 if not
// runnable).
func (a Allocation) Perf() float64 {
	if !a.Runnable {
		return 0
	}
	return a.Point.Perf
}

// Plan is a complete apportioning of a dynamic budget.
type Plan struct {
	// Allocs has one entry per input curve, in order.
	Allocs []Allocation
	// TotalPerf is the paper's objective (1): the sum of normalized
	// performances.
	TotalPerf float64
	// SpentW is the sum of the chosen operating points' power draws.
	SpentW float64
}

// Apportion splits budget watts across the applications described by
// curves, maximizing the sum of normalized performances (the paper's
// objective with all applications weighed evenly): ApportionWeighted
// with unit weights and no floors. stepW sets the DP resolution; pass 0
// for DefaultStepW.
func Apportion(curves []*workload.Curve, budget, stepW float64) (Plan, error) {
	return ApportionWeighted(curves, nil, budget, stepW)
}

// EqualSplit apportions the budget evenly across all applications — the
// Util-Unaware baseline's R1 decision — and reads each application's
// operating point off its curve.
func EqualSplit(curves []*workload.Curve, budget float64) (plan Plan, err error) {
	if len(curves) == 0 {
		return Plan{}, fmt.Errorf("allocator: no applications to apportion across")
	}
	if h := tel.Load(); h != nil {
		start := time.Now()
		defer func() { h.observeSolve("equal", start, budget, plan) }()
	}
	if budget < 0 {
		budget = 0
	}
	share := budget / float64(len(curves))
	plan = Plan{Allocs: make([]Allocation, len(curves))}
	for i, c := range curves {
		pt, ok := c.At(share)
		plan.Allocs[i] = Allocation{BudgetW: share, Point: pt, Runnable: ok}
		if ok {
			plan.TotalPerf += pt.Perf
			plan.SpentW += pt.PowerW
		}
	}
	return plan, nil
}

// ShapedSplit apportions the budget evenly but picks each application's
// operating point by adopting the knob shape a reference curve (the
// library-average one) chooses at the share — the Server+Res-Aware
// baseline: resource-utility aware on average, application-unaware.
func ShapedSplit(cfg ShapeConfig, budget float64) (plan Plan, err error) {
	if len(cfg.Profiles) == 0 {
		return Plan{}, fmt.Errorf("allocator: no applications to apportion across")
	}
	if h := tel.Load(); h != nil {
		start := time.Now()
		defer func() { h.observeSolve("shaped", start, budget, plan) }()
	}
	if budget < 0 {
		budget = 0
	}
	share := budget / float64(len(cfg.Profiles))
	plan = Plan{Allocs: make([]Allocation, len(cfg.Profiles))}
	shapePt, shapeOK := cfg.Shape.At(share)
	for i, p := range cfg.Profiles {
		var (
			pt workload.Point
			ok bool
		)
		if shapeOK {
			pt, ok = workload.ApplyShape(cfg.HW, p, shapePt.Knobs, share)
		}
		if !ok {
			// The averaged shape has no affordable point; fall back to
			// the floor shape and let ApplyShape idle-inject.
			pt, ok = workload.ApplyShape(cfg.HW, p, workload.MinKnobs(cfg.HW), share)
		}
		plan.Allocs[i] = Allocation{BudgetW: share, Point: pt, Runnable: ok}
		if ok {
			plan.TotalPerf += pt.Perf
			plan.SpentW += pt.PowerW
		}
	}
	return plan, nil
}

// ShapeConfig parameterizes ShapedSplit.
type ShapeConfig struct {
	// HW is the platform.
	HW simhw.Config
	// Profiles are the co-located applications, in order.
	Profiles []*workload.Profile
	// Shape is the reference curve whose knob choices are adopted
	// (typically workload.AverageCurve over the whole library).
	Shape *workload.Curve
}
