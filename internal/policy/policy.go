// Package policy implements the five server power-management schemes the
// paper evaluates (Sections IV-A and IV-B): the Util-Unaware RAPL
// baseline, the Server+Res-Aware baseline, and the proposed App-Aware,
// App+Res-Aware and App+Res+ESD-Aware policies. A policy is the glue
// between utility curves (what each watt buys whom), the PowerAllocator
// (who gets which watts), and the Coordinator (how the watts are drawn
// without ever exceeding the cap).
package policy

import (
	"fmt"

	"powerstruggle/internal/allocator"
	"powerstruggle/internal/coordinator"
	"powerstruggle/internal/esd"
	"powerstruggle/internal/simhw"
	"powerstruggle/internal/workload"
)

// Kind enumerates the evaluated policies.
type Kind int

// The schemes of the paper's evaluation, in the order its figures plot
// them.
const (
	// UtilUnaware equally splits the budget and enforces each share
	// with hardware RAPL; duty-cycles fairly when shares cannot run.
	UtilUnaware Kind = iota
	// ServerResAware equally splits the budget but picks knob shapes by
	// server-averaged resource utilities.
	ServerResAware
	// AppAware apportions the budget by application-level utilities but
	// enforces each share RAPL-style, without resource-level tuning.
	AppAware
	// AppResAware apportions by application-level utilities over full
	// per-resource Pareto curves (the paper's R1+R2+R3 policy).
	AppResAware
	// AppResESDAware adds the R4 energy-storage coordination.
	AppResESDAware
)

// Kinds lists all policies in evaluation order.
func Kinds() []Kind {
	return []Kind{UtilUnaware, ServerResAware, AppAware, AppResAware, AppResESDAware}
}

// String names the policy as the paper's figures do.
func (k Kind) String() string {
	switch k {
	case UtilUnaware:
		return "Util-Unaware"
	case ServerResAware:
		return "Server+Res-Aware"
	case AppAware:
		return "App-Aware"
	case AppResAware:
		return "App+Res-Aware"
	case AppResESDAware:
		return "App+Res+ESD-Aware"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// spaceMargin is the preference the Coordinator gives space coordination:
// time multiplexing must beat it by this relative margin to be chosen,
// because suspension flushes private-cache state (Section III-B prefers
// R3a "since states of applications are preserved").
const spaceMargin = 1.05

// Context carries everything a policy needs to plan for one server at
// one instant.
type Context struct {
	// HW is the platform.
	HW simhw.Config
	// CapW is the server's current power cap (the paper's P_cap).
	CapW float64
	// Profiles are the co-located applications.
	Profiles []*workload.Profile
	// Library supplies the previously-seen-application population the
	// Server+Res-Aware baseline averages over.
	Library *workload.Library
	// Device is the server's ESD, if any; only AppResESDAware uses it.
	Device *esd.Device
	// Coord overrides coordinator tunables; HW and CapW are filled in
	// by the policy.
	Coord coordinator.Config
	// CurveOverride, when non-nil, substitutes the curve for
	// application i — the hook for collaborative-filtering estimates
	// (a nil return falls back to the policy's own construction).
	CurveOverride func(i int, p *workload.Profile) *workload.Curve
	// Objectives, when non-nil, replaces the paper's evenly-weighed
	// objective (1) with weighted terms and per-application performance
	// floors (SLOs) for the utility-aware policies. Must match
	// Profiles in length.
	Objectives []allocator.Objective
}

func (c Context) coordConfig() coordinator.Config {
	out := c.Coord
	out.HW = c.HW
	out.CapW = c.CapW
	return out
}

// Decision is a policy's output: the schedule to execute plus the curves
// and plan that produced it (for introspection and the paper's Fig. 8b/c
// style reporting).
type Decision struct {
	Kind     Kind
	Schedule coordinator.Schedule
	// Curves are the per-application utility curves the policy used.
	Curves []*workload.Curve
	// Plan is the space-mode apportioning (even when time/ESD mode was
	// chosen, it records what space coordination would have done).
	Plan allocator.Plan
}

// Plan runs policy kind against ctx and returns its decision.
func Plan(kind Kind, ctx Context) (Decision, error) {
	if len(ctx.Profiles) == 0 {
		return Decision{}, fmt.Errorf("policy: no applications")
	}
	if ctx.CapW <= 0 {
		return Decision{}, fmt.Errorf("policy: cap %.1f W is invalid", ctx.CapW)
	}
	curves, err := buildCurves(kind, ctx)
	if err != nil {
		return Decision{}, err
	}
	budget := ctx.HW.DynamicBudget(ctx.CapW)

	var plan allocator.Plan
	switch {
	case kind == UtilUnaware || kind == ServerResAware:
		plan, err = allocator.EqualSplit(curves, budget)
	default:
		plan, err = allocator.ApportionWeighted(curves, ctx.Objectives, budget, 0)
	}
	if err != nil {
		return Decision{}, err
	}

	dec := Decision{Kind: kind, Curves: curves, Plan: plan}
	cc := ctx.coordConfig()

	// Candidate 1: space coordination (R3a), if every share can run.
	var (
		space   coordinator.Schedule
		haveSpc bool
	)
	if sched, err := coordinator.Space(cc, plan); err == nil {
		space, haveSpc = sched, true
	}

	// Candidate 2: time coordination (R3b).
	fair := kind == UtilUnaware || kind == ServerResAware
	var (
		tm     coordinator.Schedule
		haveTm bool
	)
	if sched, err := coordinator.Time(cc, curves, fair); err == nil {
		tm, haveTm = sched, true
	}

	// Candidate 3: ESD coordination (R4), for the ESD-aware policy only.
	var (
		es     coordinator.Schedule
		haveES bool
	)
	if kind == AppResESDAware && ctx.Device != nil {
		if sched, err := coordinator.ESD(cc, curves, ctx.Device); err == nil {
			es, haveES = sched, true
		}
	}

	switch {
	case haveES && (!haveSpc || es.TotalPerf > space.TotalPerf*spaceMargin) &&
		(!haveTm || es.TotalPerf >= tm.TotalPerf):
		dec.Schedule = es
	case haveSpc && (!haveTm || tm.TotalPerf <= space.TotalPerf*spaceMargin):
		dec.Schedule = space
	case haveTm:
		dec.Schedule = tm
	case haveSpc:
		dec.Schedule = space
	default:
		return Decision{}, fmt.Errorf("policy: %v found no feasible schedule under %.1f W", kind, ctx.CapW)
	}
	return dec, nil
}

// buildCurves constructs each application's utility curve as the policy
// kind sees it.
func buildCurves(kind Kind, ctx Context) ([]*workload.Curve, error) {
	curves := make([]*workload.Curve, len(ctx.Profiles))
	var avg *workload.Curve
	if kind == ServerResAware {
		if ctx.Library == nil {
			return nil, fmt.Errorf("policy: Server+Res-Aware needs the application library")
		}
		avg = workload.AverageCurve(ctx.HW, ctx.Library.Apps())
	}
	for i, p := range ctx.Profiles {
		if ctx.CurveOverride != nil {
			if c := ctx.CurveOverride(i, p); c != nil {
				curves[i] = c
				continue
			}
		}
		switch kind {
		case UtilUnaware, AppAware:
			curves[i] = workload.RAPLCurve(ctx.HW, p)
		case ServerResAware:
			curves[i] = workload.ShapedCurve(ctx.HW, p, avg)
		case AppResAware, AppResESDAware:
			curves[i] = workload.OptimalCurve(ctx.HW, p)
		default:
			return nil, fmt.Errorf("policy: unknown kind %v", kind)
		}
	}
	return curves, nil
}
