package allocator

import (
	"errors"
	"math"
	"testing"

	"powerstruggle/internal/telemetry"
	"powerstruggle/internal/workload"
)

func TestWeightedValidation(t *testing.T) {
	_, curves, _ := testCurves(t, "STREAM", "kmeans")
	if _, err := ApportionWeighted(nil, nil, 10, 0); err == nil {
		t.Error("empty inputs accepted")
	}
	if _, err := ApportionWeighted(curves, []Objective{{Weight: 1}}, 10, 0); err == nil {
		t.Error("mismatched objective count accepted")
	}
	if _, err := ApportionWeighted(curves, []Objective{{Weight: -1}, {Weight: 1}}, 10, 0); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := ApportionWeighted(curves, []Objective{{Weight: 1, FloorPerf: 2}, {Weight: 1}}, 10, 0); err == nil {
		t.Error("floor above 1 accepted")
	}
}

// NaN fails every ordered comparison, so an unguarded NaN weight scored
// every level NaN and surfaced as a false ErrInfeasible.
func TestWeightedRejectsNonFinite(t *testing.T) {
	_, curves, _ := testCurves(t, "STREAM", "kmeans")
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		obj  Objective
	}{
		{"NaN weight", Objective{Weight: nan}},
		{"+Inf weight", Objective{Weight: inf}},
		{"-Inf weight", Objective{Weight: -inf}},
		{"NaN floor", Objective{Weight: 1, FloorPerf: nan}},
		{"+Inf floor", Objective{Weight: 1, FloorPerf: inf}},
		{"-Inf floor", Objective{Weight: 1, FloorPerf: -inf}},
	} {
		_, err := ApportionWeighted(curves, []Objective{tc.obj, {Weight: 1}}, 20, 0)
		if err == nil || errors.Is(err, ErrInfeasible) {
			t.Errorf("%s: got %v, want a validation error", tc.name, err)
		}
	}
}

func TestWeightedReducesToUnweighted(t *testing.T) {
	_, curves, _ := testCurves(t, "STREAM", "kmeans")
	even := []Objective{{Weight: 1}, {Weight: 1}}
	for _, budget := range []float64{10, 20, 30} {
		w, err := ApportionWeighted(curves, even, budget, 0)
		if err != nil {
			t.Fatal(err)
		}
		u, err := Apportion(curves, budget, 0)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(w.TotalPerf-u.TotalPerf) > 1e-9 {
			t.Errorf("budget %g: weighted-with-unit-weights %g vs unweighted %g",
				budget, w.TotalPerf, u.TotalPerf)
		}
	}
}

func TestWeightsShiftTheSplit(t *testing.T) {
	_, curves, _ := testCurves(t, "STREAM", "kmeans")
	const budget = 24.0
	even, err := ApportionWeighted(curves, []Objective{{Weight: 1}, {Weight: 1}}, budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Heavily favoring application 1 must not reduce its share.
	skew, err := ApportionWeighted(curves, []Objective{{Weight: 5}, {Weight: 1}}, budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	if skew.Allocs[0].BudgetW < even.Allocs[0].BudgetW {
		t.Errorf("5x weight reduced the share: %g -> %g",
			even.Allocs[0].BudgetW, skew.Allocs[0].BudgetW)
	}
	if skew.Allocs[0].Perf() < even.Allocs[0].Perf() {
		t.Errorf("5x weight reduced performance: %g -> %g",
			even.Allocs[0].Perf(), skew.Allocs[0].Perf())
	}
}

func TestFloorsAreHonored(t *testing.T) {
	_, curves, _ := testCurves(t, "STREAM", "kmeans")
	const budget = 20.0
	// Give the latency-critical application (kmeans) a hard floor.
	objs := []Objective{{Weight: 1}, {Weight: 1, FloorPerf: 0.6}}
	plan, err := ApportionWeighted(curves, objs, budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Allocs[1].Perf(); got+1e-9 < 0.6 {
		t.Errorf("floor violated: %g < 0.6", got)
	}
	// Without the floor the best-effort split gives kmeans less.
	free, err := Apportion(curves, budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalPerf > free.TotalPerf+1e-9 {
		t.Errorf("constrained plan (%g) beats unconstrained (%g)", plan.TotalPerf, free.TotalPerf)
	}
}

func TestInfeasibleFloors(t *testing.T) {
	_, curves, _ := testCurves(t, "STREAM", "kmeans")
	// Both demanding near-full performance under a tiny budget.
	objs := []Objective{{Weight: 1, FloorPerf: 0.95}, {Weight: 1, FloorPerf: 0.95}}
	_, err := ApportionWeighted(curves, objs, 15, 0)
	if err == nil {
		t.Fatal("infeasible floors accepted")
	}
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("error %v does not wrap ErrInfeasible", err)
	}
}

func TestWeightedSpendsWithinBudget(t *testing.T) {
	cfg, _, _ := testCurves(t, "STREAM")
	lib, _ := workload.NewLibrary(cfg)
	curves := []*workload.Curve{
		workload.OptimalCurve(cfg, lib.MustApp("X264")),
		workload.OptimalCurve(cfg, lib.MustApp("BFS")),
		workload.OptimalCurve(cfg, lib.MustApp("ferret")),
	}
	objs := []Objective{{Weight: 2, FloorPerf: 0.3}, {Weight: 1}, {Weight: 0.5, FloorPerf: 0.1}}
	for _, budget := range []float64{15, 25, 40} {
		plan, err := ApportionWeighted(curves, objs, budget, 0)
		if err != nil {
			t.Fatal(err)
		}
		if plan.SpentW > budget+1e-9 {
			t.Fatalf("budget %g: spent %g", budget, plan.SpentW)
		}
		for i, o := range objs {
			if o.FloorPerf > 0 && plan.Allocs[i].Perf()+1e-9 < o.FloorPerf {
				t.Fatalf("budget %g: application %d below floor", budget, i)
			}
		}
	}
}

func TestWeightedMatchesBruteForceWithFloors(t *testing.T) {
	_, curves, _ := testCurves(t, "STREAM", "kmeans")
	const step = 0.5
	objs := []Objective{{Weight: 2, FloorPerf: 0.3}, {Weight: 1, FloorPerf: 0.4}}
	for _, budget := range []float64{16, 22, 28} {
		plan, err := ApportionWeighted(curves, objs, budget, step)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force on the same grid.
		best := math.Inf(-1)
		for b0 := 0.0; b0 <= budget+1e-9; b0 += step {
			p0 := curves[0].PerfAt(b0)
			p1 := curves[1].PerfAt(budget - b0)
			if p0+1e-12 < objs[0].FloorPerf || p1+1e-12 < objs[1].FloorPerf {
				continue
			}
			if v := objs[0].Weight*p0 + objs[1].Weight*p1; v > best {
				best = v
			}
		}
		got := objs[0].Weight*plan.Allocs[0].Perf() + objs[1].Weight*plan.Allocs[1].Perf()
		if math.Abs(got-best) > 1e-9 {
			t.Errorf("budget %g: DP weighted objective %g, brute force %g", budget, got, best)
		}
	}
}

// Every DP solve — weighted or not — counts under solver="dp", so the
// SLO-aware plans show up in ps_allocator_solves_total and
// ps_allocator_solve_seconds.
func TestWeightedSolvesAreObserved(t *testing.T) {
	_, curves, _ := testCurves(t, "STREAM", "kmeans")
	reg := telemetry.NewRegistry()
	EnableTelemetry(reg)
	defer EnableTelemetry(nil)
	solves := reg.CounterVec("ps_allocator_solves_total", "", "solver").With("dp")
	seconds := reg.HistogramVec("ps_allocator_solve_seconds", "", telemetry.LatencyBuckets(), "solver").With("dp")

	objs := []Objective{{Weight: 2, FloorPerf: 0.3}, {Weight: 1}}
	if _, err := ApportionWeighted(curves, objs, 20, 0); err != nil {
		t.Fatal(err)
	}
	if got := solves.Value(); got != 1 {
		t.Fatalf("weighted solve counted %d times, want 1", got)
	}
	if _, err := Apportion(curves, 20, 0); err != nil {
		t.Fatal(err)
	}
	if got, n := solves.Value(), seconds.Count(); got != 2 || n != 2 {
		t.Fatalf("after an unweighted solve: %d solves, %d timings; want 2 and 2", got, n)
	}
}
