package accountant

import (
	"math"
	"testing"

	"powerstruggle/internal/policy"
	"powerstruggle/internal/simhw"
	"powerstruggle/internal/workload"
)

func newSim(t *testing.T, pol policy.Kind, capW float64) (*Sim, *workload.Library) {
	t.Helper()
	hw := simhw.DefaultConfig()
	lib, err := workload.NewLibrary(hw)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(Config{
		HW: hw, Policy: pol, Library: lib,
		InitialCapW: 100, ReallocSeconds: 0.8, SampleEvery: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if capW > 0 {
		sim.ex.SetCap(capW)
	}
	return sim, lib
}

func TestNewSimValidation(t *testing.T) {
	hw := simhw.DefaultConfig()
	if _, err := NewSim(Config{HW: hw, InitialCapW: 100}); err == nil {
		t.Error("sim without a library accepted")
	}
	lib, _ := workload.NewLibrary(hw)
	if _, err := NewSim(Config{HW: hw, Library: lib}); err == nil {
		t.Error("sim without a cap accepted")
	}
}

func TestArrivalTriggersE2AndReallocates(t *testing.T) {
	sim, lib := newSim(t, policy.AppResAware, 0)
	if err := sim.AddArrival(0, lib.MustApp("SSSP"), 0); err != nil {
		t.Fatal(err)
	}
	if err := sim.AddArrival(5, lib.MustApp("X264"), 0); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	events := sim.Events()
	var arrivals int
	for _, e := range events {
		if e.Kind == EvArrival {
			arrivals++
		}
	}
	if arrivals != 2 {
		t.Fatalf("%d arrival events, want 2", arrivals)
	}
	// Before the second arrival SSSP runs alone near its uncapped draw;
	// after re-allocation both run and their draws shrink to fit.
	samples := sim.Samples()
	var before, after *AppSample
	for i := range samples {
		s := &samples[i]
		if s.T > 4 && s.T < 5 && before == nil {
			before = s
		}
		if s.T > 7 && after == nil {
			after = s
		}
	}
	if before == nil || after == nil {
		t.Fatal("missing samples around the arrival")
	}
	if len(before.Apps) != 1 || before.Apps[0].PowerW <= 0 {
		t.Errorf("before arrival: %+v", before.Apps)
	}
	if len(after.Apps) != 2 {
		t.Fatalf("after arrival: %d applications", len(after.Apps))
	}
	if after.Apps[0].PowerW >= before.Apps[0].PowerW {
		t.Errorf("incumbent's power did not shrink: %.1f -> %.1f",
			before.Apps[0].PowerW, after.Apps[0].PowerW)
	}
	if after.Apps[1].PowerW <= 0 {
		t.Error("newcomer got no power after re-allocation")
	}
	if after.GridW > 100+1e-6 {
		t.Errorf("grid draw %.1f over the cap after re-allocation", after.GridW)
	}
}

func TestReallocationLatencyDelaysNewPlan(t *testing.T) {
	sim, lib := newSim(t, policy.AppResAware, 0)
	_ = sim.AddArrival(0, lib.MustApp("kmeans"), 0)
	if err := sim.Run(2); err != nil {
		t.Fatal(err)
	}
	for _, s := range sim.Samples() {
		if s.T < 0.7 && len(s.Apps) == 1 && s.Apps[0].PowerW > 0 {
			t.Fatalf("application ran at t=%.2f, inside the 0.8 s calibration window", s.T)
		}
		if s.T > 1.0 && len(s.Apps) == 1 && s.Apps[0].PowerW <= 0 {
			t.Fatalf("application still idle at t=%.2f", s.T)
		}
	}
}

func TestDepartureTriggersE3AndUncaps(t *testing.T) {
	sim, lib := newSim(t, policy.AppResAware, 0)
	pr := lib.MustApp("PageRank")
	// Finite work: departs after roughly 6 busy seconds.
	_ = sim.AddArrival(0, pr, pr.NoCapRate(simhw.DefaultConfig())*4)
	_ = sim.AddArrival(0, lib.MustApp("kmeans"), 0)
	if err := sim.Run(20); err != nil {
		t.Fatal(err)
	}
	var departed bool
	for _, e := range sim.Events() {
		if e.Kind == EvDeparture && e.App == "PageRank" {
			departed = true
		}
	}
	if !departed {
		t.Fatal("no departure event for PageRank")
	}
	// After departure kmeans should hold the whole dynamic budget.
	last := sim.Samples()[len(sim.Samples())-1]
	if len(last.Apps) != 1 || last.Apps[0].Name != "kmeans" {
		t.Fatalf("final state: %+v", last.Apps)
	}
	if last.Apps[0].PowerW < 20 {
		t.Errorf("kmeans draws only %.1f W after the departure freed the budget", last.Apps[0].PowerW)
	}
}

func TestCapChangeTriggersE1(t *testing.T) {
	sim, lib := newSim(t, policy.AppResAware, 0)
	_ = sim.AddArrival(0, lib.MustApp("STREAM"), 0)
	_ = sim.AddArrival(0, lib.MustApp("kmeans"), 0)
	if err := sim.AddCapChange(5, 80); err != nil {
		t.Fatal(err)
	}
	if err := sim.AddCapChange(-1, 0); err == nil {
		t.Error("invalid cap change accepted")
	}
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	var capEvent bool
	for _, e := range sim.Events() {
		if e.Kind == EvCapChange && e.CapW == 80 {
			capEvent = true
		}
	}
	if !capEvent {
		t.Fatal("no E1 event for the cap change")
	}
	// Grid draw must respect the new cap after re-allocation settles.
	for _, s := range sim.Samples() {
		if s.T > 6.5 && s.GridW > 80+1e-6 {
			t.Fatalf("grid %.1f W at t=%.1f under the 80 W cap", s.GridW, s.T)
		}
	}
}

func TestPhaseChangeTriggersE4(t *testing.T) {
	hw := simhw.DefaultConfig()
	lib, _ := workload.NewLibrary(hw)
	// An application that abruptly halves its activity after 4 busy
	// seconds: its draw diverges from the allocated budget.
	phased, err := lib.WithPhases("kmeans", []workload.Phase{
		{Seconds: 4, MemScale: 1, ActivityScale: 1},
		{Seconds: 30, MemScale: 1, ActivityScale: 0.35},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(Config{
		HW: hw, Policy: policy.AppResAware, Library: lib,
		InitialCapW: 100, ReallocSeconds: 0.4,
		PollSeconds: 0.2, DriftFrac: 0.2, SampleEvery: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = sim.AddArrival(0, phased, 0)
	_ = sim.AddArrival(0, lib.MustApp("STREAM"), 0)
	if err := sim.Run(12); err != nil {
		t.Fatal(err)
	}
	var e4 bool
	for _, e := range sim.Events() {
		if e.Kind == EvPhaseChange {
			e4 = true
		}
	}
	if !e4 {
		t.Fatal("activity collapse did not trigger E4")
	}
}

func TestEventKindStrings(t *testing.T) {
	for _, k := range []EventKind{EvCapChange, EvArrival, EvDeparture, EvPhaseChange} {
		if k.String() == "" || k.String() == "EventKind(?)" {
			t.Errorf("event kind %d has no name", k)
		}
	}
}

func TestSamplesHaveConsistentShape(t *testing.T) {
	sim, lib := newSim(t, policy.UtilUnaware, 0)
	_ = sim.AddArrival(0, lib.MustApp("ferret"), 0)
	_ = sim.AddArrival(0, lib.MustApp("BFS"), 0)
	if err := sim.Run(5); err != nil {
		t.Fatal(err)
	}
	samples := sim.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples recorded")
	}
	prevT := math.Inf(-1)
	for _, s := range samples {
		if s.T <= prevT {
			t.Fatalf("samples not strictly ordered at t=%g", s.T)
		}
		prevT = s.T
		if s.CapW != 100 {
			t.Errorf("sample cap %g, want 100", s.CapW)
		}
		for _, a := range s.Apps {
			if a.Name == "" {
				t.Error("sample application without a name")
			}
		}
	}
}

func TestRecalibrationConvergesAfterPhaseChange(t *testing.T) {
	hw := simhw.DefaultConfig()
	lib, _ := workload.NewLibrary(hw)
	phased, err := lib.WithPhases("kmeans", []workload.Phase{
		{Seconds: 4, MemScale: 1, ActivityScale: 1},
		{Seconds: 60, MemScale: 1, ActivityScale: 0.35},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(Config{
		HW: hw, Policy: policy.AppResAware, Library: lib,
		InitialCapW: 100, ReallocSeconds: 0.4,
		PollSeconds: 0.2, DriftFrac: 0.2, SampleEvery: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = sim.AddArrival(0, phased, 0)
	_ = sim.AddArrival(0, lib.MustApp("STREAM"), 0)
	if err := sim.Run(30); err != nil {
		t.Fatal(err)
	}
	var e4 int
	for _, e := range sim.Events() {
		if e.Kind == EvPhaseChange {
			e4++
		}
	}
	if e4 == 0 {
		t.Fatal("phase change never detected")
	}
	// Re-calibration must converge: the drift triggers a handful of
	// re-allocations, not one per poll (30 s / 0.2 s = 150 polls).
	if e4 > 6 {
		t.Errorf("%d E4 events in 30 s: re-calibration is not converging", e4)
	}
	// After settling, the allocation matches the phase's actual draw.
	last := sim.Samples()[len(sim.Samples())-1]
	for _, a := range last.Apps {
		if a.BudgetW > 0 && a.PowerW > 0 {
			if drift := a.PowerW/a.BudgetW - 1; drift > 0.25 || drift < -0.6 {
				t.Errorf("%s: settled draw %.1f W vs budget %.1f W", a.Name, a.PowerW, a.BudgetW)
			}
		}
	}
}

// A NaN weight used to be admitted and then surface as a false
// ErrInfeasible, silently degrading every SLO to best-effort.
func TestCriticalArrivalRejectsNonFinite(t *testing.T) {
	sim, lib := newSim(t, policy.AppResAware, 0)
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name          string
		weight, floor float64
	}{
		{"NaN weight", nan, 0},
		{"+Inf weight", inf, 0},
		{"-Inf weight", -inf, 0},
		{"NaN floor", 1, nan},
		{"+Inf floor", 1, inf},
		{"-Inf floor", 1, -inf},
	} {
		if err := sim.AddArrivalCritical(0, lib.MustApp("STREAM"), 0, tc.weight, tc.floor); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestCriticalArrivalHoldsFloorAndDegradesGracefully(t *testing.T) {
	sim, lib := newSim(t, policy.AppResAware, 0)
	// kmeans is latency-critical with a floor feasible at 100 W but not
	// at 80 W.
	if err := sim.AddArrivalCritical(0, lib.MustApp("kmeans"), 0, 2, 0.7); err != nil {
		t.Fatal(err)
	}
	if err := sim.AddArrival(0, lib.MustApp("STREAM"), 0); err != nil {
		t.Fatal(err)
	}
	if err := sim.AddCapChange(10, 80); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(20); err != nil {
		t.Fatal(err)
	}
	// Before the cap drop the floor holds.
	for _, s := range sim.Samples() {
		if s.T > 5 && s.T < 9.5 && len(s.Apps) == 2 {
			if s.Apps[0].Perf+0.02 < 0.7 {
				t.Fatalf("floor violated at t=%.1f: %.3f", s.T, s.Apps[0].Perf)
			}
		}
	}
	// After the drop the mediator degraded instead of stalling.
	var degraded bool
	for _, e := range sim.Events() {
		if e.Kind == EvSLODegraded {
			degraded = true
		}
	}
	if !degraded {
		t.Fatal("no SLO degradation event after the cap drop")
	}
	last := sim.Samples()[len(sim.Samples())-1]
	if last.GridW > 80+1e-6 {
		t.Errorf("grid %.1f W over the 80 W cap after degradation", last.GridW)
	}
	if len(last.Apps) != 2 {
		t.Fatalf("applications lost after degradation: %d", len(last.Apps))
	}
}

func TestAddArrivalCriticalValidation(t *testing.T) {
	sim, lib := newSim(t, policy.AppResAware, 0)
	if err := sim.AddArrivalCritical(0, lib.MustApp("kmeans"), 0, 0, 0); err == nil {
		t.Error("zero weight accepted")
	}
	if err := sim.AddArrivalCritical(0, lib.MustApp("kmeans"), 0, 1, 2); err == nil {
		t.Error("floor above 1 accepted")
	}
}
