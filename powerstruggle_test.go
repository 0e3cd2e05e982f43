package powerstruggle

import (
	"math"
	"testing"
)

func newTestServer(t *testing.T) *Server {
	t.Helper()
	srv, err := NewServer(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestServerValidation(t *testing.T) {
	cfg := Defaults()
	cfg.Platform.Sockets = 0
	if _, err := NewServer(cfg); err == nil {
		t.Error("invalid platform accepted")
	}
	srv := newTestServer(t)
	if err := srv.SetCap(0); err == nil {
		t.Error("zero cap accepted")
	}
	if err := srv.Admit("not-a-benchmark"); err == nil {
		t.Error("unknown application accepted")
	}
	if err := srv.AdmitProfile(nil); err == nil {
		t.Error("nil profile accepted")
	}
	if _, err := srv.Run(AppResAware, 10); err == nil {
		t.Error("run without applications accepted")
	}
}

func TestQuickstartFlow(t *testing.T) {
	srv := newTestServer(t)
	if len(srv.Apps()) != 12 {
		t.Fatalf("%d available applications, want 12", len(srv.Apps()))
	}
	if err := srv.SetCap(100); err != nil {
		t.Fatal(err)
	}
	for _, a := range []string{"STREAM", "kmeans"} {
		if err := srv.Admit(a); err != nil {
			t.Fatal(err)
		}
	}
	res, err := srv.Run(AppResAware, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.CapViolations != 0 {
		t.Fatalf("%d cap violations", res.CapViolations)
	}
	if res.MaxGridW > 100 {
		t.Fatalf("peak grid %g over the cap", res.MaxGridW)
	}
	if res.TotalPerf <= 0 || res.TotalPerf > 2 {
		t.Fatalf("total perf %g out of range", res.TotalPerf)
	}
	if len(res.AppPerf) != 2 || len(res.AppBudgetW) != 2 {
		t.Fatalf("result shape: %v / %v", res.AppPerf, res.AppBudgetW)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no timeline samples")
	}
	if res.Mode != "space" {
		t.Errorf("mode %q at a loose cap, want space", res.Mode)
	}

	// Plan without running.
	sched, err := srv.Plan(UtilUnaware)
	if err != nil {
		t.Fatal(err)
	}
	if sched.TotalPerf <= 0 {
		t.Error("plan predicts no performance")
	}

	srv.Reset()
	if _, err := srv.Run(AppResAware, 1); err == nil {
		t.Error("run after Reset accepted")
	}
}

func TestPolicyOrderingThroughFacade(t *testing.T) {
	run := func(p Policy, capW float64) float64 {
		srv := newTestServer(t)
		if err := srv.SetCap(capW); err != nil {
			t.Fatal(err)
		}
		for _, a := range []string{"X264", "SSSP"} {
			if err := srv.Admit(a); err != nil {
				t.Fatal(err)
			}
		}
		res, err := srv.Run(p, 15)
		if err != nil {
			t.Fatal(err)
		}
		if res.CapViolations != 0 {
			t.Fatalf("%v at %g W: %d violations", p, capW, res.CapViolations)
		}
		return res.TotalPerf
	}
	if uu, ar := run(UtilUnaware, 100), run(AppResAware, 100); ar <= uu {
		t.Errorf("App+Res-Aware (%.3f) not ahead of Util-Unaware (%.3f) at 100 W", ar, uu)
	}
	if ar, es := run(AppResAware, 80), run(AppResESDAware, 80); es <= ar {
		t.Errorf("ESD awareness (%.3f) not ahead (%.3f) at 80 W", es, ar)
	}
}

func TestMixesExported(t *testing.T) {
	if len(Mixes()) != 15 {
		t.Errorf("%d mixes exported, want 15", len(Mixes()))
	}
}

func TestCustomProfileAdmission(t *testing.T) {
	srv := newTestServer(t)
	base, err := srv.Library().App("ferret")
	if err != nil {
		t.Fatal(err)
	}
	custom := *base
	custom.Name = "my-service"
	if err := srv.AdmitProfile(&custom); err != nil {
		t.Fatal(err)
	}
	if err := srv.SetCap(90); err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run(AppResAware, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPerf <= 0 {
		t.Error("custom profile made no progress")
	}
}

func TestCriticalAdmissionHonorsSLO(t *testing.T) {
	srv := newTestServer(t)
	if err := srv.SetCap(100); err != nil {
		t.Fatal(err)
	}
	// kmeans is latency-critical with a 0.75 floor; STREAM best-effort.
	if err := srv.Admit("STREAM"); err != nil {
		t.Fatal(err)
	}
	if err := srv.AdmitCritical("kmeans", 2, 0.75); err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run(AppResAware, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.AppPerf[1]+0.02 < 0.75 {
		t.Errorf("SLO floor violated: kmeans at %.3f, floor 0.75", res.AppPerf[1])
	}
	if res.CapViolations != 0 {
		t.Errorf("%d cap violations with SLOs", res.CapViolations)
	}

	// Compare against the best-effort split: the floor must raise
	// kmeans' share.
	free := newTestServer(t)
	_ = free.SetCap(100)
	_ = free.Admit("STREAM")
	_ = free.Admit("kmeans")
	freeRes, err := free.Run(AppResAware, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.AppBudgetW[1] < freeRes.AppBudgetW[1]-0.5 {
		t.Errorf("SLO did not raise the critical share: %.1f vs %.1f W",
			res.AppBudgetW[1], freeRes.AppBudgetW[1])
	}
}

func TestCriticalAdmissionValidation(t *testing.T) {
	srv := newTestServer(t)
	if err := srv.AdmitCritical("kmeans", 0, 0); err == nil {
		t.Error("zero weight accepted")
	}
	if err := srv.AdmitCritical("kmeans", 1, 1.5); err == nil {
		t.Error("floor above 1 accepted")
	}
	if err := srv.AdmitCritical("unknown", 1, 0.5); err == nil {
		t.Error("unknown application accepted")
	}
}

// NaN slips past every ordered comparison, so an unguarded NaN weight
// or floor would be admitted and later read as a false infeasibility.
func TestCriticalAdmissionRejectsNonFinite(t *testing.T) {
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
		srv := newTestServer(t)
		if err := srv.AdmitCritical("STREAM", tc.weight, tc.floor); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

func TestInfeasibleSLOSurfacesAsError(t *testing.T) {
	srv := newTestServer(t)
	if err := srv.SetCap(80); err != nil {
		t.Fatal(err)
	}
	if err := srv.AdmitCritical("STREAM", 1, 0.95); err != nil {
		t.Fatal(err)
	}
	if err := srv.AdmitCritical("kmeans", 1, 0.95); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run(AppResAware, 5); err == nil {
		t.Error("infeasible SLOs at 80 W did not error")
	}
}
