package allocator

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"powerstruggle/internal/simhw"
	"powerstruggle/internal/workload"
)

// samePlan reports whether two plans match allocation for allocation,
// with TotalPerf and SpentW compared bit for bit.
func samePlan(a, b Plan) bool {
	return reflect.DeepEqual(a.Allocs, b.Allocs) &&
		math.Float64bits(a.TotalPerf) == math.Float64bits(b.TotalPerf) &&
		math.Float64bits(a.SpentW) == math.Float64bits(b.SpentW)
}

// sameOutcome reports whether two solves agree: the same error text
// (and ErrInfeasible wrapping), or bitwise-equal plans.
func sameOutcome(got Plan, gotErr error, want Plan, wantErr error) bool {
	if gotErr != nil || wantErr != nil {
		return gotErr != nil && wantErr != nil && gotErr.Error() == wantErr.Error() &&
			errors.Is(gotErr, ErrInfeasible) == errors.Is(wantErr, ErrInfeasible)
	}
	return samePlan(got, want)
}

// TestApportionMatchesReferenceLoops holds the kernel-backed Apportion
// and ApportionWeighted bit-identical to their pre-kernel loops over
// seeded library curves (the policies' optimal and RAPL-shaped ones),
// budgets from negative to generous, several DP steps, and random
// weights and SLO floors, infeasible ones included.
func TestApportionMatchesReferenceLoops(t *testing.T) {
	cfg := simhw.DefaultConfig()
	lib, err := workload.NewLibrary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pool []*workload.Curve
	for _, name := range lib.Names() {
		p := lib.MustApp(name)
		pool = append(pool, workload.OptimalCurve(cfg, p), workload.RAPLCurve(cfg, p))
	}
	rng := rand.New(rand.NewSource(13))
	steps := []float64{0, 0.25, 0.5, 1, 2}
	var feasible, infeasible int
	for trial := 0; trial < 400; trial++ {
		curves := make([]*workload.Curve, 1+rng.Intn(4))
		objs := make([]Objective, len(curves))
		for i := range curves {
			curves[i] = pool[rng.Intn(len(pool))]
			objs[i].Weight = float64(rng.Intn(4)) * rng.Float64()
			if rng.Intn(2) == 0 {
				objs[i].FloorPerf = rng.Float64()
			}
		}
		budget := rng.Float64()*80 - 5
		stepW := steps[rng.Intn(len(steps))]

		got, gotErr := Apportion(curves, budget, stepW)
		want, wantErr := referenceApportion(curves, budget, stepW)
		if !sameOutcome(got, gotErr, want, wantErr) {
			t.Fatalf("trial %d: Apportion(%g W, step %g) = %+v, %v; reference %+v, %v",
				trial, budget, stepW, got, gotErr, want, wantErr)
		}
		got, gotErr = ApportionWeighted(curves, objs, budget, stepW)
		want, wantErr = referenceApportionWeighted(curves, objs, budget, stepW)
		if !sameOutcome(got, gotErr, want, wantErr) {
			t.Fatalf("trial %d: ApportionWeighted(%+v, %g W, step %g) = %+v, %v; reference %+v, %v",
				trial, objs, budget, stepW, got, gotErr, want, wantErr)
		}
		if errors.Is(wantErr, ErrInfeasible) {
			infeasible++
		} else if wantErr == nil {
			feasible++
		}
	}
	t.Logf("%d feasible and %d infeasible weighted solves", feasible, infeasible)
	if feasible < 100 || infeasible < 20 {
		t.Fatal("the seeded floors no longer exercise both feasible and infeasible solves")
	}
}
