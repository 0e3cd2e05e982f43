package cluster

import (
	"math/rand"
	"testing"
)

// randCurve builds a plausible cap-utility curve: strictly increasing
// caps on the DP grid, non-decreasing perf, arbitrary grid draw.
func randCurve(rng *rand.Rand, floorW float64) []CapPoint {
	n := 1 + rng.Intn(40)
	out := make([]CapPoint, n)
	perf := rng.Float64() * 0.2
	for k := 0; k < n; k++ {
		perf += rng.Float64() * 0.3
		out[k] = CapPoint{
			CapW:  floorW + float64(k)*ServerCapStepW,
			Perf:  perf,
			GridW: floorW + rng.Float64()*float64(k)*ServerCapStepW,
		}
	}
	return out
}

// TestApportionerMatchesFullDP holds the incremental apportioner
// bit-identical to the pre-kernel ApportionCurves loop
// (referenceApportionCurves) through a randomized interval
// sequence: caps move every step, and a random subset of member curves
// (often none, sometimes all) changes between steps — the exact access
// pattern the coordinator generates once live daemons learn online.
func TestApportionerMatchesFullDP(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const floorW = 40.0
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(12)
		curves := make([][]CapPoint, n)
		for i := range curves {
			curves[i] = randCurve(rng, floorW)
		}
		var inc Apportioner
		for step := 0; step < 30; step++ {
			// Mutate a random subset: mostly nobody, sometimes a tail,
			// occasionally everyone (a membership churn analogue).
			switch rng.Intn(4) {
			case 1:
				i := rng.Intn(n)
				curves[i] = randCurve(rng, floorW)
			case 2:
				for i := rng.Intn(n); i < n; i++ {
					curves[i] = randCurve(rng, floorW)
				}
			}
			// Caps span from "floors don't fit" to generous.
			capW := floorW*float64(n)*0.5 + rng.Float64()*floorW*float64(n)*2.5
			wantB, wantP, wantG := referenceApportionCurves(capW, floorW, curves)
			gotB, gotP, gotG := inc.Apportion(capW, floorW, curves)
			if gotP != wantP || gotG != wantG {
				t.Fatalf("trial %d step %d: perf/grid (%v, %v), full DP (%v, %v)",
					trial, step, gotP, gotG, wantP, wantG)
			}
			for i := range wantB {
				if gotB[i] != wantB[i] {
					t.Fatalf("trial %d step %d: member %d budget %v, full DP %v",
						trial, step, i, gotB[i], wantB[i])
				}
			}
		}
	}
}

// TestApportionerIncrementalReuse pins the fast path's whole point:
// a cap-only change recomputes zero member layers, and k tail changes
// recompute exactly k.
func TestApportionerIncrementalReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const floorW, n = 40.0, 16
	curves := make([][]CapPoint, n)
	for i := range curves {
		curves[i] = randCurve(rng, floorW)
	}
	var inc Apportioner
	inc.Apportion(900, floorW, curves)
	if got := inc.LastRecomputed(); got != n {
		t.Fatalf("cold start recomputed %d layers, want %d", got, n)
	}
	// Cap moves alone: reconstruction only. A higher cap extends the
	// clean prefix's columns in place without counting as a rebuild.
	for _, capW := range []float64{700, 1100, 864, 1300} {
		inc.Apportion(capW, floorW, curves)
		if got := inc.LastRecomputed(); got != 0 {
			t.Fatalf("cap-only change to %g W recomputed %d layers, want 0", capW, got)
		}
	}
	// k changed tail members: exactly k layers rebuilt.
	for _, k := range []int{1, 3} {
		for i := n - k; i < n; i++ {
			curves[i] = randCurve(rng, floorW)
		}
		inc.Apportion(1000, floorW, curves)
		if got := inc.LastRecomputed(); got != k {
			t.Fatalf("%d tail changes recomputed %d layers, want %d", k, got, k)
		}
	}
	// And it all stayed bit-identical after the churn.
	wantB, _, _ := ApportionCurves(1000, floorW, curves)
	gotB, _, _ := inc.Apportion(1000, floorW, curves)
	for i := range wantB {
		if gotB[i] != wantB[i] {
			t.Fatalf("member %d budget %v, full DP %v", i, gotB[i], wantB[i])
		}
	}
}
