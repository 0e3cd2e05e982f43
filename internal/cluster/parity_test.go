package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// sameSplit reports whether two apportionings match bit for bit.
func sameSplit(gotB, wantB []float64, gotP, wantP float64) bool {
	if len(gotB) != len(wantB) || math.Float64bits(gotP) != math.Float64bits(wantP) {
		return false
	}
	for i := range gotB {
		if math.Float64bits(gotB[i]) != math.Float64bits(wantB[i]) {
			return false
		}
	}
	return true
}

// TestApportionCurvesMatchesReference holds the cold kernel path
// (ApportionCurves, a fresh Apportioner) bit-identical to the
// pre-kernel loop on on-grid curves, from "floors don't fit" to caps
// past every member's saturation point.
func TestApportionCurvesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		floorW := 10 + 2*float64(rng.Intn(30))
		curves := make([][]CapPoint, 1+rng.Intn(10))
		for i := range curves {
			curves[i] = randCurve(rng, floorW)
		}
		n := float64(len(curves))
		capW := floorW*n*0.5 + rng.Float64()*floorW*n*3
		gotB, gotP, gotG := ApportionCurves(capW, floorW, curves)
		wantB, wantP, wantG := referenceApportionCurves(capW, floorW, curves)
		if !sameSplit(gotB, wantB, gotP, wantP) || math.Float64bits(gotG) != math.Float64bits(wantG) {
			t.Fatalf("trial %d (cap %g, floor %g): got %v (%v, %v), reference %v (%v, %v)",
				trial, capW, floorW, gotB, gotP, gotG, wantB, wantP, wantG)
		}
	}
}

// TestApportionShardsMatchesReference holds the global tier's kernel
// path bit-identical to its pre-kernel loop over shard rollups with
// heterogeneous floors, thinned trunk curves, curveless shards, and
// every grid regime: the default bound, the raised one-level bound,
// and coarse ones.
func TestApportionShardsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		shards := make([]ShardCurve, 1+rng.Intn(8))
		var floors float64
		for s := range shards {
			floorW := 30 + 2*float64(rng.Intn(20))
			members := make([][]CapPoint, 1+rng.Intn(6))
			for i := range members {
				members[i] = randCurve(rng, floorW)
			}
			shards[s].FloorW = floorW * float64(len(members))
			floors += shards[s].FloorW
			if rng.Intn(8) > 0 {
				shards[s].Points = DownsampleCurve(RollupCurves(floorW, members), []int{0, 2, 17, 64}[rng.Intn(4)])
			}
		}
		capW := floors*0.5 + rng.Float64()*floors*2
		for _, maxLevels := range []int{0, 2, 3, 64} {
			gotB, gotP := ApportionShards(capW, shards, maxLevels)
			wantB, wantP := referenceApportionShards(capW, shards, maxLevels)
			if !sameSplit(gotB, wantB, gotP, wantP) {
				t.Fatalf("trial %d (cap %g, maxLevels %d): got %v (%v), reference %v (%v)",
					trial, capW, maxLevels, gotB, gotP, wantB, wantP)
			}
		}
	}
}

// wireCurve builds a curve docs/WIRE.md accepts but the 2 W grid does
// not describe: strictly increasing caps 0.5–10 W apart, starting
// below, at, or above floorW, with non-decreasing perf.
func wireCurve(rng *rand.Rand, floorW float64) []CapPoint {
	capW := floorW
	switch rng.Intn(3) {
	case 0:
		capW -= 1 + rng.Float64()*20
	case 2:
		capW += 1 + rng.Float64()*30
	}
	out := make([]CapPoint, 1+rng.Intn(30))
	perf := rng.Float64() * 0.2
	for k := range out {
		if k > 0 {
			capW += 0.5 + rng.Float64()*9.5
		}
		perf += rng.Float64() * 0.3
		out[k] = CapPoint{CapW: capW, Perf: perf, GridW: capW * rng.Float64()}
	}
	return out
}

// TestOffGridCurvesNeverOverspend is the cap-safety property of the
// one pricing rule: whatever spacing a WIRE-valid curve has and
// wherever it starts relative to the floor, the flat tier's budgets sum
// to at most the quantized cap, cold or cached, and every rollup point
// offers at least the watts its member split takes.
func TestOffGridCurvesNeverOverspend(t *testing.T) {
	// The regression the property caught: 10 W-spaced curves priced as
	// if 2 W apart granted 150 W under a 110 W cap.
	tenW := []CapPoint{{CapW: 50, Perf: 0}, {CapW: 60, Perf: 0.3}, {CapW: 70, Perf: 0.5}, {CapW: 80, Perf: 0.6}}
	if b, _, _ := ApportionCurves(110, 50, [][]CapPoint{tenW, tenW}); sum(b) > 110 {
		t.Fatalf("ApportionCurves(110, 50, 10 W-spaced curves) = %v, %g W over the cap", b, sum(b))
	}

	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		floorW := 20 + 2*float64(rng.Intn(20))
		curves := make([][]CapPoint, 1+rng.Intn(8))
		for i := range curves {
			curves[i] = wireCurve(rng, floorW)
		}
		var a Apportioner
		for step := 0; step < 20; step++ {
			if rng.Intn(3) == 0 {
				curves[rng.Intn(len(curves))] = wireCurve(rng, floorW)
			}
			n := float64(len(curves))
			capW := floorW*n*0.5 + rng.Float64()*floorW*n*4
			capQ := math.Floor(capW/ServerCapStepW) * ServerCapStepW
			cold, _, _ := ApportionCurves(capW, floorW, curves)
			if got := sum(cold); got > capQ+1e-9 {
				t.Fatalf("trial %d step %d: ApportionCurves budgets %v sum to %g W over the %g W quantized cap",
					trial, step, cold, got, capQ)
			}
			cached, _, _ := a.Apportion(capW, floorW, curves)
			if got := sum(cached); got > capQ+1e-9 {
				t.Fatalf("trial %d step %d: Apportioner budgets %v sum to %g W over the %g W quantized cap",
					trial, step, cached, got, capQ)
			}

			// Floors are even, so every rollup point sits on the cap grid
			// and apportioning exactly its cap backtracks its own level.
			for j, p := range a.Rollup(floorW, curves, 0) {
				split, perf, _ := a.Apportion(p.CapW, floorW, curves)
				if math.Abs(perf-p.Perf) > 1e-9 {
					t.Fatalf("trial %d step %d: rollup point %d perf %v, its split delivers %v",
						trial, step, j, p.Perf, perf)
				}
				if got := sum(split); got > p.CapW+1e-9 {
					t.Fatalf("trial %d step %d: rollup point %d offers %g W, its member split %v takes %g W",
						trial, step, j, p.CapW, split, got)
				}
			}
		}
	}
}
