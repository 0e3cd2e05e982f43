package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// lineCurve samples a linear utility curve from floorW upward: point k
// caps at floorW + k*ServerCapStepW and yields perf proportional to
// the watts above the floor, saturating at points points.
func lineCurve(floorW float64, points int, perfPerW float64) []CapPoint {
	out := make([]CapPoint, points)
	for k := range out {
		w := floorW + float64(k)*ServerCapStepW
		out[k] = CapPoint{CapW: w, Perf: float64(k) * ServerCapStepW * perfPerW, GridW: w}
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// The rollup must agree with the flat DP: apportioning capW across the
// members directly and granting the shard capW against its rollup must
// deliver the same summed performance, because the rollup IS the flat
// DP's forward table.
func TestRollupMatchesFlatDP(t *testing.T) {
	floor := 40.0
	curves := [][]CapPoint{
		lineCurve(floor, 6, 0.010),
		lineCurve(floor, 9, 0.004),
		lineCurve(floor, 4, 0.020),
	}
	roll := RollupCurves(floor, curves)
	if roll == nil {
		t.Fatal("rollup of non-empty curves returned nil")
	}
	wantLevels := 1 + 5 + 8 + 3
	if len(roll) != wantLevels {
		t.Fatalf("rollup has %d points, want %d", len(roll), wantLevels)
	}
	if roll[0].CapW != floor*3 {
		t.Fatalf("rollup floor point caps at %g W, want %g", roll[0].CapW, floor*3)
	}
	for l := 0; l < len(roll); l++ {
		capW := roll[l].CapW
		_, flatPerf, _ := ApportionCurves(capW, floor, curves)
		if math.Abs(roll[l].Perf-flatPerf) > 1e-9 {
			t.Fatalf("rollup perf at %g W is %g, flat DP gives %g", capW, roll[l].Perf, flatPerf)
		}
		if l > 0 {
			if roll[l].CapW <= roll[l-1].CapW {
				t.Fatalf("rollup caps not strictly increasing at %d", l)
			}
			if roll[l].Perf < roll[l-1].Perf {
				t.Fatalf("rollup perf decreasing at %d", l)
			}
		}
	}
}

// referenceRollup is the standalone rollup forward loop: the
// ApportionCurves DP run at the full level count, carrying each level's
// grid draw alongside its value. It is the independent reference the
// cached table's rollup read must match bit for bit.
func referenceRollup(floorW float64, curves [][]CapPoint) []CapPoint {
	n := len(curves)
	if n == 0 {
		return nil
	}
	levels := 1
	for _, c := range curves {
		if len(c) == 0 {
			return nil
		}
		levels += len(c) - 1
	}
	best := make([]float64, levels)
	grid := make([]float64, levels)
	for i := 0; i < n; i++ {
		next := make([]float64, levels)
		nextGrid := make([]float64, levels)
		for l := 0; l < levels; l++ {
			bestV, bestG := math.Inf(-1), 0.0
			kMax := l
			if kMax >= len(curves[i]) {
				kMax = len(curves[i]) - 1
			}
			for k := 0; k <= kMax; k++ {
				if v := best[l-k] + curves[i][k].Perf; v > bestV {
					bestV = v
					bestG = grid[l-k] + curves[i][k].GridW
				}
			}
			next[l], nextGrid[l] = bestV, bestG
		}
		best, grid = next, nextGrid
	}
	out := make([]CapPoint, levels)
	base := floorW * float64(n)
	for l := range out {
		out[l] = CapPoint{CapW: base + float64(l)*serverCapStepW, Perf: best[l], GridW: grid[l]}
	}
	return out
}

// sameBits reports whether two curves are equal point for point, bit
// for bit (signed zeros and NaNs included).
func sameBits(a, b []CapPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].CapW) != math.Float64bits(b[i].CapW) ||
			math.Float64bits(a[i].Perf) != math.Float64bits(b[i].Perf) ||
			math.Float64bits(a[i].GridW) != math.Float64bits(b[i].GridW) {
			return false
		}
	}
	return true
}

// TestApportionerRollupMatchesReference holds the shared table's rollup
// read bit-identical to the standalone forward loop, and its budgets to
// ApportionCurves, through a seeded sequence that interleaves Apportion
// and Rollup on one Apportioner across every way the table can move:
// cap rises and drops, a floor change, members joining and leaving,
// and curves changing length.
func TestApportionerRollupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	floorW := 40.0
	var curves [][]CapPoint
	for i := 0; i < 6; i++ {
		curves = append(curves, randCurve(rng, floorW))
	}
	var a Apportioner
	maxPoints := []int{0, 2, 17, 256}
	for step := 0; step < 300; step++ {
		if step == 150 {
			floorW += 5
		}
		switch op := rng.Intn(10); {
		case op == 1 && len(curves) < 14:
			i := rng.Intn(len(curves) + 1)
			curves = append(curves[:i], append([][]CapPoint{randCurve(rng, floorW)}, curves[i:]...)...)
		case op == 2 && len(curves) > 1:
			i := rng.Intn(len(curves))
			curves = append(curves[:i:i], curves[i+1:]...)
		case op == 3:
			// A new curve for one member, usually of another length.
			curves[rng.Intn(len(curves))] = randCurve(rng, floorW)
		}
		n := float64(len(curves))
		if rng.Intn(2) == 0 {
			capW := floorW*n*0.5 + rng.Float64()*floorW*n*2.5
			wantB, wantP, wantG := ApportionCurves(capW, floorW, curves)
			gotB, gotP, gotG := a.Apportion(capW, floorW, curves)
			if gotP != wantP || gotG != wantG {
				t.Fatalf("step %d: apportion perf/grid (%v, %v), full DP (%v, %v)", step, gotP, gotG, wantP, wantG)
			}
			for i := range wantB {
				if gotB[i] != wantB[i] {
					t.Fatalf("step %d: member %d budget %v, full DP %v", step, i, gotB[i], wantB[i])
				}
			}
			continue
		}
		mp := maxPoints[rng.Intn(len(maxPoints))]
		want := DownsampleCurve(referenceRollup(floorW, curves), mp)
		got := a.Rollup(floorW, curves, mp)
		if !sameBits(got, want) {
			t.Fatalf("step %d (maxPoints %d): rollup differs from the reference loop", step, mp)
		}
		// A clean repeat rebuilds nothing and serves the memoized slice.
		again := a.Rollup(floorW, curves, mp)
		if a.LastRecomputed() != 0 {
			t.Fatalf("step %d: clean repeat rebuilt %d layers", step, a.LastRecomputed())
		}
		if &again[0] != &got[0] {
			t.Fatalf("step %d: clean repeat did not reuse the memoized rollup", step)
		}
	}
}

func TestRollupRejectsEmptyMemberCurve(t *testing.T) {
	if got := RollupCurves(40, nil); got != nil {
		t.Fatalf("rollup of no curves = %v, want nil", got)
	}
	curves := [][]CapPoint{lineCurve(40, 4, 0.01), nil}
	if got := RollupCurves(40, curves); got != nil {
		t.Fatalf("rollup with a curveless member = %v, want nil", got)
	}
}

func TestDownsampleCurveKeepsEndpoints(t *testing.T) {
	curve := lineCurve(40, 100, 0.01)
	thin := DownsampleCurve(curve, 8)
	if len(thin) != 8 {
		t.Fatalf("downsampled to %d points, want 8", len(thin))
	}
	if thin[0] != curve[0] || thin[len(thin)-1] != curve[len(curve)-1] {
		t.Fatal("downsample dropped an endpoint")
	}
	for i := 1; i < len(thin); i++ {
		if thin[i].CapW <= thin[i-1].CapW {
			t.Fatalf("downsampled caps not strictly increasing at %d", i)
		}
	}
	if got := DownsampleCurve(curve, 200); len(got) != len(curve) {
		t.Fatalf("downsample above length changed the curve: %d points", len(got))
	}
}

func TestApportionShardsRespectsCap(t *testing.T) {
	shards := []ShardCurve{
		{FloorW: 120, Points: lineCurve(40, 20, 0.010)}, // steep: wants the watts
		{FloorW: 120, Points: lineCurve(40, 20, 0.002)}, // shallow
		{FloorW: 120, Points: lineCurve(40, 20, 0.006)},
	}
	for _, capW := range []float64{121, 150, 200, 500} {
		budgets, perf := ApportionShards(capW, shards, 0)
		if got := sum(budgets); got > capW+1e-6 {
			t.Fatalf("cap %g: budgets sum to %g", capW, got)
		}
		if perf < 0 {
			t.Fatalf("cap %g: negative perf %g", capW, perf)
		}
	}
	// With spare watts, the steepest shard must out-earn the shallowest.
	budgets, _ := ApportionShards(200, shards, 0)
	if budgets[0] <= budgets[1] {
		t.Fatalf("steep shard got %g W, shallow got %g W", budgets[0], budgets[1])
	}
}

// A coarsened grid must still never exceed the cap, and must lose only
// resolution, not safety.
func TestApportionShardsCoarseGrid(t *testing.T) {
	shards := []ShardCurve{
		{FloorW: 40, Points: lineCurve(40, 200, 0.010)},
		{FloorW: 40, Points: lineCurve(40, 200, 0.004)},
		{FloorW: 40, Points: lineCurve(40, 200, 0.007)},
		{FloorW: 40, Points: lineCurve(40, 200, 0.001)},
	}
	capW := 900.0
	fine, finePerf := ApportionShards(capW, shards, 0)
	coarse, coarsePerf := ApportionShards(capW, shards, 16)
	if got := sum(coarse); got > capW+1e-6 {
		t.Fatalf("coarse budgets sum to %g over cap %g", got, capW)
	}
	if got := sum(fine); got > capW+1e-6 {
		t.Fatalf("fine budgets sum to %g over cap %g", got, capW)
	}
	if coarsePerf > finePerf+1e-9 {
		t.Fatalf("coarse grid outperforms fine grid: %g > %g", coarsePerf, finePerf)
	}
	// The coarse solve must still find most of the utility.
	if coarsePerf < 0.8*finePerf {
		t.Fatalf("coarse grid lost too much: %g vs %g", coarsePerf, finePerf)
	}
}

// A one-level grid used to price every point at zero steps (its step
// was spare/0 = +Inf) and granted every shard its saturation cap. Any
// level bound must keep the budgets within the cap.
func TestApportionShardsMaxLevelsRespectsCap(t *testing.T) {
	shards := []ShardCurve{
		{FloorW: 100, Points: lineCurve(100, 51, 0.01)}, // 100–200 W
		{FloorW: 100, Points: lineCurve(100, 51, 0.01)},
	}
	for _, maxLevels := range []int{1, 2, 3} {
		budgets, _ := ApportionShards(250, shards, maxLevels)
		if got := sum(budgets); got > 250+1e-6 {
			t.Fatalf("maxLevels %d: budgets %v sum to %g W over the 250 W cap", maxLevels, budgets, got)
		}
	}
}

// Satellite edge case: a shard with an empty aggregate curve (its
// members are curveless live daemons) falls back to an even share of
// the cluster cap, exactly like the flat coordinator's curveless
// members.
func TestApportionShardsEmptyCurveEvenShare(t *testing.T) {
	shards := []ShardCurve{
		{FloorW: 40, Points: lineCurve(40, 10, 0.01)},
		{FloorW: 40, Points: nil}, // curveless daemons
		{FloorW: 40, Points: lineCurve(40, 10, 0.01)},
	}
	capW := 300.0
	budgets, _ := ApportionShards(capW, shards, 0)
	if want := capW / 3; math.Abs(budgets[1]-want) > 1e-9 {
		t.Fatalf("curveless shard got %g W, want even share %g", budgets[1], want)
	}
	if got := sum(budgets); got > capW+1e-6 {
		t.Fatalf("budgets sum to %g over cap %g", got, capW)
	}
	// All shards curveless: pure even split.
	all := []ShardCurve{{FloorW: 40}, {FloorW: 40}}
	budgets, perf := ApportionShards(100, all, 0)
	if budgets[0] != 50 || budgets[1] != 50 || perf != 0 {
		t.Fatalf("all-curveless split = %v (perf %g), want 50/50", budgets, perf)
	}
}

func TestApportionShardsBelowFloors(t *testing.T) {
	shards := []ShardCurve{
		{FloorW: 80, Points: lineCurve(80, 5, 0.01)},
		{FloorW: 40, Points: lineCurve(40, 5, 0.01)},
	}
	budgets, perf := ApportionShards(60, shards, 0)
	if perf != 0 {
		t.Fatalf("starved apportion claims perf %g", perf)
	}
	if got := sum(budgets); got > 60+1e-6 {
		t.Fatalf("starved budgets sum to %g over cap 60", got)
	}
	// Pro-rated by floor: shard 0 owes twice shard 1's floor.
	if math.Abs(budgets[0]-2*budgets[1]) > 1e-6 {
		t.Fatalf("starved split %v not floor-proportional", budgets)
	}
}

// Satellite edge case: all shards idle — nothing moves.
func TestRebalanceHeadroomAllIdle(t *testing.T) {
	budgets := []float64{100, 100, 100}
	used := []float64{40, 50, 45}
	demand := []float64{40, 50, 45}
	out, moved := RebalanceHeadroom(budgets, used, demand, 0.05)
	if moved != 0 {
		t.Fatalf("all-idle fleet moved %g W", moved)
	}
	for i := range out {
		if out[i] != budgets[i] {
			t.Fatalf("all-idle budgets changed: %v", out)
		}
	}
}

// Satellite edge case: one shard holds the entire cap and sits idle;
// its starved siblings must receive headroom the moment they ask.
func TestRebalanceHeadroomSingleHolder(t *testing.T) {
	budgets := []float64{300, 0, 0}
	used := []float64{60, 0, 0}
	demand := []float64{60, 80, 40}
	out, moved := RebalanceHeadroom(budgets, used, demand, 0.05)
	if moved <= 0 {
		t.Fatal("no headroom moved off the idle holder")
	}
	if math.Abs(sum(out)-sum(budgets)) > 1e-9 {
		t.Fatalf("rebalance changed the total: %g -> %g", sum(budgets), sum(out))
	}
	if out[0] < 60*1.05-1e-9 {
		t.Fatalf("donor cut below its guarded demand: %g W", out[0])
	}
	// Shortfalls are 80 and 40: receipts must be proportional.
	got1, got2 := out[1]-budgets[1], out[2]-budgets[2]
	if got1 <= 0 || got2 <= 0 {
		t.Fatalf("starved shards received %g and %g W", got1, got2)
	}
	if math.Abs(got1-2*got2) > 1e-9 {
		t.Fatalf("receipts %g and %g not proportional to need 80:40", got1, got2)
	}
}

func TestRebalanceHeadroomSaturatedReceiver(t *testing.T) {
	// Shard 1 is saturated (draw pinned at its budget, demand above);
	// shard 0 has slack. The transfer must flow 0 -> 1 within one call.
	budgets := []float64{150, 100}
	used := []float64{70, 100}
	demand := []float64{70, 160}
	out, moved := RebalanceHeadroom(budgets, used, demand, 0.05)
	if moved <= 0 {
		t.Fatal("saturated shard received nothing")
	}
	if out[1] <= budgets[1] {
		t.Fatalf("saturated shard budget went from %g to %g", budgets[1], out[1])
	}
	if out[0] >= budgets[0] {
		t.Fatalf("idle shard budget went from %g to %g", budgets[0], out[0])
	}
	if math.Abs(sum(out)-sum(budgets)) > 1e-9 {
		t.Fatalf("rebalance changed the total: %g -> %g", sum(budgets), sum(out))
	}
}

func TestRebalanceHeadroomMalformedInput(t *testing.T) {
	budgets := []float64{100, 100}
	out, moved := RebalanceHeadroom(budgets, []float64{1}, []float64{1, 2}, 0)
	if moved != 0 || out[0] != 100 || out[1] != 100 {
		t.Fatalf("mismatched slices moved watts: %v (%g)", out, moved)
	}
}
