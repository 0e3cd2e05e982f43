package cluster

import (
	"math"

	"powerstruggle/internal/mcknap"
)

// Apportioner is ApportionCurves with a cache, and the one DP table a
// shard keeps: it holds the kernel's per-member prefix layers between
// calls, replays only the layers at and after the first member whose
// curve changed, and serves both the budget split (Apportion) and the
// shard's trunk rollup (Rollup) off the same table.
//
// The cache exploits a structural property of the DP: the value table
// after processing members 0..i depends only on those members' curves
// and on lower budget indices — never on the level bound the call
// happened to run with. Layers are therefore kept at a high-water level
// count; a cap change alone (different reconstruction start index)
// costs zero recompute, and when k of n member curves change between
// intervals only the layers from the first change onward are rebuilt.
// Every retained column is the one a cold table computes, so the
// budgets, perf, and grid draw returned match a fresh Apportioner's bit
// for bit — TestApportionerMatchesFullDP holds both to the pre-kernel
// loop, and TestApportionerRollupMatchesReference holds Rollup to the
// standalone rollup loop.
//
// Each member's curve point k costs pointCost(curve, k, floorW,
// ServerCapStepW) levels: its real watts above the floor, rounded up to
// whole grid steps.
//
// The zero value is ready to use. Not safe for concurrent use.
type Apportioner struct {
	floorW float64
	// curves holds a defensive snapshot of each member's curve as of
	// the last DP run, for change detection.
	curves [][]CapPoint
	table  mcknap.Table
	// recomputed counts the member layers rebuilt by the last call.
	recomputed int
	// rollup memoizes the last Rollup output (downsampled to
	// rollupMax) until a layer is rebuilt or the member set shrinks. It
	// is replaced, never written, once returned.
	rollup    []CapPoint
	rollupMax int
}

// LastRecomputed reports how many member layers the last Apportion or
// Rollup call had to rebuild (0 when only the cap moved).
func (a *Apportioner) LastRecomputed() int { return a.recomputed }

// curveChanged reports whether cur differs from the cached snapshot.
func curveChanged(snap, cur []CapPoint) bool {
	if len(snap) != len(cur) {
		return true
	}
	for i := range cur {
		if snap[i] != cur[i] {
			return true
		}
	}
	return false
}

// Apportion is ApportionCurves over the cached table: same contract,
// bit-identical results.
func (a *Apportioner) Apportion(clusterCapW, floorW float64, curves [][]CapPoint) (budgets []float64, perf, gridW float64) {
	n := len(curves)
	a.recomputed = 0
	budgets = make([]float64, n)
	if n == 0 {
		return budgets, 0, 0
	}
	capQ := math.Floor(clusterCapW/serverCapStepW) * serverCapStepW
	// Below the floors no DP runs, so the cache keeps whatever validity
	// it had.
	if capQ >= floorW*float64(n) {
		l := int((capQ - floorW*float64(n)) / serverCapStepW)
		a.sync(floorW, curves, l+1)
		ks := make([]int, n)
		if !math.IsInf(a.table.Choose(l, ks), -1) {
			for i := n - 1; i >= 0; i-- {
				budgets[i] = curves[i][ks[i]].CapW
				perf += curves[i][ks[i]].Perf
				gridW += curves[i][ks[i]].GridW
			}
			return budgets, perf, gridW
		}
	}
	// Not even the priced floors fit; the fleet draws what it may.
	per := capQ / float64(n)
	for i := range budgets {
		budgets[i] = per
	}
	return budgets, 0, capQ
}

// Rollup is RollupCurves followed by DownsampleCurve(·, maxPoints),
// read off the cached table: point l is the best summed perf within
// floorW per member plus l spare grid steps, for every l from where all
// members' first points fit to where all take their last. It syncs the
// layers up to that top level, takes each kept point's perf from the
// last layer, and backtracks that point's member split to sum its grid
// draw in member order. The result is memoized while no layer is
// rebuilt; callers must not mutate it.
func (a *Apportioner) Rollup(floorW float64, curves [][]CapPoint, maxPoints int) []CapPoint {
	n := len(curves)
	a.recomputed = 0
	if n == 0 {
		return nil
	}
	lo, hi := 0, 0
	for _, c := range curves {
		if len(c) == 0 {
			return nil
		}
		lo += pointCost(c, 0, floorW, serverCapStepW)
		hi += pointCost(c, len(c)-1, floorW, serverCapStepW)
	}
	a.sync(floorW, curves, hi+1)
	if a.rollup != nil && a.rollupMax == maxPoints {
		return a.rollup
	}

	// The kept levels: every one in [lo, hi], or DownsampleCurve's
	// selection.
	levels := hi - lo + 1
	keep := levels
	if maxPoints >= 2 && levels > maxPoints {
		keep = maxPoints
	}
	last := levels - 1
	out := make([]CapPoint, keep)
	ks := make([]int, n)
	base := floorW * float64(n)
	for j := range out {
		l := j
		if keep < levels {
			l = last
			if j < keep-1 {
				l = j * last / (keep - 1)
			}
		}
		l += lo
		perf := a.table.Choose(l, ks)
		grid := 0.0
		for i, k := range ks {
			grid += curves[i][k].GridW
		}
		out[j] = CapPoint{CapW: base + float64(l)*serverCapStepW, Perf: perf, GridW: grid}
	}
	a.rollup, a.rollupMax = out, maxPoints
	return out
}

// sync brings the cached layers in line with curves over at least
// levels budget levels, rebuilding from the first changed member.
func (a *Apportioner) sync(floorW float64, curves [][]CapPoint, levels int) {
	n := len(curves)
	// A floor change reprices every curve point; drop the whole cache.
	if floorW != a.floorW {
		a.curves = a.curves[:0]
		a.floorW = floorW
	}
	// firstDirty is the first member whose cached layer cannot be
	// reused: its curve changed, or it was never computed. Members past
	// a dirty one are rebuilt too (their layers chain off its output).
	firstDirty := n
	for i := 0; i < n; i++ {
		if i >= len(a.curves) || curveChanged(a.curves[i], curves[i]) {
			firstDirty = i
			break
		}
	}
	if firstDirty < n || n != len(a.curves) {
		a.rollup = nil
	}
	// Grow the clean prefix's columns in place first, so a cap increase
	// never invalidates unchanged members; then rebuild the dirty
	// suffix over the full high-water range.
	a.table.Truncate(firstDirty)
	a.table.Grow(levels)
	for len(a.curves) < n {
		a.curves = append(a.curves, nil)
	}
	a.curves = a.curves[:n]
	for i := firstDirty; i < n; i++ {
		a.recomputed++
		a.curves[i] = append(a.curves[i][:0], curves[i]...)
		a.table.Push(priceCurve(curves[i], floorW, serverCapStepW))
	}
}
