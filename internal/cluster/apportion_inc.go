package cluster

import "math"

// Apportioner is the incremental fast path for ApportionCurves and the
// one DP table a shard keeps: it caches the DP's per-member prefix
// layers between calls, replays only the layers at and after the first
// member whose curve changed, and serves both the budget split
// (Apportion) and the shard's trunk rollup (Rollup) off the same table.
//
// The cache exploits a structural property of the DP: the value table
// best[l] after processing members 0..i depends only on those members'
// curves and on lower budget indices — never on the level bound the
// call happened to run with. Layers are therefore kept at a high-water
// level count; a cap change alone (different reconstruction start
// index) costs zero recompute, and when k of n member curves change
// between intervals only the layers from the first change onward are
// rebuilt. Because every retained column was produced by the exact
// arithmetic ApportionCurves would run, the budgets, perf, and grid
// draw returned are bit-identical to the full DP by construction —
// TestApportionerMatchesFullDP holds the two together, and
// TestApportionerRollupMatchesReference holds Rollup to the standalone
// rollup loop.
//
// Layers hold values only: a member's choice at a level is re-derived
// at reconstruction time from the previous member's layer with the
// DP's own arithmetic and tie-break, so the retained cost is
// members × levels × 8 B.
//
// The zero value is ready to use. Not safe for concurrent use.
type Apportioner struct {
	floorW float64
	// curves holds a defensive snapshot of each member's curve as of
	// the last DP run, for change detection.
	curves [][]CapPoint
	// layers[i] is the DP value vector after processing member i over
	// [0, hiLevels); zero is the all-zero layer member 0 builds on.
	layers   [][]float64
	zero     []float64
	hiLevels int
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

// Apportion is ApportionCurves with the incremental cache. Same
// contract, bit-identical results.
func (a *Apportioner) Apportion(clusterCapW, floorW float64, curves [][]CapPoint) (budgets []float64, perf, gridW float64) {
	n := len(curves)
	a.recomputed = 0
	budgets = make([]float64, n)
	if n == 0 {
		return budgets, 0, 0
	}
	capQ := math.Floor(clusterCapW/serverCapStepW) * serverCapStepW
	if capQ < floorW*float64(n) {
		// Not even the idle floors fit; no DP ran, so the cache keeps
		// whatever validity it had.
		per := capQ / float64(n)
		for i := range budgets {
			budgets[i] = per
		}
		return budgets, 0, capQ
	}
	spare := capQ - floorW*float64(n)
	a.sync(floorW, curves, int(spare/serverCapStepW)+1)

	// Reconstruction: identical to ApportionCurves, starting at this
	// call's level bound.
	l := int(spare / serverCapStepW)
	for i := n - 1; i >= 0; i-- {
		_, k := bestAt(a.prev(i), curves[i], l)
		budgets[i] = curves[i][k].CapW
		perf += curves[i][k].Perf
		gridW += curves[i][k].GridW
		l -= k
	}
	return budgets, perf, gridW
}

// Rollup is RollupCurves followed by DownsampleCurve(·, maxPoints),
// read off the cached table: it syncs the layers up to the rollup's
// full level count, takes each kept point's perf from the last layer,
// and backtracks that point's member split to sum its grid draw in
// member order — bit-identical to the standalone rollup. The result is
// memoized while no layer is rebuilt; callers must not mutate it.
func (a *Apportioner) Rollup(floorW float64, curves [][]CapPoint, maxPoints int) []CapPoint {
	n := len(curves)
	a.recomputed = 0
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
	a.sync(floorW, curves, levels)
	if a.rollup != nil && a.rollupMax == maxPoints {
		return a.rollup
	}

	// The kept levels: every one, or DownsampleCurve's selection.
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
		for i, r := n-1, l; i >= 0; i-- {
			_, ks[i] = bestAt(a.prev(i), curves[i], r)
			r -= ks[i]
		}
		grid := 0.0
		for i, k := range ks {
			grid += curves[i][k].GridW
		}
		out[j] = CapPoint{CapW: base + float64(l)*serverCapStepW, Perf: a.layers[n-1][l], GridW: grid}
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
	for len(a.curves) < n {
		a.curves = append(a.curves, nil)
		a.layers = append(a.layers, nil)
	}
	a.curves = a.curves[:n]
	a.layers = a.layers[:n]

	// Grow the high-water level count first: the clean prefix extends
	// its columns in place (each new column of layer i reads only
	// layer i-1, which is extended by the time we get there), so a cap
	// increase never invalidates unchanged members.
	if levels > a.hiLevels {
		a.zero = make([]float64, levels)
		for i := 0; i < firstDirty; i++ {
			a.layers[i] = append(a.layers[i], make([]float64, levels-a.hiLevels)...)
			dpColumns(a.layers[i], a.prev(i), curves[i], a.hiLevels, levels)
		}
		a.hiLevels = levels
	}
	// Rebuild the dirty suffix over the full high-water range.
	for i := firstDirty; i < n; i++ {
		a.recomputed++
		a.curves[i] = append(a.curves[i][:0], curves[i]...)
		a.layers[i] = append(a.layers[i][:0], make([]float64, a.hiLevels)...)
		dpColumns(a.layers[i], a.prev(i), curves[i], 0, a.hiLevels)
	}
}

// prev is the layer member i builds on.
func (a *Apportioner) prev(i int) []float64 {
	if i == 0 {
		return a.zero
	}
	return a.layers[i-1]
}

// dpColumns fills a member's value columns [lo, hi) from the previous
// member's layer.
func dpColumns(layer, prev []float64, curve []CapPoint, lo, hi int) {
	for l := lo; l < hi; l++ {
		layer[l], _ = bestAt(prev, curve, l)
	}
}

// bestAt is one cell of the DP — the inner loop of ApportionCurves,
// verbatim: the best value at level l and the curve index achieving it
// (strict >, ascending k, so ties go to the cheapest point). Building a
// layer and re-deriving a choice both run it, which keeps retained
// values and reconstructed choices bit-identical to the full DP's.
func bestAt(prev []float64, curve []CapPoint, l int) (bestV float64, bestK int) {
	bestV = math.Inf(-1)
	kMax := l
	if kMax >= len(curve) {
		kMax = len(curve) - 1
	}
	for k := 0; k <= kMax; k++ {
		if v := prev[l-k] + curve[k].Perf; v > bestV {
			bestV, bestK = v, k
		}
	}
	return bestV, bestK
}
