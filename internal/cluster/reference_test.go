package cluster

import "math"

// This file keeps the cluster tiers' hand-written DP loops, verbatim
// from before they became thin callers of the shared mcknap kernel, as
// the bitwise references the parity suite holds the kernel callers to.
// referenceApportionCurves prices curve point k at k grid steps above
// the floor, so it is a reference on on-grid curves only.

// referenceApportionCurves is the pre-kernel ApportionCurves loop.
func referenceApportionCurves(clusterCapW, floorW float64, curves [][]CapPoint) (budgets []float64, perf, gridW float64) {
	n := len(curves)
	budgets = make([]float64, n)
	if n == 0 {
		return budgets, 0, 0
	}
	capQ := math.Floor(clusterCapW/serverCapStepW) * serverCapStepW
	if capQ < floorW*float64(n) {
		// Not even the idle floors fit; the fleet draws what it may.
		per := capQ / float64(n)
		for i := range budgets {
			budgets[i] = per
		}
		return budgets, 0, capQ
	}
	// DP over the budget above the idle floors, in curve-index units
	// (curve point k costs k*serverCapStepW above the floor).
	spare := capQ - floorW*float64(n)
	levels := int(spare/serverCapStepW) + 1
	best := make([]float64, levels)
	choice := make([][]int, n)
	for i := 0; i < n; i++ {
		choice[i] = make([]int, levels)
		next := make([]float64, levels)
		for l := 0; l < levels; l++ {
			bestV, bestK := math.Inf(-1), 0
			kMax := l
			if kMax >= len(curves[i]) {
				kMax = len(curves[i]) - 1
			}
			for k := 0; k <= kMax; k++ {
				if v := best[l-k] + curves[i][k].Perf; v > bestV {
					bestV, bestK = v, k
				}
			}
			next[l] = bestV
			choice[i][l] = bestK
		}
		best = next
	}
	l := levels - 1
	for i := n - 1; i >= 0; i-- {
		k := choice[i][l]
		budgets[i] = curves[i][k].CapW
		perf += curves[i][k].Perf
		gridW += curves[i][k].GridW
		l -= k
	}
	return budgets, perf, gridW
}

// referenceApportionShards is the pre-kernel ApportionShards loop.
func referenceApportionShards(clusterCapW float64, shards []ShardCurve, maxLevels int) (budgets []float64, perf float64) {
	n := len(shards)
	budgets = make([]float64, n)
	if n == 0 || clusterCapW <= 0 {
		return budgets, 0
	}
	if maxLevels <= 0 {
		maxLevels = DefaultShardLevels
	} else if maxLevels < 2 {
		// One level cannot span the spare watts: its step would be
		// infinite, every point would cost nothing, and the budgets
		// could sum past the cap.
		maxLevels = 2
	}
	per := clusterCapW / float64(n)
	remainW := clusterCapW
	var curved []int
	for i, s := range shards {
		if len(s.Points) == 0 {
			budgets[i] = per
			remainW -= per
		} else {
			curved = append(curved, i)
		}
	}
	if len(curved) == 0 {
		return budgets, 0
	}
	var baseSum float64
	for _, i := range curved {
		baseSum += shards[i].Points[0].CapW
	}
	capQ := math.Floor(remainW/serverCapStepW) * serverCapStepW
	if capQ < baseSum {
		// Not even the shard floors fit; pro-rate what there is.
		for _, i := range curved {
			if baseSum > 0 {
				budgets[i] = capQ * shards[i].Points[0].CapW / baseSum
			} else {
				budgets[i] = capQ / float64(len(curved))
			}
		}
		return budgets, 0
	}
	spare := capQ - baseSum
	stepW := serverCapStepW
	if int(spare/stepW)+1 > maxLevels {
		stepW = spare / float64(maxLevels-1)
	}
	levels := int(spare/stepW+1e-9) + 1
	best := make([]float64, levels)
	choice := make([][]int, len(curved))
	cost := make([][]int, len(curved))
	for j, i := range curved {
		pts := shards[i].Points
		cost[j] = make([]int, len(pts))
		for k := range pts {
			cost[j][k] = costSteps(pts[k].CapW-pts[0].CapW, stepW)
		}
		choice[j] = make([]int, levels)
		next := make([]float64, levels)
		for l := 0; l < levels; l++ {
			bestV, bestK := math.Inf(-1), 0
			for k, c := range cost[j] {
				// Curve caps are strictly increasing, so costs are
				// non-decreasing: past the level there is nothing left.
				if c > l {
					break
				}
				if v := best[l-c] + pts[k].Perf; v > bestV {
					bestV, bestK = v, k
				}
			}
			next[l] = bestV
			choice[j][l] = bestK
		}
		best = next
	}
	l := levels - 1
	for j := len(curved) - 1; j >= 0; j-- {
		i := curved[j]
		pts := shards[i].Points
		k := choice[j][l]
		budgets[i] = pts[k].CapW
		perf += pts[k].Perf
		l -= cost[j][k]
	}
	return budgets, perf
}
