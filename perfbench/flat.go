package main

import (
	"context"
	"math/rand"
	"slices"

	"powerstruggle/internal/cluster"
	"powerstruggle/internal/ctrlplane"
)

// flat1k: a flat coordinator with 1000 agents on the binary wire and
// the utility strategy, static curves, and the diurnal peak-shaved cap.
// The DP cache replays zero layers, so the wire, codec, fan-out and
// agent apply dominate the interval.
var flat1k = workload{episode: flatEpisode, warmup: flatWarmup, stepS: intervalS, build: buildFlat}

const (
	flatAgents = 1000
	// flatEpisode intervals per round, the first flatWarmup untimed: the
	// first assign to every agent and the first renewal.
	flatEpisode = 400
	flatWarmup  = 2
)

type flatSystem struct {
	p      *probe
	fl     *fleet
	coord  *ctrlplane.Coordinator
	caps   []float64
	cuts   []bool
	curves [][]cluster.CapPoint
	// oracle is an independent incremental DP over the same inputs
	// (traced rounds); the coordinator's budgets must match it bit for
	// bit.
	oracle  cluster.Apportioner
	prev    []float64
	drops   capDrops
	t       float64
	fp      fingerprint
	enforce float64
}

func buildFlat(seed int64, tr *tracer) (system, error) {
	rng := rand.New(rand.NewSource(seed))
	caps, cuts, err := capTrace(seed, flatEpisode, flatAgents)
	if err != nil {
		return nil, err
	}
	servers := make([]*server, flatAgents)
	for i := range servers {
		// Every server is busy: it draws whatever cap it is granted.
		servers[i] = &server{curve: randomCurve(rng), demandW: nameplateW}
	}
	fl, err := newFleet(servers, tr, false)
	if err != nil {
		return nil, err
	}
	coord, err := ctrlplane.New(ctrlplane.Config{
		Agents:      fl.refs(0, flatAgents),
		Strategy:    ctrlplane.StrategyUtility,
		FloorW:      floorW,
		LeaseS:      leaseIntervals * intervalS,
		MaxInFlight: fanOut,
		Seed:        seed,
	})
	if err != nil {
		fl.srv.Close()
		return nil, err
	}
	return &flatSystem{
		p: newProbe(tr), fl: fl, coord: coord, caps: caps, cuts: cuts,
		curves: fl.curves(0, flatAgents), enforce: fl.enforcedW(0, flatAgents),
	}, nil
}

func (s *flatSystem) step(k int) (stepResult, error) {
	s.p.reset()
	capW := s.caps[k]
	s.drops.enter(k, capW, s.enforce, s.cuts[k])
	s.t += intervalS
	var res ctrlplane.StepResult
	ns, err := s.p.call(spanCoordStep, 0, func() error {
		var err error
		res, err = s.coord.Step(context.Background(), s.t, capW)
		return err
	})
	if err != nil {
		return stepResult{}, err
	}
	out := stepResult{ns: s.p.ns, allocs: s.p.allocs}
	if err := s.fl.tick(s.t); err != nil {
		return stepResult{}, err
	}
	s.enforce = s.fl.enforcedW(0, flatAgents)
	out.safeNs = s.drops.elapse(ns, s.enforce)

	// Traced rounds re-run the DP on the same inputs: its time is the
	// dp layer's, and the coordinator must have decided the same.
	if s.p.tr != nil {
		var budgets []float64
		s.p.kernel("cluster.dp", func() { budgets, _, _ = s.oracle.Apportion(capW, floorW, s.curves) })
		if k >= flatWarmup {
			s.fp.dpLayers += s.oracle.LastRecomputed()
		}
		if !slices.Equal(res.Budgets, budgets) {
			out.invalid = "coordinator budgets differ from the reference DP's"
		}
	}
	if !slices.Equal(res.Budgets, s.prev) {
		out.replanNs = []int64{out.ns}
		s.fp.replans++
	}
	s.prev = res.Budgets
	s.fp.welfareSum += s.fl.perf()
	s.fp.welfareN++

	for _, msg := range []string{grantProblem(res, capW), s.drops.check(k, capW, s.enforce, &s.fp)} {
		if out.invalid == "" {
			out.invalid = msg
		}
	}
	return out, nil
}

func (s *flatSystem) fingerprint() fingerprint { return s.fp }

func (s *flatSystem) layerCounts() map[string]float64 {
	return map[string]float64{
		"batch_frames": float64(s.coord.Stats().BatchFrames),
		"steps":        float64(s.coord.Stats().Steps),
		"conn_dials":   float64(s.coord.WireStats().BinaryDials),
	}
}

func (s *flatSystem) close() {
	s.coord.Close()
	s.fl.srv.Close()
}
