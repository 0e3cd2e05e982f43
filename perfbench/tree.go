package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"powerstruggle/internal/cluster"
	"powerstruggle/internal/ctrlplane"
)

// tree1k: 1000 agents in 8 shards of HA coordinator pairs under one
// global apportioner — the pscluster -shards drill shape — on the
// diurnal peak-shaved cap with static curves. Every shard node rolls
// its members' curves up (cluster.RollupCurves) and the global runs
// cluster.ApportionShards each interval; a periodic saturation wave
// makes the headroom rebalance move watts.
var tree1k = workload{episode: treeEpisode, warmup: treeWarmup, stepS: intervalS, build: func(seed int64, tr *tracer) (system, error) {
	return buildTree(seed, tr, false)
}}

// tree1kDrift is tree1k with a few agents per shard reporting a changed
// curve every interval, as a learning fleet does: the rollup and DP
// layers run the way a cache misses on.
var tree1kDrift = workload{episode: treeEpisode, warmup: treeWarmup, stepS: intervalS, build: func(seed int64, tr *tracer) (system, error) {
	return buildTree(seed, tr, true)
}}

const (
	// treeEpisode intervals per round, the first treeWarmup untimed:
	// elections, first grants, and the shard DP caches filling.
	treeEpisode = 30
	treeWarmup  = 3
	treeShards  = 8
	shardSize   = 125
	// Every satPeriod intervals one shard saturates for satLen.
	satPeriod = 10
	satLen    = 4
	// driftPerShard agents per shard change curves each interval.
	driftPerShard = 3
	// grantSlackFrac mirrors the global apportioner's held-back sliver
	// of the cap, so the shadow ApportionShards sees the cap it does.
	grantSlackFrac = 0.02
	// rollupPoints is the shard coordinator's default trunk curve bound.
	rollupPoints = 256
)

// treeNode is one shard coordinator process of an HA pair.
type treeNode struct {
	coord *ctrlplane.Coordinator
	ha    *ctrlplane.HA
	sc    *ctrlplane.ShardCoordinator
	trunk *ctrlplane.BinaryServer
	// oracle is an independent incremental DP over the node's inputs.
	oracle cluster.Apportioner
	prev   []float64

	mu      sync.Mutex
	lastRep ctrlplane.ShardReport // last trunk report served (traced rounds)
}

// driftEvent gives one agent a new curve at the start of an interval.
type driftEvent struct {
	agent int
	curve []cluster.CapPoint
}

type treeSystem struct {
	p      *probe
	tr     *tracer
	fl     *fleet
	nodes  [treeShards][2]*treeNode
	global *ctrlplane.Global
	clock  *simClock

	caps   []float64
	cuts   []bool
	sat    []int // saturated shard per interval, -1 for none
	drift  [][]driftEvent
	baseW  []float64
	shardW [treeShards]float64 // enforced caps per shard
	prevG  []float64
	drops  capDrops
	t      float64
	fp     fingerprint
}

// simClock is the HA elections' clock, advanced in lockstep with trace
// time so leadership is deterministic.
type simClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *simClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *simClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func buildTree(seed int64, tr *tracer, drifts bool) (system, error) {
	const agents = treeShards * shardSize
	rng := rand.New(rand.NewSource(seed))
	caps, cuts, err := capTrace(seed, treeEpisode, agents)
	if err != nil {
		return nil, err
	}
	s := &treeSystem{p: newProbe(tr), tr: tr, caps: caps, cuts: cuts, clock: &simClock{t: time.Unix(0, 0)}}
	servers := make([]*server, agents)
	for i := range servers {
		s.baseW = append(s.baseW, 47+10*rng.Float64())
		servers[i] = &server{curve: randomCurve(rng), demandW: s.baseW[i]}
	}
	// Successive waves hit distinct shards, from a seeded first one.
	s.sat = make([]int, treeEpisode)
	first := rng.Intn(treeShards)
	for k := range s.sat {
		s.sat[k] = -1
		if k%satPeriod >= satPeriod-satLen {
			s.sat[k] = (first + k/satPeriod) % treeShards
		}
	}
	s.drift = make([][]driftEvent, treeEpisode)
	if drifts {
		for k := treeWarmup; k < treeEpisode; k++ {
			for sh := 0; sh < treeShards; sh++ {
				for j := 0; j < driftPerShard; j++ {
					s.drift[k] = append(s.drift[k], driftEvent{agent: sh*shardSize + rng.Intn(shardSize), curve: randomCurve(rng)})
				}
			}
		}
	}

	if s.fl, err = newFleet(servers, tr, drifts); err != nil {
		return nil, err
	}
	refs := make([]ctrlplane.ShardRef, treeShards)
	for sh := 0; sh < treeShards; sh++ {
		elect := ctrlplane.NewMemElection()
		refs[sh] = ctrlplane.ShardRef{ID: sh}
		for r := 0; r < 2; r++ {
			nd, err := s.newNode(sh, r, elect, seed)
			if err != nil {
				s.close()
				return nil, err
			}
			s.nodes[sh][r] = nd
			refs[sh].URLs = append(refs[sh].URLs, nd.trunk.URL())
		}
	}
	s.global, err = ctrlplane.NewGlobal(ctrlplane.GlobalConfig{
		Shards:      refs,
		LeaseS:      3 * intervalS,
		ReclaimS:    (leaseIntervals + 1) * intervalS,
		MaxInFlight: fanOut,
		Seed:        seed,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	for sh := range s.shardW {
		s.shardW[sh] = s.fl.enforcedW(sh*shardSize, (sh+1)*shardSize)
	}
	return s, nil
}

// newNode boots replica r of shard sh: coordinator, HA member, shard
// wrapper, and its trunk listener with the hooks wrapped for tracing.
func (s *treeSystem) newNode(sh, r int, elect ctrlplane.Election, seed int64) (*treeNode, error) {
	coord, err := ctrlplane.New(ctrlplane.Config{
		Agents:      s.fl.refs(sh*shardSize, (sh+1)*shardSize),
		Strategy:    ctrlplane.StrategyUtility,
		FloorW:      floorW,
		LeaseS:      leaseIntervals * intervalS,
		MaxInFlight: fanOut,
		Seed:        seed + int64(sh*2+r),
	})
	if err != nil {
		return nil, err
	}
	nd := &treeNode{coord: coord}
	nd.ha, err = ctrlplane.NewHA(coord, ctrlplane.HAConfig{
		ID:       fmt.Sprintf("shard%d-%c", sh, 'a'+r),
		Election: elect,
		TermTTL:  time.Duration(1.5 * intervalS * float64(time.Second)),
		Clock:    s.clock.now,
		Priority: r,
	})
	if err == nil {
		nd.sc, err = ctrlplane.NewShardCoordinatorHA(nd.ha, ctrlplane.ShardConfig{Shard: sh, InitialBudgetW: s.caps[0] / treeShards})
	}
	if err != nil {
		coord.Close()
		return nil, err
	}
	cfg := nd.sc.ShardBinaryConfig(ctrlplane.BinaryServerConfig{})
	if tr := s.tr; tr != nil {
		node := sh*2 + r
		report, budget := cfg.ShardReport, cfg.ShardBudget
		cfg.ShardReport = func(req ctrlplane.ShardReportRequest) (ctrlplane.ShardReport, error) {
			t0 := time.Now()
			rep, err := report(req)
			tr.child(spanTrunkServe, node, t0, time.Now())
			tr.trunkReports.Add(1)
			nd.mu.Lock()
			nd.lastRep = rep
			nd.mu.Unlock()
			return rep, err
		}
		cfg.ShardBudget = func(req ctrlplane.ShardBudgetRequest) (ctrlplane.ShardBudgetResponse, error) {
			t0 := time.Now()
			resp, err := budget(req)
			tr.child(spanTrunkServe, node, t0, time.Now())
			tr.trunkBudgets.Add(1)
			return resp, err
		}
	}
	if nd.trunk, err = ctrlplane.StartBinaryServer("127.0.0.1:0", cfg); err != nil {
		coord.Close()
		return nil, err
	}
	return nd, nil
}

func (s *treeSystem) enforcedW() float64 {
	var sum float64
	for _, w := range s.shardW {
		sum += w
	}
	return sum
}

// setInputs applies interval k's generated inputs between intervals:
// the saturation wave's demand and the curve drift. Agents re-apply
// their caps so their reports reflect the new state.
func (s *treeSystem) setInputs(k int) error {
	prev := -1
	if k > 0 {
		prev = s.sat[k-1]
	}
	if cur := s.sat[k]; cur != prev {
		for _, sh := range []int{prev, cur} {
			if sh < 0 {
				continue
			}
			for i := sh * shardSize; i < (sh+1)*shardSize; i++ {
				w := s.baseW[i]
				if sh == cur {
					w = nameplateW
				}
				s.fl.servers[i].setDemand(w)
				if err := s.fl.agents[i].Refresh(); err != nil {
					return err
				}
			}
		}
	}
	for _, d := range s.drift[k] {
		s.fl.servers[d.agent].setCurve(d.curve)
		if err := s.fl.agents[d.agent].Refresh(); err != nil {
			return err
		}
	}
	return nil
}

func (s *treeSystem) step(k int) (stepResult, error) {
	s.p.reset()
	if err := s.setInputs(k); err != nil {
		return stepResult{}, err
	}
	s.t += intervalS
	s.clock.advance(time.Duration(intervalS * float64(time.Second)))
	capW := s.caps[k]
	ctx := context.Background()
	var out stepResult
	note := func(msg string) {
		if out.invalid == "" && msg != "" {
			out.invalid = msg
		}
	}

	// Shard tier: every node of every shard, leader and standby.
	var decided []nodeDecision
	replan := false
	for sh := 0; sh < treeShards; sh++ {
		from, to := sh*shardSize, (sh+1)*shardSize
		leaders := 0
		for r, nd := range s.nodes[sh] {
			budgetW := nd.sc.BudgetW()
			var res ctrlplane.StepResult
			ns, err := s.p.call(spanShardStep, sh*2+r, func() error {
				var err error
				res, err = nd.sc.Step(ctx, s.t)
				return err
			})
			if err != nil {
				return stepResult{}, err
			}
			s.shardW[sh] = s.fl.enforcedW(from, to)
			out.safeNs = append(out.safeNs, s.drops.elapse(ns, s.enforcedW())...)
			if res.Leading {
				leaders++
				note(grantProblem(res, budgetW))
				if !slices.Equal(res.Budgets, nd.prev) {
					replan = true
				}
				nd.prev = res.Budgets
			} else if res.ScrapeErrs != 0 {
				note(fmt.Sprintf("shard %d standby: %d scrape errors", sh, res.ScrapeErrs))
			}
			if s.tr != nil {
				decided = append(decided, nodeDecision{sh, r, budgetW, res.Budgets})
			}
		}
		if leaders != 1 {
			note(fmt.Sprintf("shard %d has %d leading nodes", sh, leaders))
		}
	}

	// Global tier: the cluster cap enters the tree here.
	s.drops.enter(k, capW, s.enforcedW(), s.cuts[k])
	var gres ctrlplane.GlobalStepResult
	ns, err := s.p.call(spanGlobalStep, 0, func() error {
		var err error
		gres, err = s.global.Step(ctx, s.t, capW)
		return err
	})
	if err != nil {
		return stepResult{}, err
	}
	out.safeNs = append(out.safeNs, s.drops.elapse(ns, s.enforcedW())...)
	out.ns, out.allocs = s.p.ns, s.p.allocs
	if s.tr != nil {
		for _, d := range decided {
			note(s.referenceDP(k, d))
		}
		s.shadowApportionShards(capW - gres.ReservedW)
	}
	if !slices.Equal(gres.Budgets, s.prevG) {
		replan = true
	}
	s.prevG = gres.Budgets
	if replan {
		out.replanNs = []int64{out.ns}
		s.fp.replans++
	}
	if gres.ScrapeErrs != 0 || gres.GrantErrs != 0 {
		note(fmt.Sprintf("global: %d trunk scrape and %d grant errors", gres.ScrapeErrs, gres.GrantErrs))
	}
	granted := gres.ReservedW
	for i := range gres.Budgets {
		if !gres.Alive[i] || !gres.Granted[i] {
			note(fmt.Sprintf("global: shard %d not granted", i))
		}
		if gres.Granted[i] {
			granted += gres.Budgets[i]
		}
	}
	if granted > capW+capEps {
		note(fmt.Sprintf("global: granted + reserved %.3f W over cap %.3f W", granted, capW))
	}

	if err := s.fl.tick(s.t); err != nil {
		return stepResult{}, err
	}
	for sh := range s.shardW {
		s.shardW[sh] = s.fl.enforcedW(sh*shardSize, (sh+1)*shardSize)
	}
	note(s.drops.check(k, capW, s.enforcedW(), &s.fp))
	s.fp.welfareSum += s.fl.perf()
	s.fp.welfareN++
	return out, nil
}

// nodeDecision is one shard node's step: the budget it split and the
// member budgets it decided.
type nodeDecision struct {
	sh, r   int
	budgetW float64
	budgets []float64
}

// referenceDP re-runs a node's DP and rollup on the interval's inputs
// after the interval's calls returned (traced rounds): their times are
// those layers', and the node must have decided the same budgets.
func (s *treeSystem) referenceDP(k int, d nodeDecision) string {
	nd := s.nodes[d.sh][d.r]
	curves := s.fl.curves(d.sh*shardSize, (d.sh+1)*shardSize)
	var budgets []float64
	s.p.kernel("cluster.dp", func() { budgets, _, _ = nd.oracle.Apportion(d.budgetW, floorW, curves) })
	if k >= treeWarmup {
		s.fp.dpLayers += nd.oracle.LastRecomputed()
	}
	s.p.kernel("cluster.rollup", func() {
		cluster.DownsampleCurve(cluster.RollupCurves(floorW, curves), rollupPoints)
	})
	if !slices.Equal(d.budgets, budgets) {
		return fmt.Sprintf("shard %d node %d budgets differ from the reference DP's", d.sh, d.r)
	}
	return ""
}

// shadowApportionShards re-invokes the global DP on the shard reports
// the trunk served this interval, for the per-layer timing.
func (s *treeSystem) shadowApportionShards(availableW float64) {
	curves := make([]cluster.ShardCurve, 0, treeShards)
	for sh := range s.nodes {
		for _, nd := range s.nodes[sh] {
			nd.mu.Lock()
			rep := nd.lastRep
			nd.mu.Unlock()
			if rep.Leading {
				curves = append(curves, cluster.ShardCurve{FloorW: rep.FloorW, Points: rep.Curve})
				break
			}
		}
	}
	s.p.kernel("cluster.apportion_shards", func() {
		cluster.ApportionShards(availableW*(1-grantSlackFrac), curves, 0)
	})
}

func (s *treeSystem) fingerprint() fingerprint { return s.fp }

func (s *treeSystem) layerCounts() map[string]float64 {
	c := map[string]float64{"steps": float64(len(s.caps))}
	for sh := range s.nodes {
		for _, nd := range s.nodes[sh] {
			c["batch_frames"] += float64(nd.coord.Stats().BatchFrames)
			c["conn_dials"] += float64(nd.coord.WireStats().BinaryDials)
		}
	}
	return c
}

func (s *treeSystem) close() {
	if s.global != nil {
		s.global.Close()
	}
	for sh := range s.nodes {
		for _, nd := range s.nodes[sh] {
			if nd == nil {
				continue
			}
			nd.trunk.Close()
			nd.coord.Close()
		}
	}
	if s.fl != nil {
		s.fl.srv.Close()
	}
}
