package ctrlplane

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"powerstruggle/internal/cluster"
)

// parityEndpoint serves one agent with a curve the test can move every
// interval (a pre-characterized agent caches its curve at boot) and can
// be killed: a dead endpoint fails every RPC, so its coordinators
// expire the member after MissK missed scrapes.
type parityEndpoint struct {
	*Agent
	dead  atomic.Bool
	mu    sync.Mutex
	curve []cluster.CapPoint
}

var errEndpointDead = errors.New("endpoint dead")

func (e *parityEndpoint) setCurve(c []cluster.CapPoint) {
	e.mu.Lock()
	e.curve = c
	e.mu.Unlock()
}

func (e *parityEndpoint) Scrape(t float64, hasT bool) (Report, error) {
	if e.dead.Load() {
		return Report{}, errEndpointDead
	}
	rep, err := e.Agent.Scrape(t, hasT)
	e.mu.Lock()
	rep.UtilityCurve = append([]cluster.CapPoint(nil), e.curve...)
	e.mu.Unlock()
	return rep, err
}

func (e *parityEndpoint) Assign(req AssignRequest) (AssignResponse, error) {
	if e.dead.Load() {
		return AssignResponse{}, errEndpointDead
	}
	return e.Agent.Assign(req)
}

func (e *parityEndpoint) Renew(req LeaseRequest) (LeaseResponse, error) {
	if e.dead.Load() {
		return LeaseResponse{}, errEndpointDead
	}
	return e.Agent.Renew(req)
}

// parityCurve is a seeded concave curve from the 45 W floor, 5 to 9
// points on the 2 W grid, so drift also changes curve lengths.
func parityCurve(rng *rand.Rand) []cluster.CapPoint {
	n := 5 + rng.Intn(5)
	gain := 0.02 + rng.Float64()*0.1
	out := make([]cluster.CapPoint, n)
	for k := range out {
		w := 45 + float64(k)*cluster.ServerCapStepW
		out[k] = cluster.CapPoint{CapW: w, Perf: gain * math.Sqrt(float64(k)), GridW: w - rng.Float64()}
	}
	return out
}

// expectedRollup recomputes a shard node's trunk curve from scratch:
// the standalone rollup of its live members' effective curves, thinned
// as the shard thins it.
func expectedRollup(sc *ShardCoordinator) []cluster.CapPoint {
	var curves [][]cluster.CapPoint
	for _, m := range sc.c.members {
		if !m.alive {
			continue
		}
		c := sc.c.effectiveCurve(m)
		if c == nil {
			return nil
		}
		curves = append(curves, c)
	}
	return cluster.DownsampleCurve(cluster.RollupCurves(sc.c.cfg.FloorW, curves), sc.cfg.rollupPoints())
}

func sameCurveBits(a, b []cluster.CapPoint) bool {
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

// TestShardRollupMatchesStandalone drives a two-tier tree whose member
// curves drift every interval, through one shard-leader failover (to a
// spare node first stepped when the leader dies, so its table starts
// cold) and one member death, and requires every
// leading shard's served trunk curve — read off its coordinator's
// cached DP table — to equal the standalone rollup of its effective
// curves bit for bit. Report calls race every Step, so under -race a
// write to a published rollup slice fails the test.
func TestShardRollupMatchesStandalone(t *testing.T) {
	const (
		shardCount = 2
		perShard   = 10
		intervals  = 14
		intervalS  = 300.0
		killLeader = 5 // interval the leader of shard 0 crashes and its spare boots
		killMember = 7 // interval one member of shard 1 dies
	)
	rng := rand.New(rand.NewSource(5))
	ctx := context.Background()
	clock := &drillClock{t: time.Unix(0, 0)}
	capW := 52.0 * shardCount * perShard

	type node struct {
		ha    *HA
		sc    *ShardCoordinator
		trunk *BinaryServer
		alive bool
	}
	eps := make([][]*parityEndpoint, shardCount)
	nodes := make([][]*node, shardCount)
	refs := make([]ShardRef, shardCount)
	for s := 0; s < shardCount; s++ {
		byID := make(map[int]CtrlEndpoint, perShard)
		for j := 0; j < perShard; j++ {
			id := s*perShard + j
			a, err := NewAgent(AgentConfig{ID: id, Backend: newDemandBackend(47)})
			if err != nil {
				t.Fatal(err)
			}
			ep := &parityEndpoint{Agent: a, curve: parityCurve(rng)}
			eps[s] = append(eps[s], ep)
			byID[id] = ep
		}
		srv, err := StartBinaryServer("127.0.0.1:0", BinaryServerConfig{Endpoints: byID})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var agentRefs []AgentRef
		for _, ep := range eps[s] {
			agentRefs = append(agentRefs, AgentRef{ID: ep.ID(), URL: srv.URL()})
		}
		elect := NewMemElection()
		refs[s] = ShardRef{ID: s}
		for r := 0; r < 2; r++ {
			coord, err := New(Config{Agents: agentRefs, Strategy: StrategyUtility, FloorW: 45,
				LeaseS: 2 * intervalS, Seed: int64(s*2 + r)})
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			ha, err := NewHA(coord, HAConfig{ID: fmt.Sprintf("shard%d-%d", s, r), Election: elect,
				TermTTL: time.Duration(1.5 * intervalS * float64(time.Second)), Clock: clock.now, Priority: r})
			if err != nil {
				t.Fatal(err)
			}
			// 17 points thins every rollup here (at least 41 levels).
			sc, err := NewShardCoordinatorHA(ha, ShardConfig{Shard: s, InitialBudgetW: capW / shardCount, RollupPoints: 17})
			if err != nil {
				t.Fatal(err)
			}
			trunk, err := StartBinaryServer("127.0.0.1:0", sc.ShardBinaryConfig(BinaryServerConfig{}))
			if err != nil {
				t.Fatal(err)
			}
			defer trunk.Close()
			// Shard 0's second node is a cold spare until the failover.
			nodes[s] = append(nodes[s], &node{ha: ha, sc: sc, trunk: trunk, alive: s != 0 || r == 0})
			refs[s].URLs = append(refs[s].URLs, trunk.URL())
		}
	}
	global, err := NewGlobal(GlobalConfig{Shards: refs, LeaseS: 3 * intervalS, ReclaimS: 3 * intervalS, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer global.Close()

	// Trunk readers racing every step.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for s := range nodes {
		for _, nd := range nodes[s] {
			readers.Add(1)
			go func(sc *ShardCoordinator, shard int) {
				defer readers.Done()
				var sink float64
				for {
					select {
					case <-stop:
						return
					default:
					}
					if rep, err := sc.Report(ShardReportRequest{V: ProtocolV, Shard: shard}); err == nil {
						for _, p := range rep.Curve {
							sink += p.Perf + p.GridW
						}
					}
					time.Sleep(50 * time.Microsecond)
				}
			}(nd.sc, s)
		}
	}
	defer func() {
		close(stop)
		readers.Wait()
	}()

	var checked, leaders [shardCount]int
	leaderAt := map[int]*ShardCoordinator{}
	for iv := 1; iv <= intervals; iv++ {
		now := float64(iv) * intervalS
		clock.advance(time.Duration(intervalS * float64(time.Second)))
		if iv == killLeader {
			nodes[0][0].alive = false
			nodes[0][0].trunk.Close()
			nodes[0][1].alive = true
		}
		if iv == killMember {
			eps[1][3].dead.Store(true)
		}
		for s := range eps {
			for d := rng.Intn(3); d > 0; d-- {
				eps[s][rng.Intn(perShard)].setCurve(parityCurve(rng))
			}
		}
		for s := range nodes {
			for _, nd := range nodes[s] {
				if !nd.alive {
					continue
				}
				if _, err := nd.sc.Step(ctx, now); err != nil {
					t.Fatalf("interval %d shard %d: %v", iv, s, err)
				}
			}
		}
		if _, err := global.Step(ctx, now, capW); err != nil {
			t.Fatalf("interval %d global: %v", iv, err)
		}
		for s := range nodes {
			for _, nd := range nodes[s] {
				if _, lead := nd.ha.Leader(); !nd.alive || !lead {
					continue
				}
				rep, err := nd.sc.Report(ShardReportRequest{V: ProtocolV, Shard: s})
				if err != nil {
					t.Fatalf("interval %d shard %d: %v", iv, s, err)
				}
				if !sameCurveBits(rep.Curve, expectedRollup(nd.sc)) {
					t.Fatalf("interval %d shard %d: served rollup differs from the standalone rollup", iv, s)
				}
				if len(rep.Curve) > 0 {
					checked[s]++
				}
				if leaderAt[s] != nd.sc {
					leaderAt[s] = nd.sc
					leaders[s]++
				}
			}
		}
	}
	t.Logf("rollups checked per shard %v, leaders per shard %v", checked, leaders)
	for s := range nodes {
		if checked[s] < intervals/2 {
			t.Fatalf("shard %d served a rollup in only %d of %d intervals", s, checked[s], intervals)
		}
	}
	if leaders[0] < 2 {
		t.Fatal("shard 0's spare never took over")
	}
	for _, nd := range nodes[1] {
		if _, lead := nd.ha.Leader(); lead && nd.sc.c.members[3].alive {
			t.Fatal("the dead member never expired")
		}
	}
}

// A one-level global DP grid would price every point at zero steps and
// grant past the cap; NewGlobal must refuse it, and negative values.
func TestNewGlobalRejectsBadMaxLevels(t *testing.T) {
	shards := []ShardRef{{ID: 0, URLs: []string{"tcp://127.0.0.1:1"}}}
	for _, lv := range []int{-1, 1} {
		if g, err := NewGlobal(GlobalConfig{Shards: shards, MaxLevels: lv}); err == nil {
			g.Close()
			t.Fatalf("MaxLevels %d accepted", lv)
		}
	}
	for _, lv := range []int{0, 2, 64} {
		g, err := NewGlobal(GlobalConfig{Shards: shards, MaxLevels: lv})
		if err != nil {
			t.Fatalf("MaxLevels %d refused: %v", lv, err)
		}
		g.Close()
	}
}
