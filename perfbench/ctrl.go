package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"powerstruggle/internal/cluster"
	"powerstruggle/internal/ctrlplane"
	"powerstruggle/internal/trace"
)

// Control-plane fleet constants. Every member is the drill's platform:
// a 45 W idle floor and a 61 W nameplate, characterized on the shared
// 2 W grid (9 curve points).
const (
	floorW     = 45.0
	nameplateW = 61.0
	// intervalS is the control interval in trace seconds; sim_speed on
	// the control-plane workloads is intervals per host second.
	intervalS = 1.0
	// leaseIntervals is the agent draw lease. It is also the grace
	// after a cap drop during which the enforced caps may still sum
	// above the new cap.
	leaseIntervals = 2
	// fanOut bounds every coordinator's fan-out width: the reference
	// host has two cores.
	fanOut = 2
	// capEps absorbs float accumulation across a fleet-wide sum.
	capEps = 1e-6
	// Demand-response cap cuts: every cutEvery-th interval, removing
	// cutFrac of the cap's dynamic part for that interval. A one-interval
	// cut still times the tree end to end: the global grants it at the
	// end of its interval and the shards enforce it early in the next,
	// before the cap recovers.
	cutEvery = 3
	cutFrac  = 0.4
)

// server stands in for one mediated server behind an agent: it draws
// min(demand, cap) (never below the idle floor while powered) and
// delivers its utility curve's performance at that draw.
type server struct {
	mu      sync.Mutex
	curve   []cluster.CapPoint
	demandW float64
}

func (s *server) Apply(capW float64) (float64, float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	eff := math.Min(capW, nameplateW)
	var draw float64
	switch {
	case eff <= 0:
	case eff < floorW:
		draw = eff
	default:
		draw = math.Min(math.Max(s.demandW, floorW), eff)
	}
	return perfAt(s.curve, draw), draw, nil
}

func (s *server) SoC() float64        { return 0.5 }
func (s *server) IdleFloorW() float64 { return floorW }
func (s *server) NameplateW() float64 { return nameplateW }

func (s *server) UtilityCurve() ([]cluster.CapPoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.curve, nil
}

func (s *server) setDemand(w float64) {
	s.mu.Lock()
	s.demandW = w
	s.mu.Unlock()
}

func (s *server) setCurve(c []cluster.CapPoint) {
	s.mu.Lock()
	s.curve = c
	s.mu.Unlock()
}

// perfAt interpolates a curve's performance at draw w (0 at or below
// the floor).
func perfAt(curve []cluster.CapPoint, w float64) float64 {
	if len(curve) == 0 || w <= curve[0].CapW {
		return 0
	}
	for i := 1; i < len(curve); i++ {
		if w <= curve[i].CapW {
			lo, hi := curve[i-1], curve[i]
			return lo.Perf + (hi.Perf-lo.Perf)*(w-lo.CapW)/(hi.CapW-lo.CapW)
		}
	}
	return curve[len(curve)-1].Perf
}

// randomCurve draws a concave cap→performance curve on the 2 W grid:
// perf = scale·(1−e^{−(w−floor)/k}) normalized to scale at nameplate,
// so members differ in both how much and how early each watt pays.
func randomCurve(rng *rand.Rand) []cluster.CapPoint {
	scale := 0.5 + rng.Float64()
	k := 4 + 16*rng.Float64()
	norm := 1 - math.Exp(-(nameplateW-floorW)/k)
	var pts []cluster.CapPoint
	for w := floorW; w <= nameplateW+1e-9; w += cluster.ServerCapStepW {
		pts = append(pts, cluster.CapPoint{CapW: w, Perf: scale * (1 - math.Exp(-(w-floorW)/k)) / norm, GridW: w})
	}
	return pts
}

// capTrace returns n cluster caps following the paper's Fig. 12
// traffic over one day: a seeded diurnal load over the fleet's dynamic
// range (floor to nameplate), its peak shaved by 30%. The cap tracks
// the load below the shaving ceiling and holds the ceiling above it,
// so plateau intervals renew leases and the rest re-assign. On top,
// every cutEvery-th interval a demand-response event cuts the cap's
// dynamic part by cutFrac for that interval; cut[k] marks those
// intervals, the drops safe_ms times. The cuts' phase is fixed: where
// they fall against the saturation waves sets how far the shards' DP
// caches grow, and with it peak_heap_mb.
func capTrace(seed int64, n, agents int) (caps []float64, cut []bool, err error) {
	step := 86400 / float64(n)
	load, err := trace.DiurnalLoad(trace.Config{Seed: seed, StepSeconds: step, Seconds: step * (float64(n) + 0.5)})
	if err != nil {
		return nil, nil, err
	}
	if len(load) < n {
		return nil, nil, fmt.Errorf("diurnal trace has %d points, want %d", len(load), n)
	}
	floorSum := float64(agents) * floorW
	dynW := float64(agents) * (nameplateW - floorW)
	dyn := make([]trace.Point, n)
	for i := range dyn {
		dyn[i] = trace.Point{T: load[i].T, V: load[i].V * dynW}
	}
	shaved, err := trace.PeakShaveCaps(dyn, 0.3, dynW)
	if err != nil {
		return nil, nil, err
	}
	caps, cut = make([]float64, n), make([]bool, n)
	for i := range caps {
		v := math.Min(dyn[i].V, shaved[i].V)
		if cut[i] = i%cutEvery == cutEvery-1; cut[i] {
			v *= 1 - cutFrac
		}
		caps[i] = floorSum + v
	}
	return caps, cut, nil
}

// endpoint wraps an agent on the listener: it records the agent-serve
// spans and counts on traced rounds, and — for a fleet whose curves
// drift, as a learning fleet's do — reports the server's current curve
// in place of the one the agent characterized at boot.
type endpoint struct {
	a      *ctrlplane.Agent
	srv    *server
	tr     *tracer
	drifts bool
}

func (e *endpoint) Scrape(t float64, hasT bool) (ctrlplane.Report, error) {
	var t0 time.Time
	if e.tr != nil {
		t0 = time.Now()
	}
	rep, err := e.a.Scrape(t, hasT)
	if err == nil && e.drifts {
		rep.UtilityCurve, _ = e.srv.UtilityCurve()
	}
	if e.tr != nil {
		e.tr.child(spanAgentServe, e.a.ID(), t0, time.Now())
		e.tr.scrapes.Add(1)
	}
	return rep, err
}

func (e *endpoint) Assign(req ctrlplane.AssignRequest) (ctrlplane.AssignResponse, error) {
	if e.tr == nil {
		return e.a.Assign(req)
	}
	before := e.a.CapW()
	t0 := time.Now()
	resp, err := e.a.Assign(req)
	e.tr.child(spanAgentServe, e.a.ID(), t0, time.Now())
	e.tr.assigns.Add(1)
	if err == nil && resp.Applied && resp.CapW != before {
		e.tr.usefulAssigns.Add(1)
	}
	return resp, err
}

func (e *endpoint) Renew(req ctrlplane.LeaseRequest) (ctrlplane.LeaseResponse, error) {
	if e.tr == nil {
		return e.a.Renew(req)
	}
	t0 := time.Now()
	resp, err := e.a.Renew(req)
	e.tr.child(spanAgentServe, e.a.ID(), t0, time.Now())
	e.tr.renews.Add(1)
	return resp, err
}

// fleet is a set of agents, each over a stand-in server, all behind
// one binary listener.
type fleet struct {
	servers []*server
	agents  []*ctrlplane.Agent
	srv     *ctrlplane.BinaryServer
}

// newFleet boots one agent per server behind a single listener.
func newFleet(servers []*server, tr *tracer, drifts bool) (*fleet, error) {
	f := &fleet{servers: servers}
	eps := make(map[int]ctrlplane.CtrlEndpoint, len(servers))
	for i, s := range servers {
		a, err := ctrlplane.NewAgent(ctrlplane.AgentConfig{ID: i, Backend: s, Version: "perfbench"})
		if err != nil {
			return nil, err
		}
		f.agents = append(f.agents, a)
		eps[i] = &endpoint{a: a, srv: s, tr: tr, drifts: drifts}
	}
	srv, err := ctrlplane.StartBinaryServer("127.0.0.1:0", ctrlplane.BinaryServerConfig{Endpoints: eps})
	if err != nil {
		return nil, err
	}
	f.srv = srv
	return f, nil
}

func (f *fleet) refs(from, to int) []ctrlplane.AgentRef {
	refs := make([]ctrlplane.AgentRef, 0, to-from)
	for i := from; i < to; i++ {
		refs = append(refs, ctrlplane.AgentRef{ID: i, URL: f.srv.URL()})
	}
	return refs
}

// tick advances the agents' own lease clocks to trace time t, as each
// server's daemon loop does between control intervals.
func (f *fleet) tick(t float64) error {
	for _, a := range f.agents {
		if err := a.Tick(t); err != nil {
			return err
		}
	}
	return nil
}

// enforcedW sums the caps agents [from, to) enforce.
func (f *fleet) enforcedW(from, to int) float64 {
	var sum float64
	for _, a := range f.agents[from:to] {
		sum += a.CapW()
	}
	return sum
}

func (f *fleet) perf() float64 {
	var sum float64
	for _, a := range f.agents {
		sum += a.PerfN()
	}
	return sum
}

func (f *fleet) curves(from, to int) [][]cluster.CapPoint {
	out := make([][]cluster.CapPoint, 0, to-from)
	for _, s := range f.servers[from:to] {
		c, _ := s.UtilityCurve()
		out = append(out, c)
	}
	return out
}

// capDrops tracks the cap drops of a control-plane episode. Every drop
// opens a one-lease grace for the cap invariant. A demand-response cut
// is also timed: if the caps in force exceed the cut cap when it enters
// the control plane, its safe time is the host time of the calls from
// then until the enforced caps fit under it.
type capDrops struct {
	pending []capDrop
	capW    float64 // cap in force (0 before the first step)
	lastK   int     // step of the latest drop (grace window start)
}

type capDrop struct {
	capW float64
	k    int
	ns   int64
}

// enter hands the control plane step k's cap; timed marks a
// demand-response cut. A higher cap supersedes pending drops to lower
// ones.
func (d *capDrops) enter(k int, capW, enforcedW float64, timed bool) {
	kept := d.pending[:0]
	for _, p := range d.pending {
		if p.capW >= capW {
			kept = append(kept, p)
		}
	}
	d.pending = kept
	if capW < d.capW {
		d.lastK = k
		if timed && enforcedW > capW+capEps {
			d.pending = append(d.pending, capDrop{capW: capW, k: k})
		}
	}
	d.capW = capW
}

// elapse charges ns of call time to every pending drop and returns the
// safe times of those the enforced sum now satisfies.
func (d *capDrops) elapse(ns int64, enforcedW float64) []int64 {
	var safe []int64
	kept := d.pending[:0]
	for _, p := range d.pending {
		p.ns += ns
		if enforcedW <= p.capW+capEps {
			safe = append(safe, p.ns)
			continue
		}
		kept = append(kept, p)
	}
	d.pending = kept
	return safe
}

// check applies the cap invariant at the end of step k: the enforced
// caps fit under the cap, except inside the one-lease grace after a
// drop, and no drop stays unsafe for longer than that grace.
func (d *capDrops) check(k int, capW, enforcedW float64, fp *fingerprint) string {
	fp.capN++
	if enforcedW <= capW+capEps {
		fp.capOK++
		return ""
	}
	for _, p := range d.pending {
		if k-p.k >= leaseIntervals {
			return fmt.Sprintf("cap %.1f W cut at step %d still unsafe: enforced caps sum to %.1f W", p.capW, p.k, enforcedW)
		}
	}
	if k-d.lastK >= leaseIntervals {
		return fmt.Sprintf("enforced caps sum to %.1f W over cap %.1f W outside the grace", enforcedW, capW)
	}
	return ""
}

// grantProblem checks a leading step: no RPC errors and every live
// member granted within budgetW.
func grantProblem(res ctrlplane.StepResult, budgetW float64) string {
	if res.ScrapeErrs != 0 || res.AssignErrs != 0 {
		return fmt.Sprintf("%d scrape and %d assign RPC errors", res.ScrapeErrs, res.AssignErrs)
	}
	var sum float64
	for i, g := range res.Granted {
		if res.Alive[i] && !g {
			return fmt.Sprintf("live member %d not granted", i)
		}
		if g {
			sum += res.Budgets[i]
		}
	}
	if sum > budgetW+capEps {
		return fmt.Sprintf("granted %.3f W over budget %.3f W", sum, budgetW)
	}
	return ""
}
