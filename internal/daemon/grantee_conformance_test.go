package daemon

import (
	"context"
	"math"
	"testing"

	"powerstruggle/internal/ctrlplane"
)

// leaseView is one grantee's lease ledger as its public surface shows
// it. skew is NaN where the holder does not report one.
type leaseView struct {
	epoch  uint64
	iv     uint64
	lapsed bool
	skew   float64
}

// grantee adapts one lease holder to the conformance script. The
// script speaks in coordinator trace time t; psd's injected clock is
// moved to t before every event, so all three lease clocks read the
// same instant.
type grantee interface {
	grant(req ctrlplane.AssignRequest) (applied bool)
	renew(req ctrlplane.LeaseRequest)
	tick(t float64)
	view() leaseView
}

type agentGrantee struct{ a *ctrlplane.Agent }

func (g agentGrantee) grant(req ctrlplane.AssignRequest) bool {
	resp, err := g.a.Assign(req)
	if err != nil {
		panic(err)
	}
	return resp.Applied
}

func (g agentGrantee) renew(req ctrlplane.LeaseRequest) {
	if _, err := g.a.Renew(req); err != nil {
		panic(err)
	}
}

func (g agentGrantee) tick(t float64) {
	if err := g.a.Tick(t); err != nil {
		panic(err)
	}
}

func (g agentGrantee) view() leaseView {
	return leaseView{epoch: g.a.LastEpoch(), iv: g.a.LastIv(), lapsed: g.a.Fenced(), skew: g.a.ClockSkewIv()}
}

type psdGrantee struct {
	d   *Daemon
	ep  ctrlplane.CtrlEndpoint
	clk *drillClock
}

func (g psdGrantee) grant(req ctrlplane.AssignRequest) bool {
	g.clk.set(req.T)
	resp, err := g.ep.Assign(req)
	if err != nil {
		panic(err)
	}
	return resp.Applied
}

func (g psdGrantee) renew(req ctrlplane.LeaseRequest) {
	g.clk.set(req.T)
	if _, err := g.ep.Renew(req); err != nil {
		panic(err)
	}
}

func (g psdGrantee) tick(t float64) {
	g.clk.set(t)
	if err := g.d.Advance(0.05); err != nil {
		panic(err)
	}
}

func (g psdGrantee) view() leaseView {
	h := g.d.health()
	return leaseView{epoch: h.CtrlEpoch, iv: h.CtrlIv, lapsed: h.CtrlFenced, skew: h.CtrlClockSkewIv}
}

// shardGrantee drives a shard's budget lease: grants are ShardBudget
// requests, ticks are shard steps, and lapsed means starved. The shard
// has no renewal RPC (the global re-grants) and reports no skew.
type shardGrantee struct {
	s    *ctrlplane.ShardCoordinator
	last ctrlplane.ShardBudgetResponse
}

func (g *shardGrantee) grant(req ctrlplane.AssignRequest) bool {
	resp, err := g.s.ApplyBudget(ctrlplane.ShardBudgetRequest{V: ctrlplane.ProtocolV, Epoch: req.Epoch, Seq: req.Seq,
		T: req.T, CapW: req.CapW, LeaseS: req.LeaseS, Iv: req.Iv, LeaseIv: req.LeaseIv, IvS: req.IvS})
	if err != nil {
		panic(err)
	}
	g.last = resp
	return resp.Applied
}

func (g *shardGrantee) renew(ctrlplane.LeaseRequest) {
	panic("shard budgets are re-granted, not renewed")
}

func (g *shardGrantee) tick(t float64) {
	if _, err := g.s.Step(context.Background(), t); err != nil {
		panic(err)
	}
}

func (g *shardGrantee) view() leaseView {
	return leaseView{epoch: g.last.Epoch, iv: g.last.Iv, lapsed: g.s.Starved(), skew: math.NaN()}
}

// granteeStep is one scripted event and the verdict every holder must
// reach after it. A grant or renewal is sent when epoch > 0 (renew
// set for a renewal); otherwise the holders tick to t. skewSign is
// checked when nonzero.
type granteeStep struct {
	name        string
	t           float64
	epoch, seq  uint64
	renew       bool
	terms       ctrlplane.LeaseTerms
	wantApplied bool
	want        leaseView
	skewSign    int
}

// TestGranteeConformance drives the replay agent, psd and the shard
// coordinator through one event script per case and asserts that every
// holder of the lease ledger reaches the same verdict at every step:
// (epoch, seq) fencing, renewal rules, lease lapse at its exact
// boundary on seconds and on the protocol clock, and skew sign.
// Renewal and skew cases leave the shard out: it has neither.
func TestGranteeConformance(t *testing.T) {
	secs := ctrlplane.LeaseTerms{LeaseS: 10}
	clock := func(iv uint64) ctrlplane.LeaseTerms {
		return ctrlplane.LeaseTerms{Iv: iv, LeaseIv: 2, IvS: 10}
	}
	cases := []struct {
		name  string
		shard bool
		steps []granteeStep
	}{
		{name: "fencing", shard: true, steps: []granteeStep{
			{name: "fresh grant", t: 0, epoch: 1, seq: 1, terms: secs, wantApplied: true,
				want: leaseView{epoch: 1}},
			{name: "duplicate seq", t: 1, epoch: 1, seq: 1, terms: secs,
				want: leaseView{epoch: 1}},
			{name: "newer epoch, lower seq", t: 2, epoch: 2, seq: 1, terms: secs, wantApplied: true,
				want: leaseView{epoch: 2}},
			{name: "older epoch", t: 3, epoch: 1, seq: 9, terms: secs,
				want: leaseView{epoch: 2}},
		}},
		{name: "seconds lease boundary", shard: true, steps: []granteeStep{
			{name: "grant", t: 100, epoch: 1, seq: 1, terms: secs, wantApplied: true,
				want: leaseView{epoch: 1}},
			{name: "just inside the lease", t: 109.5, want: leaseView{epoch: 1}},
			{name: "exactly at expiry", t: 110, want: leaseView{epoch: 1, lapsed: true}},
			{name: "a fresh grant clears the lapse", t: 111, epoch: 1, seq: 2, terms: secs, wantApplied: true,
				want: leaseView{epoch: 1}},
		}},
		{name: "renewal from a newer epoch before its first assign", steps: []granteeStep{
			{name: "grant", t: 0, epoch: 1, seq: 1, terms: secs, wantApplied: true,
				want: leaseView{epoch: 1}},
			{name: "epoch-2 renewal", t: 5, epoch: 2, renew: true, terms: secs,
				want: leaseView{epoch: 1}},
			{name: "the renewal extended nothing", t: 10, want: leaseView{epoch: 1, lapsed: true}},
		}},
		{name: "renewal extends the lease", steps: []granteeStep{
			{name: "grant", t: 0, epoch: 1, seq: 1, terms: secs, wantApplied: true,
				want: leaseView{epoch: 1}},
			{name: "renewal", t: 5, epoch: 1, renew: true, terms: secs,
				want: leaseView{epoch: 1}},
			{name: "past the granted expiry", t: 12, want: leaseView{epoch: 1}},
			{name: "at the renewed expiry", t: 15, want: leaseView{epoch: 1, lapsed: true}},
		}},
		{name: "protocol-clock stall", shard: true, steps: []granteeStep{
			{name: "grant in iv 1", t: 0, epoch: 1, seq: 1, terms: clock(1), wantApplied: true,
				want: leaseView{epoch: 1, iv: 1}},
			{name: "grant in iv 2", t: 10, epoch: 1, seq: 2, terms: clock(2), wantApplied: true,
				want: leaseView{epoch: 1, iv: 2}},
			{name: "stalled one interval", t: 29.9, want: leaseView{epoch: 1, iv: 2}},
			{name: "stalled to the boundary", t: 30, want: leaseView{epoch: 1, iv: 2, lapsed: true}},
		}},
		{name: "skew sign", steps: []granteeStep{
			{name: "grant in iv 1", t: 0, epoch: 1, seq: 1, terms: clock(1), wantApplied: true,
				want: leaseView{epoch: 1, iv: 1}},
			{name: "slow grantor", t: 30, epoch: 1, seq: 2, terms: clock(2), wantApplied: true,
				want: leaseView{epoch: 1, iv: 2}, skewSign: 1},
			{name: "fast grantor", t: 35, epoch: 1, seq: 3, terms: clock(5), wantApplied: true,
				want: leaseView{epoch: 1, iv: 5}, skewSign: -1},
		}},
	}
	ev := drillEvaluator(t, 1)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := ctrlplane.NewAgent(ctrlplane.AgentConfig{ID: 0, Backend: ctrlplane.NewSimBackend(ev, 0)})
			if err != nil {
				t.Fatal(err)
			}
			clk := &drillClock{}
			d, err := New(Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.EnableCtrl(CtrlConfig{ServerID: 0, Clock: clk.now}); err != nil {
				t.Fatal(err)
			}
			ep, err := d.CtrlEndpoint()
			if err != nil {
				t.Fatal(err)
			}
			holders := map[string]grantee{"agent": agentGrantee{a}, "psd": psdGrantee{d, ep, clk}}
			if tc.shard {
				coord, err := ctrlplane.New(ctrlplane.Config{Dynamic: true})
				if err != nil {
					t.Fatal(err)
				}
				defer coord.Close()
				sc, err := ctrlplane.NewShardCoordinator(coord, ctrlplane.ShardConfig{InitialBudgetW: 90})
				if err != nil {
					t.Fatal(err)
				}
				holders["shard"] = &shardGrantee{s: sc}
			}
			for _, s := range tc.steps {
				for name, g := range holders {
					applied := false
					switch {
					case s.epoch > 0 && s.renew:
						g.renew(ctrlplane.LeaseRequest{V: ctrlplane.ProtocolV, Epoch: s.epoch, T: s.t,
							LeaseS: s.terms.LeaseS, Iv: s.terms.Iv, LeaseIv: s.terms.LeaseIv, IvS: s.terms.IvS})
					case s.epoch > 0:
						applied = g.grant(ctrlplane.AssignRequest{V: ctrlplane.ProtocolV, Epoch: s.epoch, Seq: s.seq,
							T: s.t, CapW: 90, LeaseS: s.terms.LeaseS, Iv: s.terms.Iv, LeaseIv: s.terms.LeaseIv, IvS: s.terms.IvS})
					default:
						g.tick(s.t)
					}
					got := g.view()
					if applied != s.wantApplied || got.epoch != s.want.epoch || got.iv != s.want.iv || got.lapsed != s.want.lapsed {
						t.Errorf("%s: %s: applied=%v epoch=%d iv=%d lapsed=%v, want applied=%v epoch=%d iv=%d lapsed=%v",
							s.name, name, applied, got.epoch, got.iv, got.lapsed,
							s.wantApplied, s.want.epoch, s.want.iv, s.want.lapsed)
					}
					if s.skewSign != 0 && !math.IsNaN(got.skew) && (got.skew > 0) != (s.skewSign > 0) {
						t.Errorf("%s: %s: skew %g, want sign %d", s.name, name, got.skew, s.skewSign)
					}
				}
			}
		})
	}
}
