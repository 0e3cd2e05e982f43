package daemon

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"powerstruggle/internal/ctrlplane"
)

func ctrlDaemon(t *testing.T) (*Daemon, *httptest.Server) {
	t.Helper()
	d, err := New(Config{Version: "test-build"})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EnableCtrl(CtrlConfig{ServerID: 0}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)
	return d, srv
}

func postCtrl(t *testing.T, url string, v any, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// The daemon's /ctrl surface: assigns apply the cap and dedup by
// sequence, scrapes report the wire schema with the build version, and
// misdirected messages bounce with 400.
func TestDaemonCtrlEndpoints(t *testing.T) {
	d, srv := ctrlDaemon(t)

	var ack ctrlplane.AssignResponse
	req := ctrlplane.AssignRequest{V: ctrlplane.ProtocolV, Epoch: 1, Seq: 1, Server: 0, T: 0, CapW: 70}
	if code := postCtrl(t, srv.URL+ctrlplane.PathAssign, req, &ack); code != http.StatusOK {
		t.Fatalf("assign: %d", code)
	}
	if !ack.Applied || ack.Fenced {
		t.Fatalf("assign ack %+v", ack)
	}
	if err := d.Advance(0.5); err != nil {
		t.Fatal(err)
	}
	if got := d.health().CapW; got != 70 {
		t.Fatalf("cap %g after assign", got)
	}

	// Duplicate sequence: acknowledged, not applied.
	req.CapW = 30
	if code := postCtrl(t, srv.URL+ctrlplane.PathAssign, req, &ack); code != http.StatusOK {
		t.Fatal("duplicate assign rejected at transport")
	}
	if ack.Applied {
		t.Fatal("duplicate assign applied")
	}

	// Misdirected assign and lease.
	req.Seq, req.Server = 2, 5
	if code := postCtrl(t, srv.URL+ctrlplane.PathAssign, req, nil); code != http.StatusBadRequest {
		t.Fatalf("misdirected assign: %d", code)
	}
	lease := ctrlplane.LeaseRequest{V: ctrlplane.ProtocolV, Epoch: 1, Server: 5, T: 1}
	if code := postCtrl(t, srv.URL+ctrlplane.PathLease, lease, nil); code != http.StatusBadRequest {
		t.Fatalf("misdirected lease: %d", code)
	}

	// Scrape: wire-valid, versioned, curveless (a live daemon cannot
	// pre-characterize its churning mix).
	resp, err := http.Get(srv.URL + ctrlplane.PathReport + "?t=42")
	if err != nil {
		t.Fatal(err)
	}
	body, err := ctrlplane.ReadBody(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: %d %v", resp.StatusCode, err)
	}
	rep, err := ctrlplane.DecodeReport(body)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Server != 0 || rep.Version != "test-build" || len(rep.UtilityCurve) != 0 {
		t.Fatalf("report %+v", rep)
	}

	// Health carries the version and the ctrl state.
	h := d.health()
	if h.Version != "test-build" || !h.CtrlEnabled {
		t.Fatalf("health %+v", h)
	}
}

// A failed cap application must not consume the sequence number. A 0 W
// cap is wire-valid (replay agents accept it) but the daemon's
// simulation rejects it, so the coordinator gets a 500 and retries the
// same seq — and the retry must apply rather than be dropped as stale,
// or the wrong cap would persist for the rest of the run.
func TestDaemonCtrlFailedAssignKeepsSeq(t *testing.T) {
	d, srv := ctrlDaemon(t)
	req := ctrlplane.AssignRequest{V: ctrlplane.ProtocolV, Epoch: 1, Seq: 1, Server: 0, T: 0, CapW: 0, LeaseS: 10}
	if code := postCtrl(t, srv.URL+ctrlplane.PathAssign, req, nil); code != http.StatusInternalServerError {
		t.Fatalf("0 W assign: %d, want 500", code)
	}
	h := d.health()
	if h.CtrlStaleDrops != 0 {
		t.Fatalf("failed assign counted as a stale drop: %+v", h)
	}

	// The coordinator's retry carries the same seq with a fixed cap.
	req.CapW = 70
	var ack ctrlplane.AssignResponse
	if code := postCtrl(t, srv.URL+ctrlplane.PathAssign, req, &ack); code != http.StatusOK {
		t.Fatalf("retried assign: %d", code)
	}
	if !ack.Applied {
		t.Fatal("retry of a failed assign dropped as stale — the seq was consumed")
	}
	if err := d.Advance(0.5); err != nil {
		t.Fatal(err)
	}
	if got := d.health().CapW; got != 70 {
		t.Fatalf("cap %g after retried assign, want 70", got)
	}
}

// The daemon's ctrl surface applies the same (epoch, seq) fencing as
// the replay agent: a new epoch's grant applies even with a lower seq,
// and anything from an older epoch is acknowledged without effect —
// including renewals, which must not keep a deposed leader's budget
// alive.
func TestDaemonCtrlEpochFencing(t *testing.T) {
	d, srv := ctrlDaemon(t)

	var ack ctrlplane.AssignResponse
	req := ctrlplane.AssignRequest{V: ctrlplane.ProtocolV, Epoch: 2, Seq: 9, Server: 0, T: 0, CapW: 70, LeaseS: 100}
	if code := postCtrl(t, srv.URL+ctrlplane.PathAssign, req, &ack); code != http.StatusOK || !ack.Applied {
		t.Fatalf("epoch-2 grant: %d %+v", code, ack)
	}

	// A delayed epoch-1 grant with a huge seq bounces.
	stale := ctrlplane.AssignRequest{V: ctrlplane.ProtocolV, Epoch: 1, Seq: 999, Server: 0, T: 1, CapW: 95, LeaseS: 100}
	if code := postCtrl(t, srv.URL+ctrlplane.PathAssign, stale, &ack); code != http.StatusOK {
		t.Fatalf("stale-epoch grant: %d", code)
	}
	if ack.Applied {
		t.Fatal("stale-epoch grant applied")
	}
	h := d.health()
	if h.CtrlEpoch != 2 || h.CtrlEpochDrops != 1 {
		t.Fatalf("health epoch=%d drops=%d, want 2 and 1", h.CtrlEpoch, h.CtrlEpochDrops)
	}

	// An old epoch's renewal answers with the live epoch and extends
	// nothing.
	lease := ctrlplane.LeaseRequest{V: ctrlplane.ProtocolV, Epoch: 1, Server: 0, T: 2, LeaseS: 100}
	var lr ctrlplane.LeaseResponse
	if code := postCtrl(t, srv.URL+ctrlplane.PathLease, lease, &lr); code != http.StatusOK {
		t.Fatalf("stale renewal: %d", code)
	}
	if lr.Epoch != 2 {
		t.Fatalf("stale renewal answered epoch %d, want 2", lr.Epoch)
	}
	if d.health().CtrlEpochDrops != 2 {
		t.Fatalf("stale renewal not counted: %+v", d.health())
	}

	// The next leader's first grant carries a lower seq — (epoch, seq)
	// ordering applies it anyway.
	next := ctrlplane.AssignRequest{V: ctrlplane.ProtocolV, Epoch: 3, Seq: 1, Server: 0, T: 3, CapW: 60, LeaseS: 100}
	if code := postCtrl(t, srv.URL+ctrlplane.PathAssign, next, &ack); code != http.StatusOK || !ack.Applied {
		t.Fatalf("epoch-3 grant: %d %+v", code, ack)
	}
	if err := d.Advance(0.5); err != nil {
		t.Fatal(err)
	}
	if got := d.health().CapW; got != 60 {
		t.Fatalf("cap %g after epoch-3 grant, want 60", got)
	}
}

// A wall-clock lease that lapses without renewal must fence the daemon
// to its fail-safe cap on the next advance.
func TestDaemonCtrlLeaseFence(t *testing.T) {
	d, srv := ctrlDaemon(t)
	req := ctrlplane.AssignRequest{V: ctrlplane.ProtocolV, Epoch: 1, Seq: 1, Server: 0, T: 0, CapW: 90, LeaseS: 0.05}
	if code := postCtrl(t, srv.URL+ctrlplane.PathAssign, req, nil); code != http.StatusOK {
		t.Fatalf("assign: %d", code)
	}
	if err := d.Advance(0.1); err != nil {
		t.Fatal(err)
	}
	if h := d.health(); h.CtrlFenced {
		t.Fatal("fenced before the lease lapsed")
	}

	// A renewal pushes the lapse out.
	lease := ctrlplane.LeaseRequest{V: ctrlplane.ProtocolV, Epoch: 1, Server: 0, T: 1, LeaseS: 0.05}
	var lr ctrlplane.LeaseResponse
	if code := postCtrl(t, srv.URL+ctrlplane.PathLease, lease, &lr); code != http.StatusOK || lr.Fenced {
		t.Fatalf("renew: %d %+v", code, lr)
	}

	time.Sleep(80 * time.Millisecond)
	if err := d.Advance(0.1); err != nil {
		t.Fatal(err)
	}
	h := d.health()
	if !h.CtrlFenced || h.CtrlFences != 1 {
		t.Fatalf("after lapse: %+v", h)
	}
	// The fence is queued like any cap-change event and lands on the
	// next simulation tick.
	if err := d.Advance(0.1); err != nil {
		t.Fatal(err)
	}
	if h := d.health(); h.CapW != d.hw.PIdleWatts {
		t.Fatalf("fence cap %g, want the idle floor %g", h.CapW, d.hw.PIdleWatts)
	}

	// Only a fresh assign unfences.
	req.Seq, req.CapW, req.LeaseS = 2, 80, 10
	var ack ctrlplane.AssignResponse
	if code := postCtrl(t, srv.URL+ctrlplane.PathAssign, req, &ack); code != http.StatusOK || !ack.Applied {
		t.Fatalf("re-assign: %d %+v", code, ack)
	}
	if err := d.Advance(0.1); err != nil {
		t.Fatal(err)
	}
	if h := d.health(); h.CtrlFenced || h.CapW != 80 {
		t.Fatalf("after re-assign: %+v", h)
	}
}

// A lapsed lease with safe mode enabled must hold the granted cap,
// decay it toward the configured floor on the wall clock, surface the
// degradation on /healthz, and clear on a fresh assign — never cliff
// to the fence cap.
func TestDaemonCtrlSafeModeDecay(t *testing.T) {
	d, err := New(Config{Version: "test-build"})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EnableCtrl(CtrlConfig{
		ServerID: 0,
		SafeMode: ctrlplane.SafeModeConfig{HoldS: 0.05, DecayWPerS: 200, FloorW: 66},
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(srv.Close)

	req := ctrlplane.AssignRequest{V: ctrlplane.ProtocolV, Epoch: 1, Seq: 1, Server: 0, T: 0, CapW: 90, LeaseS: 0.05}
	if code := postCtrl(t, srv.URL+ctrlplane.PathAssign, req, nil); code != http.StatusOK {
		t.Fatalf("assign: %d", code)
	}
	h := d.health()
	if !h.CtrlLeased || h.CtrlLeaseExpiresInS <= 0 || h.CtrlLeaseExpiresInS > 0.05 {
		t.Fatalf("lease freshness after grant: leased=%v expiresIn=%g", h.CtrlLeased, h.CtrlLeaseExpiresInS)
	}

	// Lapse: the daemon enters safe mode holding the 90 W grant — the
	// cap must not cliff to the idle-floor fence.
	time.Sleep(60 * time.Millisecond)
	if err := d.Advance(0.1); err != nil {
		t.Fatal(err)
	}
	h = d.health()
	if !h.CtrlSafeMode || !h.CtrlFenced || h.CtrlSafeModeEntries != 1 {
		t.Fatalf("after lapse: %+v", h)
	}
	if h.CapW != 90 {
		t.Fatalf("held cap %g W right after lapse, want 90", h.CapW)
	}
	if !h.CtrlLeaseExpired || h.CtrlLeaseExpiresInS != 0 {
		t.Fatalf("lease reported fresh (expired=%v expiresIn=%g) after lapsing", h.CtrlLeaseExpired, h.CtrlLeaseExpiresInS)
	}

	// Past the hold window the decay walks the cap to the floor (200
	// W/s closes the 24 W gap in ~0.12 s; 400 ms is deep inside the
	// pinned-at-floor regime).
	time.Sleep(400 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if err := d.Advance(0.1); err != nil {
			t.Fatal(err)
		}
	}
	h = d.health()
	if h.CapW != 66 || h.CtrlSafeModeCapW != 66 {
		t.Fatalf("decayed cap %g W (ledger %g), want the 66 W floor", h.CapW, h.CtrlSafeModeCapW)
	}
	if !h.CtrlSafeMode {
		t.Fatal("safe mode dropped while still leaderless")
	}

	// A fresh assign restores normal operation and re-arms the lease.
	req.Seq, req.CapW, req.LeaseS = 2, 80, 10
	var ack ctrlplane.AssignResponse
	if code := postCtrl(t, srv.URL+ctrlplane.PathAssign, req, &ack); code != http.StatusOK || !ack.Applied {
		t.Fatalf("re-assign: %d %+v", code, ack)
	}
	if ack.SafeMode {
		t.Fatal("assign ack still flags safe mode")
	}
	if err := d.Advance(0.1); err != nil {
		t.Fatal(err)
	}
	h = d.health()
	if h.CtrlSafeMode || h.CtrlFenced || h.CapW != 80 {
		t.Fatalf("after re-assign: %+v", h)
	}
	if !h.CtrlLeased || h.CtrlLeaseExpiresInS <= 0 {
		t.Fatalf("lease freshness after re-assign: %+v", h)
	}
}

// Acks and renewals carry the committed cap — the in-force assignment
// — even before the next Advance lands it on the executor. Otherwise
// the coordinator books a retried duplicate of its own grant as a
// refusal and turns a renewal into a re-assign.
func TestDaemonCtrlAckCarriesCommittedCap(t *testing.T) {
	d, srv := ctrlDaemon(t)
	if err := d.Advance(0.5); err != nil {
		t.Fatal(err)
	}
	boot := d.status().CapW
	req := ctrlplane.AssignRequest{V: ctrlplane.ProtocolV, Epoch: 1, Seq: 1, Server: 0, T: 0, CapW: 70, LeaseS: 100}
	var ack ctrlplane.AssignResponse
	if code := postCtrl(t, srv.URL+ctrlplane.PathAssign, req, &ack); code != http.StatusOK || !ack.Applied {
		t.Fatalf("assign: %d %+v", code, ack)
	}
	if ack.CapW != 70 {
		t.Fatalf("assign ack cap %g W, want the granted 70 (boot cap %g)", ack.CapW, boot)
	}
	// The coordinator's retry of the same grant, before any Advance.
	if code := postCtrl(t, srv.URL+ctrlplane.PathAssign, req, &ack); code != http.StatusOK || ack.Applied {
		t.Fatalf("duplicate: %d %+v", code, ack)
	}
	if ack.Epoch != 1 || ack.CapW != 70 {
		t.Fatalf("duplicate ack epoch %d cap %g W, want epoch 1 at the in-force 70 W", ack.Epoch, ack.CapW)
	}
	lease := ctrlplane.LeaseRequest{V: ctrlplane.ProtocolV, Epoch: 1, Server: 0, T: 1, LeaseS: 100}
	var lr ctrlplane.LeaseResponse
	if code := postCtrl(t, srv.URL+ctrlplane.PathLease, lease, &lr); code != http.StatusOK {
		t.Fatalf("renew: %d", code)
	}
	if lr.Fenced || lr.Epoch != 1 || lr.CapW != 70 {
		t.Fatalf("renewal %+v, want unfenced epoch 1 at 70 W", lr)
	}
}

// The scrape route validates the coordinator clock like the agent's:
// a non-finite or negative ?t= is a 400, a well-formed one is accepted
// and ignored.
func TestDaemonCtrlReportRejectsBadClock(t *testing.T) {
	_, srv := ctrlDaemon(t)
	for _, ts := range []string{"NaN", "-1", "Inf", "-Inf", "abc"} {
		resp, err := http.Get(srv.URL + ctrlplane.PathReport + "?t=" + ts)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("?t=%s: %d, want 400", ts, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + ctrlplane.PathReport + "?t=42")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("?t=42: %d, want 200", resp.StatusCode)
	}
}
