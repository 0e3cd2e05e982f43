package daemon

import (
	"fmt"
	"net/http"
	"sync"
	"time"

	"powerstruggle/internal/cf"
	"powerstruggle/internal/ctrlplane"
)

// CtrlConfig joins the daemon to a cluster control plane: the daemon
// serves /ctrl/assign, /ctrl/report, and /ctrl/lease, and fences its
// cap when a granted draw lease lapses without renewal.
//
// The daemon keeps the same ctrlplane.Lease ledger as the replay
// agent, but on its own clock: leases are anchored and aged in Clock
// seconds since EnableCtrl at each ticker advance, not in the
// coordinator's trace time. A live daemon's mix churns as
// jobs arrive and finish, so it cannot pre-characterize cap → utility
// the way the replay evaluator can; by default it reports no utility
// curve and the coordinator apportions evenly for curveless members.
// With Learn set it characterizes the running mix online instead,
// reporting the learned curve with confidence meta — the coordinator
// still treats it as curveless until the confidence clears its floor.
type CtrlConfig struct {
	// ServerID is the daemon's fleet index; assigns addressed to any
	// other ID are rejected.
	ServerID int
	// FenceCapW is the cap the daemon clamps itself to when its draw
	// lease lapses (default: the platform idle floor — a powered-on
	// server cannot draw less without host power-off, which the
	// simulated platform does not model).
	FenceCapW float64
	// SafeMode, when enabled (DecayWPerS > 0), replaces the fence cliff
	// with graceful leaderless degradation: hold the cap in force at
	// lease lapse, then decay it toward FloorW (default: the fence
	// cap). Hold and decay run on the daemon's wall clock, like its
	// lease TTL — unless the grants carry a protocol-clock lease, in
	// which case both lapse and decay age by observed coordinator
	// intervals (the nominal interval length stands in for wall time
	// while the coordinator is stalled), bit-identical with the replay
	// agent's aging.
	SafeMode ctrlplane.SafeModeConfig
	// Clock is the daemon's wall-clock source (default time.Now) —
	// injectable so mixed trace+wall drills run deterministically.
	Clock func() time.Time
	// Learn, when non-nil, turns on online utility learning: the daemon
	// self-caps to probe unsampled cap levels (never above its grant),
	// learns cap → heartbeat-rate from the samples the control loop
	// produces anyway, and reports the learned curve with
	// CurveConf/CurveCells meta. FloorW and NameplateW default to the
	// platform idle floor and nameplate.
	Learn *cf.OnlineConfig
	// LearnRateHz overrides the learning observable (default: the summed
	// heartbeat rate of hosted apps in the latest accountant sample). The
	// callback runs with the daemon's simulation lock held — it must not
	// call back into daemon methods.
	LearnRateHz func() float64
}

// safeModeQuantumW batches wall-clock decay into steps the event log
// can carry: re-clamping on every ticker advance for sub-watt deltas
// would flood the cap-change history without changing behavior.
const safeModeQuantumW = 0.5

// ctrlState is the daemon's side of the control plane, guarded by its
// own mutex (taken after d.mu when both are held). The fence, lease and
// protocol clock live in lease, on a lease clock of cfg.Clock seconds
// since EnableCtrl.
type ctrlState struct {
	mu        sync.Mutex
	cfg       CtrlConfig
	fenceCapW float64
	origin    time.Time
	lease     ctrlplane.Lease
	// safeCapW is the safe-mode decay target last clamped.
	safeCapW float64
	// Online-learning state (cfg.Learn): est learns the cap→rate curve,
	// grantW remembers the full grant so a probing daemon can restore
	// it, and lastProbeIv rate-limits probe moves to one per coordinator
	// interval — the cap never flaps within an interval.
	est         *cf.OnlineEstimator
	grantW      float64
	lastProbeIv uint64
}

// nowLocked reads the lease clock.
func (c *ctrlState) nowLocked() float64 { return c.cfg.Clock().Sub(c.origin).Seconds() }

// EnableCtrl attaches control-plane state to the daemon. Call before
// Handler; the daemon boots unfenced at its configured cap and only
// starts fencing once the first lease-carrying assign arrives.
func (d *Daemon) EnableCtrl(cfg CtrlConfig) error {
	if cfg.ServerID < 0 {
		return fmt.Errorf("daemon: ctrl server id %d", cfg.ServerID)
	}
	fence := cfg.FenceCapW
	if fence <= 0 {
		fence = d.hw.PIdleWatts
	}
	if err := cfg.SafeMode.Validate(); err != nil {
		return fmt.Errorf("daemon: %w", err)
	}
	if cfg.SafeMode.Enabled() && cfg.SafeMode.FloorW == 0 {
		cfg.SafeMode.FloorW = fence
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	st := &ctrlState{cfg: cfg, fenceCapW: fence, origin: cfg.Clock()}
	if cfg.Learn != nil {
		lc := *cfg.Learn
		if lc.FloorW == 0 {
			lc.FloorW = d.hw.PIdleWatts
		}
		if lc.NameplateW == 0 {
			lc.NameplateW = d.hw.MaxServerWatts()
		}
		est, err := cf.NewOnlineEstimator(lc)
		if err != nil {
			return fmt.Errorf("daemon: %w", err)
		}
		st.est = est
	}
	d.ctrl = st
	return nil
}

// ctrlFenceCheck fences the cap if the draw lease has lapsed. Called
// from Advance under d.mu, so it applies the clamp through the
// simulation directly.
func (d *Daemon) ctrlFenceCheck() error {
	c := d.ctrl
	if c == nil {
		return nil
	}
	c.mu.Lock()
	l := &c.lease
	now := c.nowLocked()
	if l.SafeMode() {
		// Leaderless degradation in progress. Protocol-clock targets
		// move in interval-sized steps already, so every change is
		// clamped and the step sequence is bit-identical with a replay
		// agent decaying the same lease; wall-clock decay re-clamps only
		// in quantum-sized steps.
		target := l.SafeCap(c.cfg.SafeMode, now)
		apply := c.safeCapW != target
		if !l.ClockMode() {
			apply = c.safeCapW-target >= safeModeQuantumW ||
				(target <= c.cfg.SafeMode.FloorW && c.safeCapW != target)
		}
		if apply {
			c.safeCapW = target
		}
		c.mu.Unlock()
		if !apply {
			return nil
		}
		return d.setCapLocked(target)
	}
	if !l.Expired(now) {
		c.mu.Unlock()
		return nil
	}
	if c.cfg.SafeMode.Enabled() {
		// Enter safe mode holding the cap in force.
		c.safeCapW = d.sim.Executor().Cap()
		l.EnterSafeMode(c.safeCapW)
		c.mu.Unlock()
		return nil
	}
	l.Lapse()
	fence := c.fenceCapW
	c.mu.Unlock()
	return d.setCapLocked(fence)
}

// ctrlLearnStep feeds the online estimator one (enforced cap, observed
// heartbeat rate) sample and — at most once per coordinator interval —
// moves the probe to the estimator's next choice. Rate-limiting probe
// moves to interval boundaries keeps the cap from flapping within an
// interval; a converged estimator's probe is the full grant, so a
// learned-out daemon settles back onto its grants. Called from Advance
// under d.mu, after the fence check.
func (d *Daemon) ctrlLearnStep() error {
	c := d.ctrl
	if c == nil || c.est == nil {
		return nil
	}
	c.mu.Lock()
	if !c.lease.Live() {
		c.mu.Unlock()
		return nil
	}
	capW := d.sim.Executor().Cap()
	var rate float64
	if c.cfg.LearnRateHz != nil {
		rate = c.cfg.LearnRateHz()
	} else {
		rate = d.rateHzLocked()
	}
	c.est.Observe(capW, rate)
	target := capW
	if iv := c.lease.EffectiveIv(c.nowLocked()); iv > c.lastProbeIv {
		c.lastProbeIv = iv
		target = c.est.ProbeCap(c.grantW)
	}
	c.mu.Unlock()
	if target == capW {
		return nil
	}
	return d.setCapLocked(target)
}

// rateHzLocked sums the hosted applications' heartbeat rates from the
// latest accountant sample — the learning observable. Called under
// d.mu.
func (d *Daemon) rateHzLocked() float64 {
	samples := d.sim.Samples()
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, a := range samples[len(samples)-1].Apps {
		sum += a.RateHz
	}
	return sum
}

// ctrlAssign applies a budget grant from the coordinator. The fence
// check, the cap application, and the ledger update are one atomic
// section under d.mu then c.mu (the lock order Advance establishes,
// holding d.mu when it checks the lease): a failed cap application must
// not consume the sequence number — the coordinator's retry of the same
// seq would be dropped as stale while the wrong cap persists — and two
// in-flight assigns must serialize fence-check-plus-application as a
// unit, or the older (possibly higher) cap could land after the newer
// one while the ledger says otherwise, a sustained breach that lease
// renewals would then keep alive.
func (d *Daemon) ctrlAssign(req ctrlplane.AssignRequest) (ctrlplane.AssignResponse, error) {
	c := d.ctrl
	d.mu.Lock()
	defer d.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.lease.Admit(req.Epoch, req.Seq) {
		return d.ctrlAckLocked(false), nil
	}
	capW := req.CapW
	if c.est != nil {
		// A learning daemon may self-cap below its grant to probe an
		// unsampled cell; a probe never exceeds the grant, so the
		// cluster cap holds while the curve is partial.
		c.grantW = req.CapW
		capW = c.est.ProbeCap(req.CapW)
		c.lastProbeIv = req.Iv
	}
	if err := d.setCapLocked(capW); err != nil {
		return ctrlplane.AssignResponse{}, err
	}
	c.lease.Grant(req.Epoch, req.Seq, c.nowLocked(), ctrlplane.LeaseTerms{
		LeaseS: req.LeaseS, Iv: req.Iv, LeaseIv: req.LeaseIv, IvS: req.IvS})
	return d.ctrlAckLocked(true), nil
}

// ctrlAckLocked snapshots the assign-response view under d.mu and c.mu.
// CapW is the committed cap, in force once the queued cap change lands
// on the next Advance: the in-force assignment the coordinator checks
// a duplicate's ack against.
func (d *Daemon) ctrlAckLocked(applied bool) ctrlplane.AssignResponse {
	st := d.statusLocked()
	l := &d.ctrl.lease
	return ctrlplane.AssignResponse{
		V: ctrlplane.ProtocolV, Server: d.ctrl.cfg.ServerID,
		Epoch: l.Epoch(), Seq: l.Seq(), Applied: applied,
		CapW: d.capW, GridW: st.GridW, SoC: st.SoC,
		Fenced: l.Lapsed(), SafeMode: l.SafeMode(), Iv: l.Iv(),
	}
}

// ctrlReport builds a telemetry scrape response.
func (d *Daemon) ctrlReport() ctrlplane.Report {
	c := d.ctrl
	st := d.status()
	c.mu.Lock()
	defer c.mu.Unlock()
	rep := ctrlplane.Report{
		V: ctrlplane.ProtocolV, Server: c.cfg.ServerID,
		Epoch: c.lease.Epoch(), Seq: c.lease.Seq(),
		CapW: st.CapW, GridW: st.GridW, SoC: st.SoC,
		Fenced:     c.lease.Lapsed(),
		SafeMode:   c.lease.SafeMode(),
		IdleFloorW: d.hw.PIdleWatts,
		NameplateW: d.hw.MaxServerWatts(),
		Version:    d.version,
		Iv:         c.lease.Iv(),
	}
	// A live mix is not pre-characterizable, so without a learner the
	// report stays curveless and the coordinator apportions evenly.
	// With one, the learned curve ships with its confidence meta.
	if c.est != nil {
		if curve, ok := c.est.Curve(); ok {
			rep.UtilityCurve = curve
			rep.CurveConf = c.est.Confidence()
			rep.CurveCells = c.est.ObservedCells()
		}
	}
	return rep
}

// ctrlRenew extends the draw lease without changing the budget. A
// fenced daemon stays fenced: only a fresh assign restores its cap.
// Only the epoch that granted the in-force budget may renew it — a
// deposed coordinator's renewals are answered but extend nothing. Like
// the ack, the answer carries the committed cap; ExpiresT is on the
// daemon's lease clock.
func (d *Daemon) ctrlRenew(req ctrlplane.LeaseRequest) ctrlplane.LeaseResponse {
	c := d.ctrl
	d.mu.Lock()
	defer d.mu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	l := &c.lease
	l.Renew(req.Epoch, c.nowLocked(), ctrlplane.LeaseTerms{
		LeaseS: req.LeaseS, Iv: req.Iv, LeaseIv: req.LeaseIv, IvS: req.IvS})
	return ctrlplane.LeaseResponse{
		V: ctrlplane.ProtocolV, Epoch: l.Epoch(), Server: c.cfg.ServerID,
		CapW: d.capW, ExpiresT: l.ExpiresT(), Fenced: l.Lapsed(), Iv: l.Iv(),
	}
}

// ctrlEndpoint adapts the daemon to ctrlplane.CtrlEndpoint, the surface
// both the HTTP /ctrl routes and a BinaryServer listener serve: grants
// addressed to another server are refused, and the scrape ignores the
// coordinator's trace clock (a daemon lives on its own clock).
type ctrlEndpoint struct{ d *Daemon }

func (e ctrlEndpoint) Assign(req ctrlplane.AssignRequest) (ctrlplane.AssignResponse, error) {
	if req.Server != e.d.ctrl.cfg.ServerID {
		return ctrlplane.AssignResponse{}, fmt.Errorf("assign for server %d reached daemon %d", req.Server, e.d.ctrl.cfg.ServerID)
	}
	return e.d.ctrlAssign(req)
}

func (e ctrlEndpoint) Renew(req ctrlplane.LeaseRequest) (ctrlplane.LeaseResponse, error) {
	if req.Server != e.d.ctrl.cfg.ServerID {
		return ctrlplane.LeaseResponse{}, fmt.Errorf("lease for server %d reached daemon %d", req.Server, e.d.ctrl.cfg.ServerID)
	}
	return e.d.ctrlRenew(req), nil
}

func (e ctrlEndpoint) Scrape(t float64, hasT bool) (ctrlplane.Report, error) {
	return e.d.ctrlReport(), nil
}

// CtrlEndpoint returns the daemon's control-plane surface, or an error
// if EnableCtrl has not run. psd hosts it on a BinaryServer when
// started with -transport binary.
func (d *Daemon) CtrlEndpoint() (ctrlplane.CtrlEndpoint, error) {
	if d.ctrl == nil {
		return nil, fmt.Errorf("daemon: control plane not enabled")
	}
	return ctrlEndpoint{d: d}, nil
}

// ctrlRoutes mounts the shared control-plane handler on the daemon's
// mux.
func (d *Daemon) ctrlRoutes(mux *http.ServeMux) {
	if d.ctrl == nil {
		return
	}
	h := ctrlplane.NewHandler(d.ctrl.cfg.ServerID, ctrlEndpoint{d: d})
	for _, p := range []string{ctrlplane.PathAssign, ctrlplane.PathReport, ctrlplane.PathLease} {
		mux.Handle(p, h)
	}
}
