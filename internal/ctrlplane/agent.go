package ctrlplane

import (
	"fmt"
	"sync"

	"powerstruggle/internal/cf"
	"powerstruggle/internal/cluster"
)

// Backend is the server an agent enforces budgets on: the simulated
// mediated server in tests and the replay harness, a live psd daemon in
// deployment.
type Backend interface {
	// Apply enforces capW and returns the normalized performance and
	// grid draw the server settles at under that cap.
	Apply(capW float64) (perfN, gridW float64, err error)
	// SoC is the battery state of charge in [0, 1] (0 without an ESD).
	SoC() float64
	// IdleFloorW is the draw the server cannot shed without shutting
	// down; NameplateW its unconstrained maximum.
	IdleFloorW() float64
	NameplateW() float64
	// UtilityCurve samples the server's cap → (perf, grid) curve on
	// the cluster.ServerCapStepW grid, or returns nil when the server
	// cannot characterize itself.
	UtilityCurve() ([]cluster.CapPoint, error)
}

// AgentConfig parameterizes one agent.
type AgentConfig struct {
	// ID is the agent's fleet index; assigns addressed to another
	// server are refused.
	ID int
	// Backend is the enforced server (required).
	Backend Backend
	// FenceCapW is the fail-safe cap the agent self-imposes when its
	// draw lease lapses. The default of zero models the deepest
	// fail-safe the simulated platform has — suspend everything and
	// sleep — matching internal/cluster's dropout semantics (a lost
	// server draws nothing), which is what makes lease expiry and
	// in-process dropout interchangeable.
	FenceCapW float64
	// SafeMode, when enabled, replaces the fence cliff with a graceful
	// leaderless degradation: hold the last granted cap, then walk it
	// down toward a floor. Zero value keeps the cliff semantics.
	SafeMode SafeModeConfig
	// Learn, when non-nil, replaces the backend's pre-characterized
	// utility curve with an online estimator: the agent self-caps to
	// probe unsampled cap levels (never above its grant), learns the
	// cap→utility curve from what it enforces, and reports the learned
	// curve with CurveConf/CurveCells meta so the coordinator can weigh
	// its confidence. FloorW and NameplateW default to the backend's.
	Learn *cf.OnlineConfig
	// Version is reported to the coordinator (build audit).
	Version string
}

// SafeModeConfig parameterizes leaderless degradation. The invariant
// that makes holding safe: the held cap is the last cap a leader
// granted, so the fleet-wide sum of held caps never exceeds the last
// cluster cap that leader apportioned. Decay from there only shrinks
// the sum — a leaderless fleet drifts toward its floors instead of
// cliffing to them the instant a lease lapses.
type SafeModeConfig struct {
	// HoldS holds the last granted cap for this many trace seconds
	// past lease expiry before decay begins.
	HoldS float64
	// DecayWPerS is the linear ramp-down rate after the hold window.
	// Safe mode is enabled iff DecayWPerS > 0.
	DecayWPerS float64
	// FloorW is the decay target — the deepest the degradation goes
	// without a coordinator. Defaults to the agent's FenceCapW.
	FloorW float64
}

// Enabled reports whether safe-mode degradation replaces the fence
// cliff.
func (c SafeModeConfig) Enabled() bool { return c.DecayWPerS > 0 }

// Validate rejects non-finite or negative safe-mode parameters.
func (c SafeModeConfig) Validate() error {
	if !finite(c.HoldS) || c.HoldS < 0 {
		return fmt.Errorf("ctrlplane: safe-mode hold %g s", c.HoldS)
	}
	if !finite(c.DecayWPerS) || c.DecayWPerS < 0 {
		return fmt.Errorf("ctrlplane: safe-mode decay %g W/s", c.DecayWPerS)
	}
	if !finite(c.FloorW) || c.FloorW < 0 {
		return fmt.Errorf("ctrlplane: safe-mode floor %g W", c.FloorW)
	}
	return nil
}

// CapAt computes the safe-mode cap at trace time t for a lease that
// expired at expireT holding heldW: the held cap through the hold
// window, then a linear decay clamped at the floor. A held cap already
// at or below the floor just stays put.
func (c SafeModeConfig) CapAt(t, expireT, heldW float64) float64 {
	if heldW <= c.FloorW {
		return heldW
	}
	over := t - expireT - c.HoldS
	if over <= 0 {
		return heldW
	}
	capW := heldW - c.DecayWPerS*over
	if capW < c.FloorW {
		capW = c.FloorW
	}
	return capW
}

// Agent is the per-server control-plane endpoint: it holds the enforced
// cap and its lease ledger, and fences itself when the lease lapses.
// Its lease clock is the coordinator's trace time. All methods are safe
// for concurrent use.
type Agent struct {
	cfg AgentConfig

	mu    sync.Mutex
	capW  float64
	perfN float64
	gridW float64
	// lease is the (epoch, seq) fence, draw lease and protocol clock
	// (docs/CONTROL_PLANE.md "Protocol clock"). Lapsed means fenced;
	// in safe mode the agent enforces the held cap decaying per
	// cfg.SafeMode instead of the fence cap.
	lease      Lease
	curve      []cluster.CapPoint
	curveBuilt bool
	// Online-learning state (cfg.Learn): est learns the cap→utility
	// curve from enforced caps, grantW remembers the full grant so a
	// probing agent can restore it, and lastProbeIv rate-limits probe
	// moves to one per protocol interval — the cap never flaps within
	// an interval.
	est         *cf.OnlineEstimator
	grantW      float64
	lastProbeIv uint64
}

// NewAgent builds an agent booted in the fenced state: until the first
// grant arrives it enforces the fail-safe cap, so a freshly started
// fleet is safe by default.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("ctrlplane: agent %d needs a backend", cfg.ID)
	}
	if cfg.ID < 0 {
		return nil, fmt.Errorf("ctrlplane: agent id %d", cfg.ID)
	}
	if !finite(cfg.FenceCapW) || cfg.FenceCapW < 0 {
		return nil, fmt.Errorf("ctrlplane: agent %d fence cap %g W", cfg.ID, cfg.FenceCapW)
	}
	if err := cfg.SafeMode.Validate(); err != nil {
		return nil, fmt.Errorf("agent %d: %w", cfg.ID, err)
	}
	if cfg.SafeMode.Enabled() && cfg.SafeMode.FloorW == 0 {
		cfg.SafeMode.FloorW = cfg.FenceCapW
	}
	a := &Agent{cfg: cfg, capW: cfg.FenceCapW}
	a.lease.lapsed = true
	if cfg.Learn != nil {
		lc := *cfg.Learn
		if lc.FloorW == 0 {
			lc.FloorW = cfg.Backend.IdleFloorW()
		}
		if lc.NameplateW == 0 {
			lc.NameplateW = cfg.Backend.NameplateW()
		}
		est, err := cf.NewOnlineEstimator(lc)
		if err != nil {
			return nil, fmt.Errorf("ctrlplane: agent %d learner: %w", cfg.ID, err)
		}
		a.est = est
	}
	perf, grid, err := cfg.Backend.Apply(cfg.FenceCapW)
	if err != nil {
		return nil, fmt.Errorf("ctrlplane: agent %d boot fence: %w", cfg.ID, err)
	}
	a.perfN, a.gridW = perf, grid
	return a, nil
}

// ID returns the agent's fleet index.
func (a *Agent) ID() int { return a.cfg.ID }

// Assign applies a budget grant. Grants are ordered by (Epoch, Seq):
// anything not strictly newer than the last applied pair is
// acknowledged without effect. Within one epoch that makes assignment
// idempotent under network-level duplication and reordering; across
// epochs it fences a deposed leader — once any grant from epoch E has
// been applied, every in-flight or retried grant from an older epoch
// is refused, no matter how it was delayed or duplicated.
func (a *Agent) Assign(req AssignRequest) (AssignResponse, error) {
	if req.Server != a.cfg.ID {
		return AssignResponse{}, fmt.Errorf("ctrlplane: assign for server %d reached agent %d", req.Server, a.cfg.ID)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.lease.Admit(req.Epoch, req.Seq) {
		return a.stateLocked(false), nil
	}
	capW := req.CapW
	if a.est != nil {
		// A learning agent may self-cap below its grant to probe an
		// unsampled cell; a probe never exceeds the grant, so the
		// cluster cap holds while the curve is partial.
		a.grantW = req.CapW
		capW = a.est.ProbeCap(req.CapW)
		a.lastProbeIv = req.Iv
	}
	perf, grid, err := a.cfg.Backend.Apply(capW)
	if err != nil {
		return AssignResponse{}, err
	}
	a.capW, a.perfN, a.gridW = capW, perf, grid
	a.lease.Grant(req.Epoch, req.Seq, req.T, LeaseTerms{req.LeaseS, req.Iv, req.LeaseIv, req.IvS})
	if a.est != nil {
		a.est.Observe(a.capW, a.perfN)
	}
	return a.stateLocked(true), nil
}

// Renew extends the draw lease without changing the budget (see
// Lease.Renew, which psd's renewals run through too). A fenced agent
// stays fenced and its lease clock stays dead — only a fresh Assign
// restores a budget. A delayed or duplicated renewal carrying a T
// older than the last grant is ignored: moving the lease clock
// backward would spuriously fence a healthy agent on its next Tick.
// Only the epoch that granted the in-force budget may renew it — a
// deposed leader must not keep a budget it no longer owns alive, and a
// new leader has nothing to renew before its first assign.
func (a *Agent) Renew(req LeaseRequest) (LeaseResponse, error) {
	if req.Server != a.cfg.ID {
		return LeaseResponse{}, fmt.Errorf("ctrlplane: lease for server %d reached agent %d", req.Server, a.cfg.ID)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	// Any renewal from the current (or a newer) epoch is a protocol-
	// clock observation, even when it cannot move the lease: a fenced or
	// safe-mode agent keeps counting the coordinator's intervals, which
	// is what ages its decay correctly.
	a.lease.Renew(req.Epoch, req.T, LeaseTerms{req.LeaseS, req.Iv, req.LeaseIv, req.IvS})
	return LeaseResponse{V: ProtocolV, Epoch: a.lease.Epoch(), Server: a.cfg.ID, CapW: a.capW,
		ExpiresT: a.lease.ExpiresT(), Fenced: a.lease.Lapsed(), Iv: a.lease.Iv()}, nil
}

// Tick advances the agent's clock to trace time t and fences the server
// if its draw lease has lapsed. The replay harness and the scrape path
// call it with coordinator time.
func (a *Agent) Tick(t float64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tickLocked(t)
}

func (a *Agent) tickLocked(t float64) error {
	if a.lease.SafeMode() {
		// Already degrading leaderless: continue the decay.
		return a.applySafeCapLocked(t)
	}
	if !a.lease.Expired(t) {
		return a.learnTickLocked(t)
	}
	if a.cfg.SafeMode.Enabled() {
		// Lease lapsed with safe mode on: hold the last granted cap
		// (fleet sum still bounded by the last cluster cap a leader
		// apportioned).
		a.lease.EnterSafeMode(a.capW)
		return a.applySafeCapLocked(t)
	}
	perf, grid, err := a.cfg.Backend.Apply(a.cfg.FenceCapW)
	if err != nil {
		return fmt.Errorf("ctrlplane: agent %d fence: %w", a.cfg.ID, err)
	}
	a.capW, a.perfN, a.gridW = a.cfg.FenceCapW, perf, grid
	a.lease.Lapse()
	return nil
}

// learnTickLocked runs one online-learning step under a live lease:
// observe the cell the enforced cap lands on, then — at most once per
// protocol interval — move the probe to the estimator's next choice.
// Rate-limiting probe moves to interval boundaries keeps the cap from
// flapping within an interval; a converged estimator's probe is the
// full grant, so learning agents settle back onto their grants. In
// clockless (seconds-lease) deployments the interval counter never
// advances, so probes move only on fresh assigns.
func (a *Agent) learnTickLocked(t float64) error {
	if a.est == nil || !a.lease.Live() {
		return nil
	}
	a.est.Observe(a.capW, a.perfN)
	target := a.capW
	if iv := a.lease.EffectiveIv(t); iv > a.lastProbeIv {
		a.lastProbeIv = iv
		target = a.est.ProbeCap(a.grantW)
	}
	if target == a.capW {
		return nil
	}
	perf, grid, err := a.cfg.Backend.Apply(target)
	if err != nil {
		return fmt.Errorf("ctrlplane: agent %d probe: %w", a.cfg.ID, err)
	}
	a.capW, a.perfN, a.gridW = target, perf, grid
	return nil
}

// applySafeCapLocked enforces the safe-mode cap for trace time t.
func (a *Agent) applySafeCapLocked(t float64) error {
	target := a.lease.SafeCap(a.cfg.SafeMode, t)
	if target == a.capW {
		return nil
	}
	perf, grid, err := a.cfg.Backend.Apply(target)
	if err != nil {
		return fmt.Errorf("ctrlplane: agent %d safe-mode decay: %w", a.cfg.ID, err)
	}
	a.capW, a.perfN, a.gridW = target, perf, grid
	return nil
}

// Refresh re-applies the enforced cap so the reported perf and draw
// reflect the backend's current workload — the control-plane twin of a
// live daemon re-planning under an unchanged cap when its hosted mix
// shifts. The budget, lease, and fencing ledger are untouched.
func (a *Agent) Refresh() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	perf, grid, err := a.cfg.Backend.Apply(a.capW)
	if err != nil {
		return fmt.Errorf("ctrlplane: agent %d refresh: %w", a.cfg.ID, err)
	}
	a.perfN, a.gridW = perf, grid
	return nil
}

// Report snapshots the agent for a telemetry scrape. A pre-characterized
// agent builds its cap-utility curve lazily on first use (the curve is a
// property of the hosted mix and does not change); a learning agent
// reports its current learned curve with CurveConf/CurveCells meta
// instead, or no curve at all before the first accepted observation.
func (a *Agent) Report() (Report, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.est != nil {
		rep := a.reportLocked()
		if curve, ok := a.est.Curve(); ok {
			rep.UtilityCurve = curve
			rep.CurveConf = a.est.Confidence()
			rep.CurveCells = a.est.ObservedCells()
		}
		return rep, nil
	}
	if !a.curveBuilt {
		curve, err := a.cfg.Backend.UtilityCurve()
		if err != nil {
			return Report{}, err
		}
		a.curve = curve
		a.curveBuilt = true
	}
	rep := a.reportLocked()
	rep.UtilityCurve = a.curve
	return rep, nil
}

// reportLocked builds the curveless part of a scrape report.
func (a *Agent) reportLocked() Report {
	return Report{
		V:        ProtocolV,
		Server:   a.cfg.ID,
		Epoch:    a.lease.Epoch(),
		Seq:      a.lease.Seq(),
		CapW:     a.capW,
		PerfN:    a.perfN,
		GridW:    a.gridW,
		SoC:      a.cfg.Backend.SoC(),
		Fenced:   a.lease.Lapsed(),
		SafeMode: a.lease.SafeMode(),

		IdleFloorW: a.cfg.Backend.IdleFloorW(),
		NameplateW: a.cfg.Backend.NameplateW(),
		Version:    a.cfg.Version,
		Iv:         a.lease.Iv(),
	}
}

// Scrape is Tick-then-Report in one call: the server side of a
// telemetry scrape regardless of transport (the HTTP handler parses
// ?t= into it, the binary server decodes a scrape frame into it).
// hasT is false when the scrape carries no coordinator clock.
func (a *Agent) Scrape(t float64, hasT bool) (Report, error) {
	if hasT {
		if err := a.Tick(t); err != nil {
			return Report{}, err
		}
	}
	return a.Report()
}

// stateLocked builds an AssignResponse from the current state.
func (a *Agent) stateLocked(applied bool) AssignResponse {
	return AssignResponse{
		V: ProtocolV, Server: a.cfg.ID, Epoch: a.lease.Epoch(), Seq: a.lease.Seq(), Applied: applied,
		CapW: a.capW, PerfN: a.perfN, GridW: a.gridW,
		SoC: a.cfg.Backend.SoC(), Fenced: a.lease.Lapsed(), SafeMode: a.lease.SafeMode(),
		Iv: a.lease.Iv(),
	}
}

// CapW returns the cap the agent currently enforces.
func (a *Agent) CapW() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.capW
}

// GridW returns the grid draw the enforced cap settles at — the ground
// truth the soak test sums against the cluster cap.
func (a *Agent) GridW() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gridW
}

// PerfN returns the delivered normalized performance.
func (a *Agent) PerfN() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.perfN
}

// Fenced reports whether the fail-safe cap is in force.
func (a *Agent) Fenced() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lease.Lapsed()
}

// SafeMode reports whether the agent is degrading leaderless — fenced,
// but holding/decaying the last granted cap instead of cliffing.
func (a *Agent) SafeMode() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lease.SafeMode()
}

// SafeModeEntries counts lease lapses that entered safe-mode
// degradation (a subset of Fences).
func (a *Agent) SafeModeEntries() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lease.SafeEntries()
}

// Assigns counts applied budget grants — renewals excluded, so a
// steady-state fleet shows one assign followed by renewals only.
func (a *Agent) Assigns() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lease.Grants()
}

// Fences counts lease lapses that forced the fail-safe cap.
func (a *Agent) Fences() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lease.Lapses()
}

// StaleDrops counts stale or duplicated assigns refused by sequence
// check.
func (a *Agent) StaleDrops() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lease.StaleDrops()
}

// EpochDrops counts grants and renewals refused for carrying an epoch
// older than the newest one applied — a deposed leader's traffic.
func (a *Agent) EpochDrops() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lease.EpochDrops()
}

// LastEpoch is the highest coordinator epoch the agent has applied a
// grant from (0 before the first grant).
func (a *Agent) LastEpoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lease.Epoch()
}

// LastIv is the highest protocol-clock interval the agent has observed
// from any grant or renewal (0 while clockless).
func (a *Agent) LastIv() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lease.Iv()
}

// Learning reports whether the agent characterizes its utility curve
// online instead of trusting a pre-characterized backend curve.
func (a *Agent) Learning() bool { return a.est != nil }

// LearnConverged reports whether the online estimator has sampled every
// cap cell often enough to stop probing (false when not learning).
func (a *Agent) LearnConverged() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.est != nil && a.est.Converged()
}

// LearnConfidence is the learned curve's coverage fraction (0 when not
// learning).
func (a *Agent) LearnConfidence() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.est == nil {
		return 0
	}
	return a.est.Confidence()
}

// ClockSkewIv is the last measured coordinator skew in intervals:
// positive when the coordinator minted fewer intervals than the
// agent's local clock counted over the same span (the coordinator runs
// slow or stalls), negative when it minted faster.
func (a *Agent) ClockSkewIv() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lease.SkewIv()
}
