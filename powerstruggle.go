// Package powerstruggle mediates "power struggles" on shared servers: it
// treats power as an indirectly shared resource and explicitly apportions
// a server's power cap across co-located applications, across each
// application's direct resources (per-core DVFS, core count, DRAM power),
// and across time — duty cycling and banking energy in a server-local
// battery when the cap is too tight for everyone to run at once.
//
// It is a from-scratch reproduction of "Mediating Power Struggles on a
// Shared Server" (Narayanan & Sivasubramaniam, ISPASS 2020), including
// the paper's full runtime (utility learning by collaborative filtering,
// PowerAllocator, Coordinator, Accountant), the simulated dual-socket
// platform it is evaluated on, the twelve benchmark applications and
// fifteen co-location mixes of its evaluation, and harnesses regenerating
// every table and figure.
//
// # Quick start
//
//	srv, err := powerstruggle.NewServer(powerstruggle.Defaults())
//	// handle err
//	srv.SetCap(100)
//	srv.Admit("STREAM")
//	srv.Admit("kmeans")
//	res, err := srv.Run(powerstruggle.AppResAware, 30)
//	// res.TotalPerf is the paper's objective (1); res.AppPerf the
//	// per-application normalized performances.
//
// The deeper machinery — hardware model, utility curves, allocator,
// coordinator, accountant, collaborative filtering, cluster replay,
// experiment harnesses — lives in the internal packages and is exercised
// through this facade, the executables under cmd/, and the examples.
package powerstruggle

import (
	"fmt"
	"math"

	"powerstruggle/internal/allocator"
	"powerstruggle/internal/coordinator"
	"powerstruggle/internal/esd"
	"powerstruggle/internal/policy"
	"powerstruggle/internal/simhw"
	"powerstruggle/internal/telemetry"
	"powerstruggle/internal/workload"
)

// Telemetry is a metrics registry plus control-loop span tracer; build
// one with NewTelemetry and attach it via Config. See docs/METRICS.md
// for the exported series and trace tracks.
type Telemetry = telemetry.Hub

// NewTelemetry builds an enabled telemetry hub. ringSize bounds the
// span ring in events (0 means the default, 65536).
func NewTelemetry(ringSize int) *Telemetry { return telemetry.New(ringSize) }

// Policy selects the power-management scheme, in the order the paper
// evaluates them.
type Policy = policy.Kind

// The evaluated policies.
const (
	// UtilUnaware splits the budget evenly and enforces shares with
	// hardware RAPL (baseline 1).
	UtilUnaware = policy.UtilUnaware
	// ServerResAware adds server-averaged resource awareness
	// (baseline 2).
	ServerResAware = policy.ServerResAware
	// AppAware apportions by application-level utilities (R1).
	AppAware = policy.AppAware
	// AppResAware additionally partitions each share across the
	// application's direct resources (R1+R2+R3).
	AppResAware = policy.AppResAware
	// AppResESDAware additionally time-shifts power with the server's
	// battery (R1-R4).
	AppResESDAware = policy.AppResESDAware
)

// Config describes a mediated server.
type Config struct {
	// Platform is the hardware description (Defaults().Platform is the
	// paper's Table I machine).
	Platform simhw.Config
	// BatteryJ, when positive, equips the server with a lead-acid ESD
	// of that nameplate capacity in joules.
	BatteryJ float64
	// RestoreSeconds is the cold-cache penalty applications pay when
	// resumed after suspension.
	RestoreSeconds float64
	// Telemetry, when non-nil, instruments every Run: interval/actuate
	// spans, watchdog and retry counters, allocator solve times. nil (the
	// default) runs uninstrumented with bit-identical results.
	Telemetry *Telemetry
}

// Defaults returns the paper's server: the Table I platform with a
// 300 kJ lead-acid UPS.
func Defaults() Config {
	return Config{Platform: simhw.DefaultConfig(), BatteryJ: 300e3}
}

// Server is a power-capped shared server hosting co-located applications.
type Server struct {
	cfg    Config
	lib    *workload.Library
	capW   float64
	apps   []*workload.Profile
	names  []string
	objs   []allocator.Objective
	anySLO bool
}

// NewServer builds a server from cfg.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	lib, err := workload.NewLibrary(cfg.Platform)
	if err != nil {
		return nil, err
	}
	allocator.EnableTelemetry(cfg.Telemetry.Registry())
	return &Server{cfg: cfg, lib: lib, capW: cfg.Platform.MaxServerWatts()}, nil
}

// Library exposes the application library realized on this platform.
func (s *Server) Library() *workload.Library { return s.lib }

// SetCap sets the server power cap in watts (the paper's P_cap).
func (s *Server) SetCap(watts float64) error {
	if watts <= 0 {
		return fmt.Errorf("powerstruggle: cap %.1f W is invalid", watts)
	}
	s.capW = watts
	return nil
}

// Cap returns the current power cap.
func (s *Server) Cap() float64 { return s.capW }

// Admit schedules a named benchmark application (one of the paper's
// twelve; see Apps) onto the server, best-effort with unit weight.
func (s *Server) Admit(app string) error {
	return s.AdmitCritical(app, 1, 0)
}

// AdmitCritical schedules a named application with a weighted objective
// term and an SLO floor: the mediator never allocates it less power than
// floorPerf of its uncapped performance needs (the latency-critical
// co-location the paper's footnote on Requirement R4 discusses). A
// floorPerf of 0 means best-effort; weight scales its term in the
// objective.
func (s *Server) AdmitCritical(app string, weight, floorPerf float64) error {
	p, err := s.lib.App(app)
	if err != nil {
		return err
	}
	return s.admit(p, app, weight, floorPerf)
}

// AdmitProfile schedules a custom application model.
func (s *Server) AdmitProfile(p *workload.Profile) error {
	if p == nil {
		return fmt.Errorf("powerstruggle: nil profile")
	}
	if err := p.Validate(); err != nil {
		return err
	}
	return s.admit(p, p.Name, 1, 0)
}

func (s *Server) admit(p *workload.Profile, name string, weight, floorPerf float64) error {
	if !(weight > 0) || math.IsInf(weight, 1) {
		return fmt.Errorf("powerstruggle: %s: weight %g must be positive and finite", name, weight)
	}
	if !(floorPerf >= 0 && floorPerf <= 1) {
		return fmt.Errorf("powerstruggle: %s: SLO floor %g outside [0, 1]", name, floorPerf)
	}
	s.apps = append(s.apps, p)
	s.names = append(s.names, name)
	s.objs = append(s.objs, allocator.Objective{Weight: weight, FloorPerf: floorPerf})
	if weight != 1 || floorPerf > 0 {
		s.anySLO = true
	}
	return nil
}

// Apps lists the benchmark applications available to Admit.
func (s *Server) Apps() []string { return s.lib.Names() }

// Mixes returns the paper's Table II co-location mixes.
func Mixes() []workload.Mix { return workload.Mixes() }

// Result is the measured outcome of running the admitted applications
// under a policy.
type Result struct {
	// Policy that produced the schedule.
	Policy Policy
	// Mode is the coordination mode chosen (space, time or esd).
	Mode string
	// TotalPerf is the paper's objective (1): the sum of normalized
	// per-application performances (uncapped co-location scores one
	// per application).
	TotalPerf float64
	// AppPerf is each admitted application's normalized performance,
	// in admission order.
	AppPerf []float64
	// AppBudgetW is each application's time-averaged power share.
	AppBudgetW []float64
	// MaxGridW is the peak grid draw observed; adherence means it
	// never exceeded the cap.
	MaxGridW float64
	// CapViolations counts integration steps that exceeded the cap.
	CapViolations int
	// Samples is the decimated power timeline.
	Samples []coordinator.Sample
}

// Plan computes the schedule a policy would install right now without
// executing it.
func (s *Server) Plan(p Policy) (coordinator.Schedule, error) {
	dec, err := s.decide(p, s.device())
	if err != nil {
		return coordinator.Schedule{}, err
	}
	return dec.Schedule, nil
}

func (s *Server) device() *esd.Device {
	if s.cfg.BatteryJ <= 0 {
		return nil
	}
	dev, err := esd.NewDevice(esd.LeadAcid(s.cfg.BatteryJ), 0.6)
	if err != nil {
		return nil
	}
	return dev
}

func (s *Server) decide(p Policy, dev *esd.Device) (policy.Decision, error) {
	if len(s.apps) == 0 {
		return policy.Decision{}, fmt.Errorf("powerstruggle: no applications admitted")
	}
	ctx := policy.Context{
		HW:       s.cfg.Platform,
		CapW:     s.capW,
		Profiles: s.apps,
		Library:  s.lib,
		Device:   dev,
		Coord:    coordinator.Config{RestoreSeconds: s.cfg.RestoreSeconds},
	}
	if s.anySLO {
		ctx.Objectives = append([]allocator.Objective(nil), s.objs...)
	}
	return policy.Plan(p, ctx)
}

// Run plans with policy p and executes the schedule on the simulated
// platform for seconds of simulated time, returning measured results.
func (s *Server) Run(p Policy, seconds float64) (*Result, error) {
	if seconds <= 0 {
		return nil, fmt.Errorf("powerstruggle: run of %g s", seconds)
	}
	dev := s.device()
	dec, err := s.decide(p, dev)
	if err != nil {
		return nil, err
	}
	insts := make([]*workload.Instance, len(s.apps))
	for i, ap := range s.apps {
		inst, err := workload.NewInstance(ap, 0)
		if err != nil {
			return nil, err
		}
		insts[i] = inst
	}
	r := coordinator.Runner{
		Config: coordinator.Config{
			HW: s.cfg.Platform, CapW: s.capW,
			RestoreSeconds: s.cfg.RestoreSeconds,
			Telemetry:      s.cfg.Telemetry,
		},
		Profiles:    s.apps,
		Instances:   insts,
		Device:      dev,
		SampleEvery: 0.25,
	}
	run, err := r.Run(dec.Schedule, seconds)
	if err != nil {
		return nil, err
	}
	return &Result{
		Policy:        p,
		Mode:          dec.Schedule.Mode.String(),
		TotalPerf:     run.TotalPerf,
		AppPerf:       run.AppNormPerf,
		AppBudgetW:    dec.Schedule.AppBudgetW,
		MaxGridW:      run.MaxGridW,
		CapViolations: run.CapViolations,
		Samples:       run.Samples,
	}, nil
}

// Reset removes all admitted applications.
func (s *Server) Reset() {
	s.apps = nil
	s.names = nil
	s.objs = nil
	s.anySLO = false
}
