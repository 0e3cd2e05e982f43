package main

import (
	"fmt"
	"math/rand"

	"powerstruggle/internal/accountant"
	"powerstruggle/internal/allocator"
	"powerstruggle/internal/coordinator"
	"powerstruggle/internal/esd"
	"powerstruggle/internal/policy"
	"powerstruggle/internal/simhw"
	appmodel "powerstruggle/internal/workload"
)

// serverChurn: one App+Res+ESD-Aware mediated server, configured as psd
// configures it, advanced in 50 ms simulated ticks the way psd's
// ticker calls daemon.Advance, under seeded Poisson arrivals of the
// library's applications and a cap swinging 100/80/90/75 W. It runs
// accountant → policy → workload curves → allocator → coordinator →
// simhw/esd and never touches the control plane.
//
// One step is a simulated minute (1200 ticks): tick costs are bimodal —
// ESD-coordinated schedules tick ~4× cheaper than space-coordinated
// ones, and which one runs changes with the cap and the mix over tens
// of seconds — so the minute smooths them.
var serverChurn = workload{episode: churnMinutes, stepS: 60, server: true, build: buildServer}

const (
	tickS        = 0.05
	ticksPerStep = 1200
	// churnMinutes is one round: an hour of simulated time, long enough
	// that the seeded arrival mix averages out.
	churnMinutes = 60
	// Arrival process (the server runs busy, with a short queue at
	// times) and cap swing.
	arrivalsPerMinute = 3
	meanJobS          = 30
	capSwingS         = 30
	// batteryJ is psd's default lead-acid capacity.
	batteryJ = 300e3
	// transitionGraceS excuses cap adherence after each event while the
	// ~800 ms re-allocation lands (as the churn study does).
	transitionGraceS = 1.5
)

var capSwing = []float64{100, 80, 90, 75}

// churnSample is one recorded sample of the server timeline.
type churnSample struct {
	t, capW, gridW, perf float64
	apps                 int
}

type serverSystem struct {
	p   *probe
	tr  *tracer
	hw  simhw.Config
	lib *appmodel.Library
	sim *accountant.Sim
	ex  *coordinator.Executor

	lastSeg *coordinator.Segment // first segment of the installed schedule
	samples []churnSample
	lastT   float64
	// Pending cap drop: host time since it entered, and whether the
	// draw exceeded the new cap when it did.
	dropPending bool
	dropNs      int64
	replans     int
}

func buildServer(seed int64, tr *tracer) (system, error) {
	hw := simhw.DefaultConfig()
	lib, err := appmodel.NewLibrary(hw)
	if err != nil {
		return nil, err
	}
	dev, err := esd.NewDevice(esd.LeadAcid(batteryJ), 0.6)
	if err != nil {
		return nil, err
	}
	sim, err := accountant.NewSim(accountant.Config{
		HW: hw, Policy: policy.AppResESDAware, Library: lib,
		InitialCapW: capSwing[0], Device: dev,
		ReallocSeconds: 0.8, SampleEvery: 0.25,
		// The benchmark drains samples every tick.
		MaxSamples: 64,
	})
	if err != nil {
		return nil, err
	}
	horizon := churnMinutes * 60.0
	rng := rand.New(rand.NewSource(seed))
	apps := lib.Apps()
	for t := rng.ExpFloat64() * 60 / arrivalsPerMinute; t < horizon; t += rng.ExpFloat64() * 60 / arrivalsPerMinute {
		p := apps[rng.Intn(len(apps))]
		beats := max(p.NoCapRate(hw)*rng.ExpFloat64()*meanJobS, 1e-6)
		if err := sim.AddArrival(t, p, beats); err != nil {
			return nil, err
		}
	}
	for i, t := 1, float64(capSwingS); t < horizon; i, t = i+1, t+capSwingS {
		if err := sim.AddCapChange(t, capSwing[i%len(capSwing)]); err != nil {
			return nil, err
		}
	}
	return &serverSystem{p: newProbe(tr), tr: tr, hw: hw, lib: lib, sim: sim, ex: sim.Executor(), lastT: -1}, nil
}

func (s *serverSystem) step(int) (stepResult, error) {
	s.p.reset()
	out := stepResult{ops: ticksPerStep}
	for i := 0; i < ticksPerStep; i++ {
		if msg := s.tick(&out); msg != "" {
			out.failedOps++
			if out.invalid == "" {
				out.invalid = msg
			}
		}
	}
	out.ns, out.allocs = s.p.ns, s.p.allocs
	return out, nil
}

// tick advances the server one 50 ms tick, as psd's ticker does, and
// returns a validity problem ("" when none).
func (s *serverSystem) tick(out *stepResult) string {
	capBefore := s.ex.Cap()
	ns, runErr := s.p.call(spanSimRun, 0, func() error { return s.sim.Run(tickS) })
	if sched, ok := s.ex.Schedule(); ok && len(sched.Segments) > 0 && &sched.Segments[0] != s.lastSeg {
		s.lastSeg = &sched.Segments[0]
		s.replans++
		out.replanNs = append(out.replanNs, ns)
		if s.tr != nil {
			s.shadowPlan(ns)
		}
	} else if s.tr != nil {
		s.tr.add("accountant.steady_tick_ns", float64(ns))
		s.tr.add("accountant.steady_ticks", 1)
	}

	// A lowered cap counts when the last sample drew above it; it is
	// safe at the first later sample at or under it.
	if capW := s.ex.Cap(); capW < capBefore && len(s.samples) > 0 && s.samples[len(s.samples)-1].gridW > capW {
		s.dropPending, s.dropNs = true, 0
	}
	if s.dropPending {
		s.dropNs += ns
	}
	for _, smp := range s.sim.Samples() {
		if smp.T <= s.lastT {
			continue
		}
		s.lastT = smp.T
		cs := churnSample{t: smp.T, capW: smp.CapW, gridW: smp.GridW, apps: len(smp.Apps)}
		for _, a := range smp.Apps {
			cs.perf += a.Perf
		}
		s.samples = append(s.samples, cs)
		if s.dropPending && cs.gridW <= cs.capW {
			out.safeNs = append(out.safeNs, s.dropNs)
			s.dropPending = false
		}
	}
	if runErr != nil {
		return fmt.Sprintf("Sim.Run: %v", runErr)
	}
	return ""
}

// shadowPlan re-invokes the policy and its parts on the inputs of the
// plan this tick landed, for the per-layer timing.
func (s *serverSystem) shadowPlan(tickNs int64) {
	n := s.ex.Apps()
	if n == 0 {
		return
	}
	profiles := make([]*appmodel.Profile, n)
	for i := range profiles {
		profiles[i] = s.ex.Instance(i).Effective()
	}
	capW, dev := s.ex.Cap(), s.ex.Device()
	s.p.kernel("policy.plan", func() {
		_, _ = policy.Plan(policy.AppResESDAware, policy.Context{HW: s.hw, CapW: capW, Profiles: profiles, Library: s.lib, Device: dev})
	})
	curves := make([]*appmodel.Curve, n)
	s.p.kernel("workload.curve", func() {
		for i, p := range profiles {
			curves[i] = appmodel.OptimalCurve(s.hw, p)
		}
	})
	var plan allocator.Plan
	var err error
	s.p.kernel("allocator.apportion", func() { plan, err = allocator.Apportion(curves, s.hw.DynamicBudget(capW), 0) })
	cc := coordinator.Config{HW: s.hw, CapW: capW}
	s.p.kernel("coordinator.schedule", func() {
		if err == nil {
			_, _ = coordinator.Space(cc, plan)
		}
		_, _ = coordinator.Time(cc, curves, false)
		_, _ = coordinator.ESD(cc, curves, dev)
	})
	s.tr.add("plans", 1)
	s.tr.add("accountant.replan_tick_ns", float64(tickNs))
}

// fingerprint derives the episode's statistics: mean objective (1)
// over occupied samples, cap adherence outside the transition grace
// after each event, plans landed, and the E1–E4 event counts.
func (s *serverSystem) fingerprint() fingerprint {
	fp := fingerprint{replans: s.replans}
	var transitions []float64
	for _, e := range s.sim.Events() {
		if e.Kind <= accountant.EvPhaseChange {
			fp.events[e.Kind]++
		}
		transitions = append(transitions, e.T)
	}
	for _, smp := range s.samples {
		if smp.apps > 0 {
			fp.welfareSum += smp.perf
			fp.welfareN++
		}
		inGrace := false
		for _, t := range transitions {
			if smp.t >= t && smp.t < t+transitionGraceS {
				inGrace = true
				break
			}
		}
		if inGrace {
			continue
		}
		fp.capN++
		if smp.gridW <= smp.capW+1e-6 {
			fp.capOK++
		}
	}
	return fp
}

func (s *serverSystem) layerCounts() map[string]float64 { return nil }

func (s *serverSystem) close() {}
