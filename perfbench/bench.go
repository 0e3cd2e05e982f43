package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// workload is one named input family. A run repeats rounds of it: each
// round builds a fresh system from the seed (timed as set-up), steps it
// through a fixed-length episode in a closed loop, and tears it down.
// Because every round replays the same seeded episode, the simulated
// statistics of all rounds must agree bit for bit.
type workload struct {
	episode int     // steps per round
	warmup  int     // leading steps of each round left out of the timings
	stepS   float64 // simulated seconds one step covers
	// server marks the mediated-server workload: its plans are the
	// accountant's, not the control plane's.
	server bool
	build  func(seed int64, tr *tracer) (system, error)
}

var workloads = map[string]workload{
	"server-churn":  serverChurn,
	"flat-1k":       flat1k,
	"tree-1k":       tree1k,
	"tree-1k-drift": tree1kDrift,
}

// system is one built instance of a workload.
type system interface {
	// step runs step k of the episode: the timed calls into the
	// program, then the untimed validity checks.
	step(k int) (stepResult, error)
	// fingerprint returns the episode's simulated statistics once the
	// last step has run.
	fingerprint() fingerprint
	// layerCounts returns per-round counters for the traced report.
	layerCounts() map[string]float64
	close()
}

// stepResult is what one step reports to the runner.
type stepResult struct {
	ns     int64  // host time spent inside the program's entry points
	allocs uint64 // heap objects allocated inside them
	// replanNs are the host times of the decisions in this step that
	// landed a new plan: the step itself on the control plane, each
	// such tick on the mediated server.
	replanNs []int64
	safeNs   []int64 // cap cuts that became safe during this step
	// invalid describes the first failed validity check ("" if valid).
	invalid string
	// ops and failedOps count the operations the step attempted and
	// those that failed a check when a step is more than one (a server
	// minute is 1200 ticks); zero means the step is one operation.
	ops, failedOps int
}

// fingerprint is an episode's simulated statistics. None depends on
// host speed, so every round of one seed must produce the same value.
type fingerprint struct {
	welfareSum float64 // summed per-step (or per-sample) welfare
	welfareN   int
	capOK      int // steps or samples at or under the cap in force
	capN       int
	replans    int
	dpLayers   int // DP layers an incremental apportioner rebuilt
	events     [4]int
}

type runOptions struct {
	seed   int64
	budget time.Duration
	traced bool
}

type metric struct {
	name  string
	value float64
	unit  string
}

type result struct {
	rounds, attempted, failed int
	failures                  []string
	deterministic             bool
	endToEnd, perLayer        []metric
	spans                     []span
}

func (r *result) correct() bool { return r.failed == 0 && r.deterministic }

const (
	// maxFailureNotes bounds the validity messages a run prints.
	maxFailureNotes = 5
	// setupReps extra builds time set-up beyond the rounds' own.
	setupReps = 9
)

// run executes rounds until the time budget is spent (at least
// minRounds, so set-up is timed several times). A traced run alternates
// untraced and traced rounds: the untraced ones give the tracing
// overhead's baseline and the allocation count, the traced ones the
// per-layer numbers.
func run(w workload, o runOptions) (*result, error) {
	minRounds := 3
	var tr *tracer
	if o.traced {
		minRounds = 4
		tr = newTracer()
	}
	res := &result{deterministic: true}
	var (
		setupS              []float64
		stepNs, replanNs    []float64
		safeNs              []float64
		tracedNs            []float64
		simS, hostS         float64
		allocs              uint64
		allocSteps          int
		peakHeap            float64
		first               fingerprint
		counts              = map[string]float64{}
		tracedRounds, steps int
		dpLayers            int
		noted               bool
	)
	// The heap a system retains is read after a full GC: once built,
	// and again at the end of each round, when its state has grown most.
	heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	sampleHeap := func() {
		runtime.GC()
		metrics.Read(heap)
		if v := float64(heap[0].Value.Uint64()); v > peakHeap {
			peakHeap = v
		}
	}
	// Set-up is fast next to a round, so it is also timed over extra
	// builds that are torn down unused.
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		sys, err := w.build(o.seed, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		sys.close()
	}
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < o.budget; round++ {
		var rt *tracer
		if o.traced && round%2 == 1 {
			rt = tr
			tracedRounds++
		}
		runtime.GC()
		t0 := time.Now()
		sys, err := w.build(o.seed, rt)
		if err != nil {
			return nil, fmt.Errorf("round %d set-up: %w", round, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		sampleHeap()
		for k := 0; k < w.episode; k++ {
			measured := k >= w.warmup
			if rt != nil {
				rt.beginStep(round, k, measured)
			}
			out, err := sys.step(k)
			if rt != nil {
				rt.endStep()
			}
			if err != nil {
				sys.close()
				return nil, fmt.Errorf("round %d step %d: %w", round, k, err)
			}
			res.attempted += max(out.ops, 1)
			if out.invalid != "" {
				res.failed += max(out.failedOps, 1)
				if len(res.failures) < maxFailureNotes {
					res.failures = append(res.failures, fmt.Sprintf("round %d step %d: %s", round, k, out.invalid))
				}
			}
			if !measured {
				continue
			}
			if rt != nil {
				tracedNs = append(tracedNs, float64(out.ns))
				steps++
				continue
			}
			stepNs = append(stepNs, float64(out.ns))
			for _, ns := range out.replanNs {
				replanNs = append(replanNs, float64(ns))
			}
			for _, ns := range out.safeNs {
				safeNs = append(safeNs, float64(ns))
			}
			simS += w.stepS
			hostS += float64(out.ns) / 1e9
			allocs += out.allocs
			allocSteps++
		}
		sampleHeap()
		fp := sys.fingerprint()
		if rt != nil {
			for k, v := range sys.layerCounts() {
				counts[k] += v
			}
		}
		sys.close()
		// The reference DP runs on traced rounds only: its layer count is
		// compared among those, the other statistics across all rounds.
		if rt != nil {
			if tracedRounds > 1 && fp.dpLayers != dpLayers {
				res.deterministic = false
			}
			dpLayers = fp.dpLayers
		}
		fp.dpLayers = 0
		if round == 0 {
			first = fp
		} else if fp != first {
			res.deterministic = false
		}
		if !res.deterministic && !noted {
			noted = true
			res.failures = append(res.failures, fmt.Sprintf("round %d: simulated statistics %+v (DP layers %d) differ from earlier rounds' %+v",
				round, fp, dpLayers, first))
		}
		res.rounds++
	}
	if len(stepNs) == 0 || len(replanNs) == 0 || len(safeNs) == 0 {
		return nil, fmt.Errorf("episode produced %d timed steps, %d replans, %d cap drops: every metric needs samples",
			len(stepNs), len(replanNs), len(safeNs))
	}
	ms := func(ns float64) float64 { return ns / 1e6 }
	res.endToEnd = []metric{
		{"setup_s", quantile(setupS, 0.5), "s"},
		{"peak_heap_mb", peakHeap / (1 << 20), "MB"},
		{"interval_ms.p50", ms(quantile(stepNs, 0.5)), "ms"},
		{"replan_ms.p50", ms(quantile(replanNs, 0.5)), "ms"},
		{"safe_ms.p50", ms(quantile(safeNs, 0.5)), "ms"},
		{"sim_speed", simS / hostS, "x"},
		{"welfare", first.welfareSum / float64(first.welfareN), "perf"},
		{"cap_ok_frac", float64(first.capOK) / float64(first.capN), "frac"},
	}
	// Tails are printed, not gated: see README.md.
	for _, d := range []struct {
		name string
		ns   []float64
	}{{"interval_ms", stepNs}, {"replan_ms", replanNs}, {"safe_ms", safeNs}} {
		fmt.Printf("%s: n=%d p50=%.4g", d.name, len(d.ns), ms(quantile(d.ns, 0.5)))
		for _, q := range []float64{0.9, 0.99} {
			if float64(len(d.ns))*(1-q) >= 10 {
				fmt.Printf(" p%g=%.4g", q*100, ms(quantile(d.ns, q)))
			}
		}
		fmt.Println()
	}
	if o.traced {
		untraced := quantile(stepNs, 0.5)
		traced := quantile(tracedNs, 0.5)
		// Plans land in one layer per workload; the other reads 0.
		acctPlans, ctrlPlans := 0.0, float64(first.replans)
		if w.server {
			acctPlans, ctrlPlans = ctrlPlans, 0
		}
		res.perLayer = append(tr.report(steps, tracedRounds, counts),
			metric{"ctrlplane.allocs_per_interval", float64(allocs) / float64(allocSteps), "count"},
			metric{"accountant.replans", acctPlans, "count"},
			metric{"ctrlplane.replans", ctrlPlans, "count"},
			metric{"accountant.events.e1", float64(first.events[0]), "count"},
			metric{"accountant.events.e2", float64(first.events[1]), "count"},
			metric{"accountant.events.e3", float64(first.events[2]), "count"},
			metric{"accountant.events.e4", float64(first.events[3]), "count"},
			metric{"cluster.dp_layers_rebuilt", float64(dpLayers) / float64(w.episode-w.warmup), "count"},
			metric{"trace.untraced_ms", ms(untraced), "ms"},
			metric{"trace.traced_ms", ms(traced), "ms"},
			metric{"trace.overhead_ms", ms(traced - untraced), "ms"},
			metric{"trace.overhead_frac", (traced - untraced) / untraced, "frac"},
		)
		res.spans = tr.kept
	}
	return res, nil
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// heapAllocs reads the runtime's cumulative heap allocation count
// without stopping the world.
func heapAllocs(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// probe times a system's calls into the program: host time and heap
// allocations inside each call, and — on traced rounds — a span per
// call.
type probe struct {
	tr     *tracer
	ns     int64
	allocs uint64
	sample []metrics.Sample
}

func newProbe(tr *tracer) *probe {
	return &probe{tr: tr, sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

// reset starts a new step's tally.
func (p *probe) reset() { p.ns, p.allocs = 0, 0 }

// call runs f as one timed call at layer boundary kind (node indexes
// the shard node or coordinator). It returns f's error and the call's
// host time.
func (p *probe) call(kind spanKind, node int, f func() error) (int64, error) {
	a0 := heapAllocs(p.sample)
	var id int32
	if p.tr != nil {
		id = p.tr.open()
	}
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	if p.tr != nil {
		p.tr.close(id, kind, node, t0, t1)
	}
	ns := t1.Sub(t0).Nanoseconds()
	p.ns += ns
	p.allocs += heapAllocs(p.sample) - a0
	return ns, err
}

// kernel runs f, a kernel re-invoked on a step's captured inputs after
// the call that produced them returned, and on traced rounds records its
// host time under name.
func (p *probe) kernel(name string, f func()) {
	if p.tr == nil {
		f()
		return
	}
	t0 := time.Now()
	f()
	p.tr.kernel(name, t0, time.Now())
}
